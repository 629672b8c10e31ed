#!/usr/bin/env python3
# Produces the committed golden fixtures from the independent reference
# implementation in reference_keccak.py.  Run from the tests/ directory:
#
#     python gen_fixtures.py
#
# The pipeline here (input encoding, word split, threshold filter) is
# written from scratch on purpose; the package under test must reproduce
# these bytes without sharing any code with them.
#
# The canonical CLI reports (cli_text.txt, cli_json.txt) are the one
# exception: they pin the package's own output, so a change that must keep
# every report byte for byte is checked against them.  Writing them needs
# the package on the path:
#
#     PYTHONPATH=../src python gen_fixtures.py

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import reference_keccak as ref

OUT = Path(__file__).parent / "fixtures"

SEED_ZERO = bytes(36)
SEED_ITER = bytes(range(36))


def encode(seed, q, id_seg):
    return seed + q.to_bytes(4, "little") + id_seg.to_bytes(2, "little")


def words_le32(block):
    return [int.from_bytes(block[4 * i:4 * i + 4], "little")
            for i in range(len(block) // 4)]


def shake_block(data):
    return ref.shake128(data, 168)


def k12_block(data):
    return ref.kangaroo_twelve(data, b"", 168)


def filter_segment(block, q, want):
    thresh = (2 ** 32 // q) * q
    kept = []
    for word in words_le32(block):
        if word < thresh:
            kept.append(word)
            if len(kept) == want:
                break
    return kept


def write_xof_vectors():
    inputs = [
        b"",
        encode(SEED_ZERO, 786433, 0),
        encode(SEED_ZERO, 3, 0),
        encode(SEED_ITER, 786433, 5),
    ]
    lines = []
    for data in inputs:
        out = shake_block(data)
        lines.append(f"{data.hex() or '-'} {out.hex()}")
    (OUT / "xof_vectors.txt").write_text("\n".join(lines) + "\n")


def limb_coeffs(expand, seed, q, seg_len, n_seg):
    coeffs = []
    for id_seg in range(n_seg):
        seg = filter_segment(expand(encode(seed, q, id_seg)), q, seg_len)
        if len(seg) != seg_len:
            raise RuntimeError(f"short segment q={q} id_seg={id_seg}")
        coeffs.extend(seg)
    return coeffs


def write_golden_segment(name, expand, header=""):
    q, id_seg, want = 786433, 0, 32
    kept = filter_segment(expand(encode(SEED_ZERO, q, id_seg)), q, want)
    assert len(kept) == want
    text = (header + f"seed = {SEED_ZERO.hex()}\n"
            f"q = {q}\nid_seg = {id_seg}\nlen = {want}\nw = 32\n"
            "values = " + " ".join(str(v) for v in kept) + "\n")
    (OUT / name).write_text(text)


def write_golden_mrp(name, expand, header=""):
    # the desk profile: N = 256, len 32, two small transform-friendly moduli
    n_ring, seg_len, n_seg = 256, 32, 8
    base = (7681, 10753)
    lines = [f"seed = {SEED_ZERO.hex()}",
             f"N = {n_ring}", f"len = {seg_len}", f"n_seg = {n_seg}",
             "base = " + " ".join(str(q) for q in base)]
    for q in base:
        coeffs = limb_coeffs(expand, SEED_ZERO, q, seg_len, n_seg)
        lines.append(f"limb {q} = " + " ".join(str(v) for v in coeffs))
    (OUT / name).write_text(header + "\n".join(lines) + "\n")


def write_golden_k12_limb():
    # one default-size limb: N = 2^16, len 32, so 2048 blocks; q = 2^32 - 2^20 + 1
    # is the largest prime q < 2^32 with q = 1 (mod 2^17), rejecting 2^-12 of words
    n_ring, seg_len = 1 << 16, 32
    n_seg = n_ring // seg_len
    q = (1 << 32) - (1 << 20) + 1
    coeffs = limb_coeffs(k12_block, SEED_ITER, q, seg_len, n_seg)
    raw = b"".join(v.to_bytes(4, "little") for v in coeffs)
    text = ("backend = kangarootwelve\n"
            f"seed = {SEED_ITER.hex()}\n"
            f"N = {n_ring}\nlen = {seg_len}\nn_seg = {n_seg}\nq = {q}\n"
            "head = " + " ".join(str(v) for v in coeffs[:8]) + "\n"
            f"sha256 = {hashlib.sha256(raw).hexdigest()}\n")
    (OUT / "golden_k12_limb.txt").write_text(text)


def write_small_fixtures():
    """Every fixture but golden_k12_limb.txt, whose 2048 pure-Python blocks
    take seconds; tests/test_gen_fixtures.py runs this one."""
    write_xof_vectors()
    write_golden_segment("golden_segment.txt", shake_block)
    write_golden_mrp("golden_mrp.txt", shake_block)
    k12 = "backend = kangarootwelve\n"
    write_golden_segment("golden_k12_segment.txt", k12_block, k12)
    write_golden_mrp("golden_k12_mrp.txt", k12_block, k12)


ZERO_HEX = SEED_ZERO.hex()
DESK_PARAMS = "N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681, 10753\n"
# q = 2147483777 rejects about half the words, so 32 acceptances among 42
# are rare: segment 0 under the zero seed is short
HARD_PARAMS = "N = 64\nw = 32\nlen = 32\nn_seg = 2\nbase = 2147483777\n"
CLI_RUNS = [
    ["gen-mrp", "--seed", ZERO_HEX, "--params", "desk.params", "--out", "desk.mrp"],
    ["gen-limb", "--seed", ZERO_HEX, "--params", "desk.params", "--q", "7681",
     "--out", "desk.limb"],
    ["gen-seg", "--seed", ZERO_HEX, "--params", "desk.params", "--q", "10753", "--id", "3"],
    ["gen-seg", "--seed", ZERO_HEX, "--params", "hard.params", "--q", "2147483777",
     "--id", "0"],
    ["retry-gen", "--params", "desk.params", "--rng-seed", "7", "--out", "retry.mrp"],
    ["verify", "--mrp", "desk.mrp", "--seed", ZERO_HEX],
    ["verify", "--mrp", "desk.mrp", "--common", "00" * 32, "--poly-id", "1"],
    ["stats", "--mrp", "desk.mrp", "--bins", "16"],
    ["enum-primes", "--n", "8", "--w", "16"],
    ["table1"],
    ["analyze", "--len", "32", "--nseg", "8", "--L", "2", "--pr", "1/4096"],
    ["fit-table1"],
    ["cost", "--R", "16", "--w", "32", "--f", "1", "--gamma", "1/8", "--d", "15",
     "--E", "40"],
]


def cli_report(fmt, workdir):
    """Every CLI_RUNS command under --canonical --format fmt, run in process
    in order from workdir with relative paths, so that input_digest does not
    depend on where it runs: argv, stdout, stderr and exit code of each."""
    from mrpgen.cli import main

    workdir = Path(workdir)
    (workdir / "desk.params").write_text(DESK_PARAMS)
    (workdir / "hard.params").write_text(HARD_PARAMS)
    chunks = []
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CLI_RUNS:
            argv = ["--canonical", "--format", fmt, *argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            chunks.append(f"$ mrpgen {' '.join(argv)}\n{out.getvalue()}"
                          + "".join(f"[stderr] {line}\n" for line in err.getvalue().splitlines())
                          + f"[exit {code}]\n")
    finally:
        os.chdir(home)
    return "\n".join(chunks)


def write_cli_fixtures():
    for fmt in ("text", "json"):
        with tempfile.TemporaryDirectory() as workdir:
            (OUT / f"cli_{fmt}.txt").write_text(cli_report(fmt, workdir))


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    write_small_fixtures()
    write_golden_k12_limb()
    write_cli_fixtures()
    print(f"fixtures written to {OUT}")
