"""A mutation run: each entry is a small defect that the test suite must catch.

Run from anywhere, with the interpreter that runs the tests:

    python tests/mutants.py

The run copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, leaving out ``tests/test_mutants.py``, which checks this list
against the unmutated tree in tier-1.  For each mutant it replaces the old
text, which must occur exactly once, with the new text in that file of the
copy, runs ``python -m pytest -x -q tests`` there and puts the file back.
A mutant is killed when pytest fails; the report names the first failing
test and the seconds the run took.  A mutant the suite passes survived.
Each entry says either that it must fail or why it is equivalent: why no
input can tell it from the original.  A survivor that must fail is a
missing test.

The exit status is 1 if a mutant that must fail survived, an equivalent one
was killed, or an old text no longer occurs exactly once; 0 otherwise.  The
file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUST_FAIL = "must fail"
TIMEOUT_S = 600

# (file under the root, old text, new text, MUST_FAIL or "equivalent: why")
MUTANTS = [
    # fit-table1: the tolerance refusal and the fit verdict
    ("src/mrpgen/cli.py", "if not 0 <= args.tol < math.inf:", "if not 0 <= args.tol:",
     MUST_FAIL),
    ("src/mrpgen/cli.py", "if not 0 <= args.tol < math.inf:",
     "if not -1 < args.tol < math.inf:", MUST_FAIL),
    ("src/mrpgen/cli.py", "ok = residual <= args.tol", "ok = residual < args.tol", MUST_FAIL),
    # cost: the display units and the saving
    ("src/mrpgen/cli.py", '"throughput_tbps": report.throughput_bps / 1e12,',
     '"throughput_tbps": report.throughput_bps / 1e9,', MUST_FAIL),
    ("src/mrpgen/cli.py",
     '"per_axis_density_tbps_per_mm": report.per_axis_density_bps_per_mm / 1e12,',
     '"per_axis_density_tbps_per_mm": report.per_axis_density_bps_per_mm / 1e9,', MUST_FAIL),
    ("src/mrpgen/cli.py", '"saving_w": report.central_power_w - report.distributed_power_w,',
     '"saving_w": report.distributed_power_w - report.central_power_w,', MUST_FAIL),
    # the one-block sponge: padding positions, round count, K12 domain byte
    ("src/mrpgen/keccak.py", "state[:, end] ^= suffix", "state[:, end - 1] ^= suffix",
     MUST_FAIL),
    ("src/mrpgen/keccak.py", "state[:, _RATE - 1] ^= 0x80", "state[:, _RATE - 1] = 0x80",
     MUST_FAIL),
    ("src/mrpgen/keccak.py", "state[:, _RATE - 1] ^= 0x80", "state[:, _RATE - 2] ^= 0x80",
     MUST_FAIL),
    ("src/mrpgen/keccak.py", 'lanes = keccak_p(state.view("<u8").T, 12)',
     'lanes = keccak_p(state.view("<u8").T, 24)', MUST_FAIL),
    ("src/mrpgen/keccak.py", "0x07, out_len)", "0x06, out_len)", MUST_FAIL),
    # the permutation: the round-count check, a round constant that only 24
    # rounds use, a rho offset
    ("src/mrpgen/keccak.py", "    if not isinstance(rounds, int) or not 0 <= rounds <= 24:\n",
     "    if False:\n", MUST_FAIL),
    ("src/mrpgen/keccak.py", "0x800000000000808A,", "0x800000000000808B,", MUST_FAIL),
    ("src/mrpgen/keccak.py", "36, 44, 6, 55, 20,", "36, 44, 6, 55, 21,", MUST_FAIL),
    # the generator: the filter, the threshold, the segment id, the short row
    ("src/mrpgen/sampling.py", "col &= count < params.seg_len",
     "col &= count <= params.seg_len", MUST_FAIL),
    ("src/mrpgen/sampling.py", "return ((1 << w) // q) * q", "return ((1 << w) // q) * q + 1",
     MUST_FAIL),
    ("src/mrpgen/xof.py", 'np.arange(ids.start, ids.stop, dtype="<u2")',
     'np.arange(ids.start, ids.stop, dtype=">u2")', MUST_FAIL),
    # a segment is one row of the scan, over its whole block
    ("src/mrpgen/sampling.py", "compute_threshold(q, params.w), params.t, params)",
     "compute_threshold(q, params.w), params.t - 1, params)", MUST_FAIL),
    ("src/mrpgen/sampling.py", "short = count < params.seg_len",
     "short = count < params.seg_len - 1", MUST_FAIL),
    # the block prefix: k's bound, the fallback, the tail loop's start, the count's seed
    ("src/mrpgen/sampling.py", "while k < t and n_seg * tail >= PREFIX_MISS:",
     "while k < t and tail >= PREFIX_MISS:", MUST_FAIL),
    ("src/mrpgen/sampling.py", "if k < params.t and count.min() < params.seg_len:",
     "if k > params.t and count.min() < params.seg_len:", MUST_FAIL),
    ("src/mrpgen/sampling.py", "for col in keep[params.seg_len:]:",
     "for col in keep[params.seg_len + 1:]:", MUST_FAIL),
    ("src/mrpgen/sampling.py", "count = keep[:params.seg_len].sum(",
     "count = keep[:params.seg_len - 1].sum(", MUST_FAIL),
    # the helper needs two whole CPUs of cgroup quota
    ("src/mrpgen/sampling.py", "return cpus is None or cpus >= 2",
     "return cpus is None or cpus >= 1", MUST_FAIL),
    ("src/mrpgen/sampling.py", "for row in range(rows - 1, -1, -1):",
     "for row in range(rows - 1, 0, -1):",
     "equivalent: the caller makes every row the helper did not store, row 0 included"),
    # the row helper: its first row, which half's short row is raised, a
    # helper inherited through os.fork, a helper after an interrupted call
    ("src/mrpgen/sampling.py", "request = _REQUEST.pack(seed.data, q, h, params.w,",
     "request = _REQUEST.pack(seed.data, q, h + 1, params.w,", MUST_FAIL),
    ("src/mrpgen/sampling.py",
     "    if isinstance(mine, int):\n        return mine\n"
     "    if isinstance(theirs, int):\n        return theirs\n",
     "    if isinstance(theirs, int):\n        return theirs\n"
     "    if isinstance(mine, int):\n        return mine\n", MUST_FAIL),
    ("src/mrpgen/sampling.py", "    if _helper is not None and _helper.owner != os.getpid():\n",
     "    if False:\n", MUST_FAIL),
    ("src/mrpgen/sampling.py",
     "    except BaseException:\n        _stop_helper()\n        raise\n",
     "    except BaseException:\n        raise\n", MUST_FAIL),
    # a split that did not pay: twice this process's half is the unsplit
    # limb, and the next calls are unsplit
    ("src/mrpgen/sampling.py", "if wall > SPLIT_PAYS * 2 * cpu:", "if wall > SPLIT_PAYS * cpu:",
     MUST_FAIL),
    ("src/mrpgen/sampling.py", "_skip, _backoff = _backoff, min(", "_skip, _backoff = 0, min(",
     MUST_FAIL),
    # _each_limb's rows are unsplit: it holds the row helper's lock
    ("src/mrpgen/sampling.py", "    with _helper_lock:  # so generate_limb splits no row",
     "    with contextlib.nullcontext():  # so generate_limb splits no row", MUST_FAIL),
    # the row helper keeps no descriptor of its creator's; CLI gen-limb forks
    # no row helper; only a FIFO node, not a link to a pipe, is waited for
    # within a bound
    ("src/mrpgen/sampling.py", "        os.closerange(0, low)\n", "", MUST_FAIL),
    ("src/mrpgen/cli.py", "limb = sampling._serial_limb(seed, args.q, params)",
     "limb = sampling.generate_limb(seed, args.q, params)", MUST_FAIL),
    ("src/mrpgen/formats.py", "if not stat.S_ISFIFO(os.lstat(path).st_mode):",
     "if not stat.S_ISFIFO(os.stat(path).st_mode):", MUST_FAIL),
    # the 16-bit segment-id bound, defined once
    ("src/mrpgen/profiles.py", "MAX_N_SEG = 1 << 16", "MAX_N_SEG = 1 << 15", MUST_FAIL),
    ("src/mrpgen/sampling.py", "self.n_seg > MAX_N_SEG:", "self.n_seg >= MAX_N_SEG:",
     MUST_FAIL),
    ("src/mrpgen/xof.py", "ids.stop <= MAX_N_SEG):", "ids.stop <= MAX_N_SEG + 1):", MUST_FAIL),
    ("src/mrpgen/xof.py", "ids.stop <= MAX_N_SEG):", "ids.stop < MAX_N_SEG):", MUST_FAIL),
    # the fixed-width fields of the hash input and of a derived seed
    ("src/mrpgen/xof.py", 'seed.data + q.to_bytes(4, "little")',
     'seed.data + q.to_bytes(4, "big")', MUST_FAIL),
    ("src/mrpgen/xof.py", 'poly_id.to_bytes(4, "little")', 'poly_id.to_bytes(4, "big")',
     MUST_FAIL),
    # a profile's segments tile the ring
    ("src/mrpgen/sampling.py", "if self.seg_len * self.n_seg != self.N:",
     "if self.seg_len * self.n_seg > self.N:", MUST_FAIL),
    # the MRP reader: the limb offset, the reverse layout, the trailing bytes
    ("src/mrpgen/formats.py", 'np.frombuffer(data, dtype="<u4", offset=pos).reshape',
     'np.frombuffer(data, dtype="<u4", offset=pos - 4).reshape', MUST_FAIL),
    ("src/mrpgen/formats.py", "params = replace(params, layout=Permutation.reverse(n_ring))",
     "params = replace(params, layout=Permutation.identity(n_ring))", MUST_FAIL),
    ("src/mrpgen/formats.py", "if length - pos > body:", "if length - pos >= body:",
     MUST_FAIL),
    # the streamed container: a limb's offset, a short write continued, the
    # preallocated length; verify's pread of the stored row and its short
    # read; the summary of each row
    ("src/mrpgen/formats.py", "_pwrite(fd, limb, len(header) + row * 4 * params.N)",
     "_pwrite(fd, limb, row * 4 * params.N)", MUST_FAIL),
    ("src/mrpgen/formats.py", "view, offset = view[done:], offset + done",
     "view, offset = view[done:], offset", MUST_FAIL),
    ("src/mrpgen/formats.py", "os.posix_fallocate(fd, 0, size)",
     "os.posix_fallocate(fd, 0, size + 1)", MUST_FAIL),
    ("src/mrpgen/formats.py", "os.posix_fallocate(fd, 0, size)",
     "os.posix_fallocate(fd, 0, size - 1)",
     "equivalent: the writes extend the file to its whole length; the allocation "
     "reserves blocks, and no byte or length of the output depends on it"),
    ("src/mrpgen/formats.py", "stored = read(pos + 4 * params.N * row, 4 * params.N)",
     "stored = read(4 * params.N * row, 4 * params.N)", MUST_FAIL),
    ("src/mrpgen/formats.py", "stored = read(pos + 4 * params.N * row, 4 * params.N)",
     "stored = read(pos + 4 * params.N * row, 4 * params.N - 4)", MUST_FAIL),
    ("src/mrpgen/formats.py", "    if len(data) < size:\n", "    if len(data) < 0:\n",
     MUST_FAIL),
    ("src/mrpgen/cli.py", "for q, row in zip(params.base, digests)}",
     "for q, row in zip(params.base, digests[::-1])}", MUST_FAIL),
    # the catalog's cap only tightens, and its weight cap is not negative; the
    # solver keeps an endpoint that meets the budget exactly; the seed options
    # exclude each other
    ("src/mrpgen/primes.py", "if cap > self.p_r_max:", "if cap >= self.p_r_max:", MUST_FAIL),
    ("src/mrpgen/primes.py", "if hw_naf_max < 0:", "if hw_naf_max < -1:", MUST_FAIL),
    ("src/mrpgen/analytics.py", "<= float(budget)", "< float(budget)", MUST_FAIL),
    # the failure bound's exact branch: -count * seg_fail only below 2^-60
    ("src/mrpgen/analytics.py", "if seg_fail > 2 ** -60", "if seg_fail > 2 ** -30",
     MUST_FAIL),
    # the catalog's rejection cap is not negative; the NAF weight's shift
    ("src/mrpgen/primes.py", "if p_r_max < 0:", "if p_r_max < -1:", MUST_FAIL),
    ("src/mrpgen/primes.py", "return ((n ^ 3 * n) >> 1).bit_count()",
     "return ((n ^ 3 * n) >> 2).bit_count()", MUST_FAIL),
    ("src/mrpgen/primes.py", "return ((n ^ 3 * n) >> 1).bit_count()",
     "return (n ^ 3 * n).bit_count()",
     "equivalent: n and 3n have the same parity, so bit 0 of n ^ 3n is always 0"),
    # the one tail sum: its bounds and its term; the bisection's step count;
    # the guard for a tail that rounds to 1
    ("src/mrpgen/analytics.py", "for i in range(min(seg_len, t + 1))",
     "for i in range(min(seg_len - 1, t + 1))", MUST_FAIL),
    ("src/mrpgen/analytics.py", "for i in range(min(seg_len, t + 1))",
     "for i in range(min(seg_len, t))", MUST_FAIL),
    ("src/mrpgen/analytics.py", "(d - n) ** i * n ** (t - i)", "n ** i * (d - n) ** (t - i)",
     MUST_FAIL),
    ("src/mrpgen/analytics.py", "math.ceil(7 * math.log2(10)) + 2",
     "math.ceil(7 * math.log2(10)) + 1", MUST_FAIL),
    ("src/mrpgen/analytics.py", "if float(seg_fail) == 1:", "if seg_fail == 1:", MUST_FAIL),
    # the wiring model's factors: half the die side for the central hop and
    # for the per-axis density
    ("src/mrpgen/costmodel.py", "p.d_mm / 2.0, p.e_j_per_bit_mm)", "p.d_mm, p.e_j_per_bit_mm)",
     MUST_FAIL),
    ("src/mrpgen/costmodel.py", "required_throughput(p) / p.d_mm / 2.0",
     "required_throughput(p) / p.d_mm", MUST_FAIL),
    # the exit code of an expected outcome; a key a params file must hold
    ("src/mrpgen/errors.py", "    exit_code = 1\n", "    exit_code = 2\n", MUST_FAIL),
    ("src/mrpgen/formats.py", '_REQUIRED_KEYS = ("N", "w", "len", "n_seg", "base")',
     '_REQUIRED_KEYS = ("N", "w", "len", "base")', MUST_FAIL),
    # the catalog's sieve: its prime list, the struck class, the prime itself,
    # its bound and whether it is complete; the test-work bound's shortcut
    ("src/mrpgen/primes.py", "flags[0] = 0", "flags[0] = 1", MUST_FAIL),
    ("src/mrpgen/primes.py", "i = (-first - pow(p + 1 >> 1, k, p)) % p",
     "i = (first + pow(p + 1 >> 1, k, p)) % p", MUST_FAIL),
    ("src/mrpgen/primes.py", "            i += p\n", "            i += 0\n", MUST_FAIL),
    ("src/mrpgen/primes.py", "root = isqrt(limit - 1)", "root = isqrt(limit - 1) - 1",
     MUST_FAIL),
    ("src/mrpgen/primes.py", "bound = min(root, _SIEVE_BOUND)",
     "bound = min(root - 1, _SIEVE_BOUND)", MUST_FAIL),
    ("src/mrpgen/primes.py", "if bound < root:", "if bound >= root:", MUST_FAIL),
    ("src/mrpgen/primes.py", "if candidates > most_tested:",
     "if candidates > most_tested + 1:", MUST_FAIL),
    ("src/mrpgen/primes.py", "if candidates > most_tested:", "if candidates >= most_tested:",
     "equivalent: no more than `candidates` candidates can be under the weight cap"),
    ("src/mrpgen/cli.py", "if args.common is not None or args.poly_id is not None:",
     "if args.common is not None and args.poly_id is not None:", MUST_FAIL),
    ("src/mrpgen/cli.py", "if args.seed is not None:", "if args.seed:", MUST_FAIL),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                    "test_mutants.py")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_suite(tree: Path) -> tuple[bool, str, float]:
    """(passed, first failing test or "", seconds) of the suite in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    first = failed.group(1) if failed else " ".join(proc.stdout.strip().splitlines()[-1:])
    return proc.returncode == 0, first, seconds


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mrpgen-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        for number, (rel, old, new, verdict) in enumerate(MUTANTS, 1):
            path = tree / rel
            original = path.read_text()
            label = f"{number:2d} {rel}: {old!r} -> {new!r}"
            if original.count(old) != 1:
                print(f"{label}\n   STALE: the old text occurs {original.count(old)} times")
                bad += 1
                continue
            path.write_text(original.replace(old, new))
            try:
                passed, first, seconds = _run_suite(tree)
            finally:
                path.write_text(original)
            expected = passed != (verdict == MUST_FAIL)
            status = "survived" if passed else f"killed by {first}"
            print(f"{label}\n   {status} in {seconds:.1f} s"
                  f"{'' if expected else '  <-- UNEXPECTED'} ({verdict})", flush=True)
            bad += not expected
    print(f"{len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
