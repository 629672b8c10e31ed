"""A mutation run: each entry is a small defect that the test suite must catch.

Run from anywhere, with the interpreter that runs the tests:

    python tests/mutants.py

The run copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory.  For each mutant it replaces the old text, which must occur
exactly once, with the new text in that file of the copy, runs
``python -m pytest -x -q tests`` there and puts the file back.  A mutant is
killed when pytest fails; the report names the first failing test and the
seconds the run took.  A mutant the suite passes survived.  Each entry says
either that it must fail or why it is equivalent: why no input can tell it
from the original.  A survivor that must fail is a missing test.

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
    ("src/mrpgen/xof.py", 'np.arange(count, dtype="<u2")', 'np.arange(count, dtype=">u2")',
     MUST_FAIL),
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
    # the 16-bit segment-id bound, defined once
    ("src/mrpgen/profiles.py", "MAX_N_SEG = 1 << 16", "MAX_N_SEG = 1 << 15", MUST_FAIL),
    ("src/mrpgen/sampling.py", "self.n_seg > MAX_N_SEG:", "self.n_seg >= MAX_N_SEG:",
     MUST_FAIL),
    ("src/mrpgen/xof.py", "if not 0 <= id_seg < MAX_N_SEG:", "if not 0 <= id_seg <= MAX_N_SEG:",
     MUST_FAIL),
    ("src/mrpgen/xof.py", "if not 0 <= count <= MAX_N_SEG:", "if not 0 <= count < MAX_N_SEG:",
     MUST_FAIL),
    # the MRP reader: the limb offset, the reverse layout, the trailing bytes
    ("src/mrpgen/formats.py", 'np.frombuffer(data, dtype="<u4", offset=pos).reshape',
     'np.frombuffer(data, dtype="<u4", offset=pos - 4).reshape', MUST_FAIL),
    ("src/mrpgen/formats.py", "params = replace(params, layout=Permutation.reverse(n_ring))",
     "params = replace(params, layout=Permutation.identity(n_ring))", MUST_FAIL),
    ("src/mrpgen/formats.py", "if len(data) - pos > body:", "if len(data) - pos >= body:",
     MUST_FAIL),
    # the catalog's cap only tightens, and its weight cap is not negative; the
    # solver keeps an endpoint that meets the budget exactly; the seed options
    # exclude each other
    ("src/mrpgen/primes.py", "if cap > self.p_r_max:", "if cap >= self.p_r_max:", MUST_FAIL),
    ("src/mrpgen/primes.py", "if hw_naf_max < 0:", "if hw_naf_max < -1:", MUST_FAIL),
    ("src/mrpgen/analytics.py", "<= float(budget)", "< float(budget)", MUST_FAIL),
    # the failure bound's exact branch: -count * seg_fail only below 2^-60
    ("src/mrpgen/analytics.py", "if seg_fail > 2 ** -60", "if seg_fail > 2 ** -30",
     MUST_FAIL),
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
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
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
