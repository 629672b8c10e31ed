"""The benchmark's workloads: inputs made from the seed, operations, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has finished and been checked.  An operation has two
classes of timed step; the first class is the workload's main one.

- client: CLI ``retry-gen --out`` then CLI ``verify`` on the default profile
- server: ``generate_limb`` in this process, SHAKE128 len 4 or KangarooTwelve len 32
- design: CLI ``table1`` then CLI ``fit-table1``
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from mrpgen import (GenerationFailure, GenParams, Seed, analytics, compute_threshold,
                    encode_domain_input, formats, keccak, primes, sampling,
                    split_words, xof_expand)
from mrpgen.profiles import (DEFAULT_HW_NAF_MAX, DEFAULT_MAX_FAIL, DEFAULT_N,
                             DEFAULT_Q_MIN_EXCLUSIVE, DEFAULT_R_BITS, DEFAULT_T,
                             DEFAULT_W, REFERENCE_ROWS)

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1

BASE_SIZE = 64              # L, the default profile's limb count
K12_SHARE = 1 / 4           # share of server requests on the KangarooTwelve profile
SAMPLED_SEGMENTS = 16       # segments per output recomputed with generate_segment
CHILD_TIMEOUT_S = 150.0
SMOKE_N = 256               # the tiny profile of smoke mode, as in the desk fixture
SMOKE_BASE = 8              # moduli of the probe's profile
SMOKE_L = 4                 # moduli of a smoke workload's profile
SMOKE_ROW = 32              # moduli per smoke catalog row

# SHA-256 of the first output of each class at the default seed, full and
# smoke profiles, recorded when the benchmark was written.  Every run
# regenerates these outputs (Workload.first_digests), whatever its own seed,
# so a change to the XOF, the Keccak permutation or the sampler that alters a
# single output bit fails the run.
PINNED = {
    False: {
        "client": "6a5f5eaa6464006f5a6972d03a4376b24c5d3c6d85b8d9609aa7531ce68d0605",
        "limb": "86d20ab3ed5b4072f31899a63f4820593324386f3b8ef17bdc3c0c7122e645a8",
        "k12-limb": "4e2ea8df15813ce2510b52d1a8b8d59bdcfa27a628509442ddec34835f3a78b3",
    },
    True: {
        "client": "d0823ccbba0a9faf2db8f5ecdc922dd59cc7bda72ecf5eec51c92fe23c8f6c7b",
        "limb": "aaa46e37f3f329eccb4af272b531367b1f9fdb40dbb081903e5d5cdb67b2378c",
        "k12-limb": "73a19df0176baed374946ee02ffd27f91fc07d1e614249c6422fc963f7648c76",
    },
}
# RFC 9861, KangarooTwelve(M = "", C = "", 32 bytes).
K12_EMPTY_32 = "1ac2d450fc3b4205d19da7bfca1b37513c0803577ac7167f06fe2ce1f0ef39e5"

# The speed monitor (monitor.py) times a fixed half-millisecond loop every
# 30 ms on the other vCPU for the whole timed loop.  On the shared machine the
# benchmark was written on, the speed flips between two states about 1.7x
# apart, often several times a second, and both vCPUs flip together: the
# monitor's mean over a step follows the step's own wall time with a
# correlation of 0.96 (CLI children of 1.5 to 7 s).  So every timed step is
# also given in reference seconds: wall * MONITOR_NOMINAL_S / the mean of the
# readings that ran beside it.  A mean, because a step's time is linear in the
# share of it spent in the slow state; a median of two-state readings jumps
# from one state to the other.  Readings above MONITOR_OUTLIER x their
# window's median are the monitor being preempted and are left out.
MONITOR_NOMINAL_S = 0.0005
MONITOR_PAD_S = 0.25       # readings this far either side of a step count too
MONITOR_MIN_READINGS = 8   # fewer in the window: take the nearest this many
MONITOR_OUTLIER = 2.5


class Monitor:
    """The speed monitor's process and its readings.

    ``with Monitor(path):`` runs it; the readings are loaded when it stops.
    """

    def __init__(self, path: Path):
        self.path = path
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self) -> "Monitor":
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "monitor.py"),
                                      str(self.path)], stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()
        readings = []
        for line in self.path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                readings.append((float(fields[0]), float(fields[1])))
        readings.sort()
        self.starts = [r[0] for r in readings]
        self.durations = [r[1] for r in readings]
        if len(readings) < MONITOR_MIN_READINGS:
            raise RuntimeError(f"speed monitor gave {len(readings)} readings")

    def scale(self, start: float, wall: float) -> float:
        """Reference seconds per wall second for a step that began at ``start``."""
        lo = bisect.bisect_left(self.starts, start - MONITOR_PAD_S)
        hi = bisect.bisect_right(self.starts, start + wall + MONITOR_PAD_S)
        if hi - lo < MONITOR_MIN_READINGS:
            middle = bisect.bisect_left(self.starts, start + wall / 2)
            lo = max(0, min(middle - MONITOR_MIN_READINGS // 2,
                            len(self.starts) - MONITOR_MIN_READINGS))
            hi = lo + MONITOR_MIN_READINGS
        window = self.durations[lo:hi]
        limit = MONITOR_OUTLIER * statistics.median(window)
        kept = [d for d in window if d <= limit]
        return MONITOR_NOMINAL_S / statistics.fmean(kept)


class Bench:
    """Seeded randomness, the work directory and the environment of children."""

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *inherited]))

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"mrpbench/{stream}/{self.seed}")


@dataclass
class Child:
    code: int
    start: float
    wall: float
    rss_mb: float
    out: str
    err: str
    trace: dict | None = None


def run_child(bench: Bench, argv: list[str]) -> Child:
    """Run one child to completion; peak RSS comes from its own rusage."""
    out_path, err_path = bench.work / "child.out", bench.work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=bench.env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024,
                 out_path.read_text(), err_path.read_text())


def run_cli(bench: Bench, args: list[str], trace: tuple[str, str] | None = None) -> Child:
    """One ``mrpgen`` CLI call in a fresh interpreter.

    ``trace`` is (span prefix, parent operation id); when given, the call
    runs under the tracer and its spans come back in ``Child.trace``.
    """
    cli_args = ["--canonical", "--format", "json", *args]
    if trace is None:
        return run_child(bench, [sys.executable, "-m", "mrpgen.cli", *cli_args])
    spans = bench.work / f"spans-{trace[0]}.json"
    child = run_child(bench, [sys.executable, str(BENCH_DIR / "child.py"), "trace",
                              repr(time.perf_counter()), *trace, str(spans),
                              "--", *cli_args])
    if spans.exists():
        child.trace = json.loads(spans.read_text())
        spans.unlink()
    return child


def setup_once(bench: Bench, params_files: list[Path]) -> dict:
    """A fresh interpreter that imports mrpgen and loads the workload's profiles.

    Returns the child's own timings plus its start and wall time.
    """
    child = run_child(bench, [sys.executable, str(BENCH_DIR / "child.py"), "setup",
                              repr(time.perf_counter()), *map(str, params_files)])
    if child.code != 0:
        raise RuntimeError(f"set-up child exited {child.code}: {child.err[-500:]}")
    return {**json.loads(child.out), "start": child.start, "wall_s": child.wall}


@dataclass(eq=False)
class Op:
    """One operation: its timed steps, checks and, when traced, its spans.

    ``samples`` holds each class's wall times, ``starts`` when each began.
    """

    op_id: str
    traced: bool
    samples: dict[str, list[float]] = field(default_factory=dict)
    starts: dict[str, list[float]] = field(default_factory=dict)
    rss_mb: float = 0.0
    error: str | None = None
    invalid: bool = False
    traces: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, cls: str, start: float, wall: float) -> None:
        self.samples.setdefault(cls, []).append(wall)
        self.starts.setdefault(cls, []).append(start)

    def add_child(self, cls: str, child: Child) -> None:
        self.add(cls, child.start, child.wall)
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if child.trace is not None:
            self.traces.append(child.trace)

    def fail(self, message: str) -> "Op":
        self.samples.clear()
        self.starts.clear()
        self.error = message
        return self


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def words_sha256(coeffs: np.ndarray) -> str:
    return sha256(np.asarray(coeffs, dtype="<u4").tobytes())


def make_params(n_ring: int, seg_len: int, base, backend: str = "shake128") -> GenParams:
    return GenParams(N=n_ring, w=DEFAULT_W, seg_len=seg_len, n_seg=n_ring // seg_len,
                     base=tuple(sorted(base)), backend=backend)


def ntt_moduli(n_ring: int, low: int, count: int) -> tuple[int, ...]:
    """The first ``count`` NTT-friendly primes above ``low``."""
    step = 2 * n_ring
    q = low - low % step + 1 + step
    found = []
    while len(found) < count:
        if primes.is_ntt_friendly(q, n_ring):
            found.append(q)
        q += step
    return tuple(found)


@functools.cache
def catalog_rows(smoke: bool) -> tuple[int, dict[int, tuple[int, ...]]]:
    """Ring dimension and the supported moduli of each segment length."""
    if smoke:
        # Just below 2^32 (p_r < 0.1 %) for len 32, just above 2^31 (p_r
        # near 1/2) for len 4, as in the full rows.
        return SMOKE_N, {32: ntt_moduli(SMOKE_N, (1 << 32) - (1 << 22), SMOKE_ROW),
                         4: ntt_moduli(SMOKE_N, 1 << 31, SMOKE_ROW)}
    filt = primes.CatalogFilter(DEFAULT_N, DEFAULT_W, DEFAULT_HW_NAF_MAX, Fraction(1, 2),
                                DEFAULT_Q_MIN_EXCLUSIVE)
    full = primes.enumerate_supported(filt)
    return DEFAULT_N, {seg_len: full.restrict(Fraction(p_r)).moduli()
                       for p_r, _, _, seg_len, _ in REFERENCE_ROWS}


def check_k12_vector() -> str | None:
    got = keccak.kangaroo_twelve(b"", b"", 32).hex()
    return None if got == K12_EMPTY_32 else f"K12('', 32) = {got}, RFC 9861 gives {K12_EMPTY_32}"


def check_segments(seed: Seed, params: GenParams, limbs: np.ndarray, rng: random.Random,
                   base: tuple[int, ...]) -> str | None:
    """Recompute sampled (q, id_seg) with generate_segment at their layout positions."""
    position = np.argsort(params.layout.mapping)
    for _ in range(SAMPLED_SEGMENTS):
        row = rng.randrange(len(base))
        id_seg = rng.randrange(params.n_seg)
        expected = sampling.generate_segment(seed, base[row], id_seg, params).values
        at = position[id_seg * params.seg_len:(id_seg + 1) * params.seg_len]
        if not np.array_equal(limbs[row][at], expected):
            return f"segment q={base[row]} id_seg={id_seg} differs from generate_segment"
    return None


def read_limbs(data: bytes, params: GenParams) -> np.ndarray:
    """The (L, N) limb section of an MRP container, parsed without mrpgen."""
    base_len = len(params.base)
    expected = [1, params.N, params.w, params.r, params.n_seg, 0, base_len, *params.base, 0]
    if data[:4] != b"MRPB" or \
            np.frombuffer(data, "<u4", count=len(expected), offset=4).tolist() != expected:
        raise ValueError("MRP header does not match the profile")
    offset = 4 + 4 * len(expected)
    if len(data) != offset + 4 * base_len * params.N:
        raise ValueError("MRP file has the wrong length")
    return np.frombuffer(data, "<u4", offset=offset).reshape(base_len, params.N)


class Client:
    """The product path: one default-profile polynomial made and checked by the CLI."""

    name = "client"
    classes = ("retry-gen", "verify")

    def __init__(self, bench: Bench):
        self.bench = bench
        n_ring, rows = catalog_rows(bench.smoke)
        size = SMOKE_L if bench.smoke else BASE_SIZE
        self.params = make_params(n_ring, 32, bench.rng("base").sample(rows[32], size))
        self.params_file = bench.work / "client.params"
        formats.save_params(self.params, self.params_file)
        self.params_files = [self.params_file]

    def request(self, rng: random.Random) -> dict:
        return {"rng_seed": rng.getrandbits(32)}

    def run(self, req: dict, op_id: str, traced: bool) -> Op:
        op = Op(op_id, traced)
        out = self.bench.work / "client.mrp"
        gen = run_cli(self.bench, ["retry-gen", "--params", str(self.params_file),
                                   "--rng-seed", str(req["rng_seed"]), "--out", str(out)],
                      (f"{op_id}g", op_id) if traced else None)
        op.add_child("retry-gen", gen)
        if gen.code != 0:
            return op.fail(f"retry-gen exited {gen.code}: {gen.err[-300:]}")
        result = json.loads(gen.out)["result"]
        ver = run_cli(self.bench, ["verify", "--mrp", str(out), "--seed", result["seed"]],
                      (f"{op_id}v", op_id) if traced else None)
        op.add_child("verify", ver)
        if ver.code != 0 or json.loads(ver.out)["result"]["match"] is not True:
            return op.fail(f"verify exited {ver.code}: {ver.err[-300:]}")
        data = out.read_bytes()
        try:
            limbs = read_limbs(data, self.params)
        except ValueError as exc:
            return op.fail(str(exc))
        digests = {str(q): words_sha256(limbs[i]) for i, q in enumerate(self.params.base)}
        if digests != result["limb_sha256"]:
            return op.fail("limb SHA-256s printed by retry-gen differ from the file")
        seed = Seed.from_hex(result["seed"])
        problem = check_segments(seed, self.params, limbs, self.bench.rng(f"check/{op_id}"),
                                 self.params.base)
        if problem:
            return op.fail(problem)
        op.info = {"seed": seed, "params": self.params, "attempts": result["attempts"],
                   "bytes": len(data)}
        return op

    def first_digests(self) -> dict[str, str]:
        """SHA-256 of the first untraced output of this seed, made in-process."""
        req = self.request(self.bench.rng("requests"))
        source = sampling.seed_source_from_rng(random.Random(req["rng_seed"]))
        result = sampling.client_generate_with_retry(source, self.params, 100)
        limbs = np.stack([result.mrp.limbs[q].coeffs for q in self.params.base])
        return {"client": sha256(limbs.astype("<u4").tobytes())}

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return max(op.rss_mb for op in ops)


class Server:
    """Random-access limb regeneration in one process, two request classes."""

    name = "server"
    classes = ("limb", "k12-limb")

    def __init__(self, bench: Bench):
        self.bench = bench
        n_ring, rows = catalog_rows(bench.smoke)
        size = SMOKE_L if bench.smoke else BASE_SIZE
        rng = bench.rng("base")
        profiles = {"limb": make_params(n_ring, 4, rng.sample(rows[4], size)),
                    "k12-limb": make_params(n_ring, 32, rng.sample(rows[32], size),
                                            backend="kangarootwelve")}
        self.params_files = []
        self.params = {}
        for cls, params in profiles.items():
            path = bench.work / f"server-{cls}.params"
            formats.save_params(params, path)
            self.params_files.append(path)
            self.params[cls] = formats.load_params(path)
        self.invalid_pairs = 0

    def request(self, rng: random.Random) -> dict:
        cls = "k12-limb" if rng.random() < K12_SHARE else "limb"
        return {"class": cls, "seed": Seed(rng.randbytes(36)),
                "q": rng.choice(self.params[cls].base)}

    def run(self, req: dict, op_id: str, traced: bool) -> Op:
        op = Op(op_id, traced)
        cls, seed, q = req["class"], req["seed"], req["q"]
        params = self.params[cls]
        tracer = Tracer(op_id).install() if traced else None
        failure = None
        try:
            start = time.perf_counter()
            limb = sampling.generate_limb(seed, q, params)
            wall = time.perf_counter() - start
        except GenerationFailure as exc:
            failure = exc
        finally:
            if tracer is not None:
                tracer.uninstall()
                op.traces.append(tracer.dump())
        if failure is not None:
            return self._shortfall(op, seed, params, failure)
        thresh = compute_threshold(q, params.w)
        if len(limb.coeffs) != params.N or not bool((limb.coeffs < thresh).all()):
            return op.fail(f"limb q={q} has a word at or above {thresh} or the wrong length")
        problem = check_segments(seed, params, limb.coeffs[None, :],
                                 self.bench.rng(f"check/{op_id}"), (q,))
        if problem:
            return op.fail(problem)
        op.add(cls, start, wall)
        op.info = {"seed": seed, "params": params.with_base([q])}
        return op

    def _shortfall(self, op: Op, seed: Seed, params: GenParams,
                   failure: GenerationFailure) -> Op:
        """A seed a client would have rejected: correct only if the segment is short.

        The paper's server only sees validated seeds, so a genuine shortfall
        is not an operation failure; the pair is counted and dropped.
        """
        data = encode_domain_input(seed, failure.q, failure.id_seg)
        words = split_words(xof_expand(data, params.r, params.backend), params.w)
        accepted = int((words < compute_threshold(failure.q, params.w)).sum())
        if accepted >= params.seg_len:
            return op.fail(f"GenerationFailure at q={failure.q} id_seg={failure.id_seg} "
                           f"but the block has {accepted} acceptable words")
        self.invalid_pairs += 1
        op.invalid = True
        return op

    def first_digests(self) -> dict[str, str]:
        """SHA-256 of the first valid untraced limb of each class of this seed."""
        requests, digests = self.bench.rng("requests"), {}
        while len(digests) < len(self.classes):
            req = self.request(requests)
            if req["class"] in digests:
                continue
            try:
                limb = sampling.generate_limb(req["seed"], req["q"], self.params[req["class"]])
            except GenerationFailure:
                continue
            digests[req["class"]] = words_sha256(limb.coeffs)
        return digests

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Design:
    """Parameter design: catalog statistics and the limb-count fit, by CLI."""

    name = "design"
    classes = ("table1", "fit-table1")

    def __init__(self, bench: Bench):
        self.bench = bench
        self.params_files: list[Path] = []
        # Smoke mode stops the fit at the answer and skips the catalog re-scan.
        self.fit_args = ["--lmax", str(BASE_SIZE), "--no-len4-check"] if bench.smoke else []

    def request(self, rng: random.Random) -> dict:
        return {}

    def run(self, req: dict, op_id: str, traced: bool) -> Op:
        op = Op(op_id, traced)
        # table1 runs twice per fit so that its median rests on as many
        # samples as fit-table1's 7 s allow.
        for step, args in (("t", ["table1"]), ("f", ["fit-table1", *self.fit_args]),
                           ("s", ["table1"])):
            child = run_cli(self.bench, args, (f"{op_id}{step}", op_id) if traced else None)
            op.add_child(args[0], child)
            problem = self._check(args[0], child)
            if problem:
                return op.fail(problem)
        return op

    @staticmethod
    def _check(command: str, child: Child) -> str | None:
        if child.code != 0:
            return f"{command} exited {child.code}: {child.err[-300:]}"
        result = json.loads(child.out)["result"]
        if command == "table1":
            ok = result["all_match"] is True
        else:
            ok = (result["L"] == BASE_SIZE and result["ok"] is True
                  and result.get("len4_check", {"ok": True})["ok"] is True)
        return None if ok else f"{command} result fails its check: {json.dumps(result)[:300]}"

    def first_digests(self) -> dict[str, str]:
        return {}

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return max(op.rss_mb for op in ops)


WORKLOADS = {w.name: w for w in (Client, Server, Design)}


def probe(bench: Bench) -> list[Op]:
    """Traced calls into every layer on the smoke profile.

    Gives each per-layer metric a value on a workload whose own operations do
    not reach that layer; such values are marked with source ``probe``.
    """
    n_ring, rows = catalog_rows(smoke=True)
    moduli = bench.rng("probe-base").sample(rows[32], SMOKE_BASE)
    params = make_params(n_ring, 32, moduli)
    k12 = make_params(n_ring, 32, moduli[:1], backend="kangarootwelve")
    path, mrp_path = bench.work / "probe.params", bench.work / "probe.mrp"
    formats.save_params(params, path)
    ops = [Op("probe", True), Op("probe-k12", True)]
    tracer = Tracer("probe").install()
    try:
        loaded = formats.load_params(path)
        source = sampling.seed_source_from_rng(bench.rng("probe-seed"))
        result = sampling.client_generate_with_retry(source, loaded, 100)
        formats.write_mrp(mrp_path, result.mrp, loaded)
        formats.read_mrp(mrp_path)
        report = formats.verify_mrp_file(mrp_path, result.seed)
        catalog = primes.enumerate_supported(
            primes.CatalogFilter(n_ring, 20, DEFAULT_HW_NAF_MAX, Fraction(1, 2), 1 << 10))
        rows_pub = [(seg_len, p_r) for p_r, _, _, seg_len, _ in REFERENCE_ROWS
                    if Fraction(p_r) < Fraction(1, 2)]
        analytics.fit_limb_count(rows_pub, t=DEFAULT_T, n_ring=DEFAULT_N,
                                 max_fail=DEFAULT_MAX_FAIL,
                                 l_range=(BASE_SIZE - 2, BASE_SIZE + 2))
        analytics.mrp_failure_bound(catalog.worst_p_r(), DEFAULT_T, 4, DEFAULT_N // 4,
                                    BASE_SIZE)
    finally:
        tracer.uninstall()
    ops[0].traces.append(tracer.dump())
    ops[0].info = {"seed": result.seed, "params": params, "attempts": result.attempts,
                   "bytes": mrp_path.stat().st_size}
    if not report.ok:
        ops[0].fail(f"probe verify: {report.detail}")
    cli = run_cli(bench, ["retry-gen", "--params", str(path), "--rng-seed", "1"],
                  ("probe-cli", "probe"))
    ops[0].add_child("retry-gen", cli)
    if cli.code != 0:
        ops[0].fail(f"probe retry-gen exited {cli.code}")
    tracer = Tracer("probe-k12", root="probe").install()
    try:
        sampling.generate_limb(result.seed, k12.base[0], k12)
    finally:
        tracer.uninstall()
    ops[1].traces.append(tracer.dump())
    return ops


def acceptance_stats(seed: Seed, params: GenParams) -> dict:
    """Rejection-scan counters over every (q, id_seg) of one output.

    Recomputed outside the program from the public xof_expand, split_words
    and compute_threshold.  ``accept_tv`` is the total-variation distance
    between the histogram of acceptable words per block and the exact
    Binomial(t, 1 - p_r) mixture over the base.
    """
    t, need = params.t, params.seg_len
    hist = np.zeros(t + 1)
    pmf = np.zeros(t + 1)
    scanned = accepted = short = 0
    min_slack = t
    for q in params.base:
        words = np.stack([
            split_words(xof_expand(encode_domain_input(seed, q, i), params.r, params.backend),
                        params.w)
            for i in range(params.n_seg)])
        ok = words < compute_threshold(q, params.w)
        counts = ok.sum(axis=1)
        complete = counts >= need
        stop = np.argmax(np.cumsum(ok, axis=1) >= need, axis=1) + 1
        scanned += int(np.where(complete, stop, t).sum())
        accepted += int(np.minimum(counts, need).sum())
        short += int((~complete).sum())
        min_slack = min(min_slack, int(counts.min()) - need)
        hist += np.bincount(counts, minlength=t + 1)
        p_r = float(primes.sample_rejection_prob(q, params.w))
        pmf += params.n_seg * np.array([comb(t, k) * (1 - p_r) ** k * p_r ** (t - k)
                                        for k in range(t + 1)])
    tv = 0.5 * float(np.abs(hist / hist.sum() - pmf / pmf.sum()).sum())
    return {"words_scanned": scanned, "words_accepted": accepted,
            "accept_ratio": accepted / scanned, "min_slack": min_slack,
            "short_segments": short, "accept_tv": tv, "blocks": int(hist.sum())}


def _per_call_us(fn, calls: list[tuple], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - start) / len(calls))
    return statistics.median(times) * 1e6


def unit_costs(seed: Seed, params: GenParams) -> dict:
    """Per-call costs timed directly, untraced, on one output's own inputs.

    A tracing wrapper costs about a microsecond, as much as one SHAKE128
    block, so block- and segment-sized calls are timed here instead.
    """
    q = params.base[0]
    ids = range(min(params.n_seg, 2048))
    inputs = [encode_domain_input(seed, q, i) for i in ids]
    nbytes = DEFAULT_R_BITS // 8
    lanes = [int.from_bytes(inputs[0][:8], "little")] * 25
    step = 2 * DEFAULT_N
    candidates = [(k * step + 1,) for k in range((1 << 31) // step, (1 << 31) // step + 2000)]
    return {
        "floor_us": _per_call_us(lambda d: hashlib.shake_128(d).digest(nbytes),
                                 [(d,) for d in inputs]),
        "expand_us": _per_call_us(xof_expand, [(d, DEFAULT_R_BITS, "shake128") for d in inputs]),
        "segment_us": _per_call_us(sampling.generate_segment,
                                   [(seed, q, i, params) for i in ids]),
        "k12_block_us": _per_call_us(xof_expand, [(d, DEFAULT_R_BITS, "kangarootwelve")
                                                  for d in inputs[:16]]),
        "p12_us": _per_call_us(keccak.keccak_p, [(lanes, 12)] * 100),
        "turbo_us": _per_call_us(keccak.turbo_shake128, [(d, 0x07, nbytes) for d in inputs[:16]]),
        "is_prime_us": _per_call_us(primes.is_prime, candidates),
    }
