"""The mrpgen benchmark: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload client --seed 1 --seconds 35 --trace 0

Workloads are ``client``, ``server`` and ``design`` (``all`` runs the three in
turn).  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the run alternates
untraced and traced operations and reports the per-layer metrics.  Every run
writes a result file (``--out``, default ``bench/.work/``) recording the
environment, the sample count and source of each metric and the tracing
overhead; a traced run also writes its spans.  ``--smoke`` swaps in a
256-coefficient profile so every code path runs in seconds.  Every run also
regenerates the outputs pinned at the default seed and checks their digests.  See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_EVERY_S = 10.0      # a set-up child starts a round when this much has passed
LAYERS = ("cli", "xof", "keccak", "sampling", "formats", "primes", "analytics")


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """The highest percentile with at least ten samples beyond it, and its rank."""
    if len(values) < 11:
        return None, None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def samples(ops, cls):
    return [t for op in ops for t in op.samples.get(cls, [])]


def covered(wl, ops) -> bool:
    return any(op.error for op in ops) or all(samples(ops, cls) for cls in wl.classes)


def measure(wl, bench, seconds: float, trace: bool, workloads):
    """Closed loop, one caller; with tracing, untraced and traced ops alternate.

    A fresh-interpreter set-up child starts the first round and every round
    that begins SETUP_EVERY_S or more after the last one, so set-up is timed
    several times, spread over the run.  The loop starts a round only if it
    expects more than half of it to fall within ``seconds``, so a run of
    multi-second operations ends as close to ``seconds`` as its rounds allow.
    """
    requests, traced_requests = bench.rng("requests"), bench.rng("traced")
    untraced, traced, rounds, setup = [], [], [], []
    start = last_setup = time.perf_counter()
    while True:
        begin = time.perf_counter()
        if not setup or begin - last_setup >= SETUP_EVERY_S:
            setup.append(workloads.setup_once(bench, wl.params_files))
            last_setup = time.perf_counter()
        untraced.append(wl.run(wl.request(requests), f"u{len(untraced)}", False))
        if trace:
            traced.append(wl.run(wl.request(traced_requests), f"t{len(traced)}", True))
        end = time.perf_counter()
        rounds.append(end - begin)
        done = covered(wl, untraced) and (not trace or covered(wl, traced))
        if done and end - start + statistics.median(rounds) / 2 > seconds:
            return untraced, traced, setup
        if end - start > 3 * seconds:
            return untraced, traced, setup


def environment(seed: int) -> dict:
    # The ceiling keeps git from taking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "mpmath", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"commit": commit, "python": sys.version.split()[0], **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


class Metrics:
    """Values with unit, sample count and where they came from."""

    def __init__(self, units: dict[str, str]):
        self.units = units
        self.values: dict[str, dict] = {}

    def put(self, name: str, value, n: int, source: str) -> None:
        self.values[name] = {"value": value, "unit": self.units[name], "n": n,
                             "source": source}


def spans(ops, name):
    return [s["end"] - s["start"] for op in ops for dump in op.traces
            for s in dump["spans"] if s["name"] == name]


def call_stats(ops, name):
    count = total = 0
    for op in ops:
        for dump in op.traces:
            stats = dump["calls"].get(name)
            if stats:
                count += stats["count"]
                total += stats["total"]
    return count, total


def enumeration_counts(ops):
    """Candidates tested and moduli admitted by the first catalog enumeration."""
    for op in ops:
        for dump in op.traces:
            first = next((s for s in dump["spans"] if s["name"] == "primes.enumerate_supported"),
                         None)
            if first is None:
                continue
            tested = sum(1 for s in dump["spans"]
                         if s["name"] == "primes.is_prime" and s["parent"] == first["id"])
            tested += sum(a["count"] for a in dump["aggregates"]
                          if a["name"] == "primes.is_prime" and a["parent"] == first["id"])
            return tested, first["size"]
    return None


def layer_metrics(m: Metrics, wl, workloads, setup: list[dict], untraced, traced, probe_ops):
    """Per-layer metrics of a traced run.

    Values come from the workload's traced operations; a layer those
    operations never reach takes its value from the probe (source
    ``probe``).  Counters come from the first traced operation of the main
    class, so a fixed seed repeats them exactly.
    """
    main = wl.classes[0]
    firsts = {cls: next((op for op in traced if cls in op.samples), None) for cls in wl.classes}
    first = firsts[main]
    first_ops = [first] if first else []
    first_of_each = [op for op in dict.fromkeys(firsts.values()) if op]
    shake = [op for op in traced if "k12-limb" not in op.samples and op.samples]
    k12 = [op for op in traced if "k12-limb" in op.samples]
    probe_shake, probe_k12 = probe_ops[:1], probe_ops[1:]
    base = first if first and first.info else probe_ops[0]
    base_source = "traced" if base is first else "probe"

    interp = median([s["interp_s"] for s in setup])
    imported = median([s["import_s"] for s in setup])
    m.put("cli.interp_s", interp, len(setup), "setup")
    m.put("cli.import_s", imported, len(setup), "setup")
    # import ÷ retry-gen wall: the workload's own retry-gen on client, the
    # probe's (smoke profile) elsewhere.
    own = samples(untraced, "retry-gen")
    walls = own or samples(probe_shake, "retry-gen")
    m.put("cli.startup_share", imported / median(walls), len(walls),
          "untraced" if own else "probe")

    def span_metric(name, function, scale, ops, fallback):
        values, source = spans(ops, function), "traced"
        if not values:
            values, source = spans(fallback, function), "probe"
        m.put(name, median(values) * scale, len(values), source)
        return values

    def mean_call(name, function, scale, ops, fallback):
        count, total = call_stats(ops, function)
        source = "traced"
        if not count:
            (count, total), source = call_stats(fallback, function), "probe"
        m.put(name, total / count * scale, count, source)

    blocks, _ = call_stats(first_ops, "xof.xof_expand")
    source = "traced"
    if not blocks:
        (blocks, _), source = call_stats(probe_shake, "xof.xof_expand"), "probe"
    m.put("xof.blocks", blocks, 1, source)

    costs = workloads.unit_costs(base.info["seed"], base.info["params"])
    for name, key in (("xof.expand_us", "expand_us"), ("xof.floor_us", "floor_us"),
                      ("xof.k12_block_us", "k12_block_us"), ("keccak.p12_us", "p12_us"),
                      ("keccak.turbo_us", "turbo_us"), ("sampling.segment_us", "segment_us"),
                      ("primes.is_prime_us", "is_prime_us")):
        m.put(name, costs[key], 5, f"direct-{base_source}")
    m.put("xof.floor_ratio", costs["floor_us"] / costs["segment_us"], 5, "derived")
    m.put("sampling.filter_us", costs["segment_us"] - costs["expand_us"], 5, "derived")

    limbs = span_metric("sampling.limb_ms", "sampling.generate_limb", 1e3, shake, probe_shake)
    limb_tail, pct = tail(limbs)
    m.put("sampling.limb_tail_ms", (limb_tail if pct else max(limbs)) * 1e3, len(limbs),
          f"p{pct:.1f}" if pct else "max")
    span_metric("sampling.k12_limb_ms", "sampling.generate_limb", 1e3, k12, probe_k12)
    span_metric("sampling.permute_ms", "sampling.permute", 1e3, shake, probe_shake)

    stats = workloads.acceptance_stats(base.info["seed"], base.info["params"])
    for key in ("words_scanned", "words_accepted", "accept_ratio", "min_slack",
                "short_segments", "accept_tv"):
        m.put(f"sampling.{key}", stats[key], stats["blocks"], base_source)
    tried = base if "attempts" in base.info else probe_ops[0]
    m.put("sampling.retry_attempts", tried.info["attempts"], 1,
          "traced" if tried is first else "probe")

    span_metric("formats.load_params_ms", "formats.load_params", 1e3, traced, probe_shake)
    span_metric("formats.write_ms", "formats.write_mrp", 1e3, traced, probe_shake)
    reads = span_metric("formats.read_ms", "formats.read_mrp", 1e3, traced, probe_shake)
    span_metric("formats.verify_s", "formats.verify_mrp_file", 1.0, traced, probe_shake)
    sized = base if "bytes" in base.info else probe_ops[0]
    m.put("formats.bytes", sized.info["bytes"], 1, "traced" if sized is first else "probe")
    m.put("formats.read_mb_s", sized.info["bytes"] / 1e6 / median(reads), len(reads), "derived")

    span_metric("primes.enumerate_s", "primes.enumerate_supported", 1.0, traced, probe_shake)
    counts, source = enumeration_counts(first_ops), "traced"
    if counts is None:
        counts, source = enumeration_counts(probe_shake), "probe"
    m.put("primes.candidates", counts[0], 1, source)
    m.put("primes.admitted", counts[1], 1, source)

    span_metric("analytics.fit_s", "analytics.fit_limb_count", 1.0, traced, probe_shake)
    mean_call("analytics.solve_ms", "analytics.solve_p_r_max", 1e3, traced, probe_shake)
    mean_call("analytics.bound_ms", "analytics.mrp_failure_bound", 1e3, traced, probe_shake)

    for layer in LAYERS:
        own = sum(d["layer_self"][layer] for op in first_of_each for d in op.traces)
        source = "traced"
        if not own:
            own = sum(d["layer_self"][layer] for op in probe_ops for d in op.traces)
            source = "probe"
        m.put(f"{layer}.self_s", own, 1, source)

    untraced_main, traced_main = samples(untraced, main), samples(traced, main)
    m.put("trace.overhead_ratio", median(traced_main) / median(untraced_main),
          len(traced_main), "traced/untraced")
    m.put("trace.spans", sum(len(d["spans"]) for op in first_ops for d in op.traces), 1,
          "traced")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out: Path | None, spec: dict) -> dict:
    import workloads

    bench = workloads.Bench(seed, smoke, BENCH_DIR / ".work" / name)
    errors = []
    vector_problem = workloads.check_k12_vector()
    if vector_problem:
        errors.append(vector_problem)
    wl = workloads.WORKLOADS[name](bench)

    with workloads.Monitor(bench.work / "monitor.txt") as monitor:
        untraced, traced, setup = measure(wl, bench, seconds, trace, workloads)
    for s in setup:
        s["ref_s"] = s["wall_s"] * monitor.scale(s["start"], s["wall_s"])
    probe_ops = workloads.probe(bench) if trace else []
    ops = [op for op in untraced + traced + probe_ops if not op.invalid]
    failed = [op for op in ops if op.error]
    errors += [f"{op.op_id}: {op.error}" for op in failed]
    # Outside the timed loop: the default seed's first outputs, made again.
    pinned = workloads.PINNED[smoke]
    at_default = workloads.WORKLOADS[name](
        workloads.Bench(workloads.DEFAULT_SEED, smoke, bench.work / "pinned"))
    digests = at_default.first_digests()
    for key, digest in digests.items():
        if digest != pinned[key]:
            errors.append(f"{key} output at the default seed has SHA-256 {digest}, "
                          f"pinned {pinned[key]}")

    attempted = len(ops)
    first_cls, second_cls = wl.classes
    named = {}
    for cls in wl.classes:
        values = samples(untraced, cls)
        scaled = [wall * monitor.scale(start, wall) for op in untraced
                  for start, wall in zip(op.starts.get(cls, []), op.samples.get(cls, []))]
        value, pct = tail(values)
        scaled_tail, _ = tail(scaled)
        named[cls] = {"median_s": median(values), "n": len(values), "samples_s": values,
                      "tail_s": value, "tail_percentile": pct,
                      "median_ref_s": median(scaled), "tail_ref_s": scaled_tail,
                      "samples_ref_s": scaled}

    if trace:
        m = Metrics({x["name"]: x["unit"] for x in spec["per_layer"]})
        layer_metrics(m, wl, workloads, setup, untraced, traced, probe_ops)
    else:
        m = Metrics({x["name"]: x["unit"] for x in spec["end_to_end"]})
        m.put("setup_s", median([s["ref_s"] for s in setup]), len(setup),
              "set-up children, reference seconds")
        for metric, cls in (("op1_s", first_cls), ("op2_s", second_cls)):
            m.put(metric, named[cls]["median_ref_s"], named[cls]["n"],
                  f"{cls}, reference seconds")
        m.put("peak_rss_mb", wl.peak_rss_mb(untraced), len(untraced), "rusage")
        m.put("ok_ratio", (attempted - len(failed)) / attempted, attempted, "checks")

    result = {
        "workload": name, "trace": int(trace), "smoke": smoke, "seconds": seconds,
        "environment": environment(seed),
        "correct": not errors, "attempted": attempted, "failed": len(failed),
        "fail_ratio": len(failed) / attempted,
        "invalid_pairs": getattr(wl, "invalid_pairs", 0),
        "errors": errors[:20],
        "setup_children": setup, "setup_wall_median_s": median([s["wall_s"] for s in setup]),
        "setup_ref_median_s": median([s["ref_s"] for s in setup]),
        "monitor": {"pid": monitor.proc.pid, "readings": len(monitor.durations),
                    "median_s": median(monitor.durations),
                    "mean_s": statistics.fmean(monitor.durations),
                    "nominal_s": workloads.MONITOR_NOMINAL_S},
        "pinned_digests": digests,
        "operations": named,
        "metrics": m.values,
    }
    if trace:
        result["tracing"] = {
            cls: {"untraced_median_s": median(samples(untraced, cls)),
                  "traced_median_s": median(samples(traced, cls)),
                  "untraced_n": len(samples(untraced, cls)),
                  "traced_n": len(samples(traced, cls))}
            for cls in wl.classes}
        result["layer_self_s"] = {
            op.op_id: {layer: sum(d["layer_self"][layer] for d in op.traces) for layer in LAYERS}
            for op in traced + probe_ops}
        spans_file = bench.work / "spans.json"
        spans_file.write_text(json.dumps([d for op in traced + probe_ops for d in op.traces]))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    path = out or bench.work / f"result-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']}: {result['attempted']} operations, "
          f"{result['failed']} failed, fail_ratio {result['fail_ratio']:.4f}, "
          f"invalid pairs {result['invalid_pairs']}")
    print(f"set-up median {result['setup_wall_median_s']} s wall, "
          f"{result['setup_ref_median_s']} s reference (n={len(result['setup_children'])})")
    for cls, op in result["operations"].items():
        line = (f"{cls} median {op['median_s']} s wall, {op['median_ref_s']} s reference "
                f"(n={op['n']})")
        if op["tail_percentile"]:
            line += (f", p{op['tail_percentile']:.1f} {op['tail_s']} s wall, "
                     f"{op['tail_ref_s']} s reference")
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']} (n={m['n']}, {m['source']})")
    for error in result["errors"]:
        print(f"error: {error}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("client", "server", "design", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="256-coefficient profiles: every code path in seconds")
    parser.add_argument("--out", type=Path, help="result file (JSON)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mrpgen" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mrpgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    names = ("client", "server", "design") if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = args.out if len(names) == 1 else None
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                              out, spec)
        print_result(result)
        prefix = f"{name}." if len(names) > 1 else ""
        line["correct"] = line["correct"] and result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            line["metrics"][prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
