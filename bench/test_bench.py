"""Tests of the benchmark itself: smoke runs of every workload, counters, exits.

    python3 -m pytest -q bench/test_bench.py

Smoke mode swaps in 256-coefficient profiles, so each run takes seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTERS = ("xof.blocks", "sampling.words_scanned", "sampling.words_accepted",
            "sampling.min_slack", "sampling.short_segments", "sampling.retry_attempts",
            "primes.candidates", "primes.admitted")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_runs: dict = {}


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    key = (workload, trace, seed)
    if key not in _runs:
        _runs[key] = result_line(bench("--workload", workload, "--seed", seed, "--seconds", 1,
                                       "--trace", trace, "--smoke"))
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    line = smoke(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        for name, m in smoke(workload, 0)["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_counters_repeat_for_a_seed_and_change_with_it():
    first = smoke("server", 1)["metrics"]
    again = result_line(bench("--workload", "server", "--seed", 1, "--seconds", 1,
                              "--trace", 1, "--smoke"))["metrics"]
    other = smoke("server", 1, seed=2)["metrics"]
    for name in COUNTERS:
        assert first[name]["value"] == again[name]["value"], name
    assert first["sampling.accept_tv"] == again["sampling.accept_tv"]
    varying = ("sampling.words_scanned", "sampling.min_slack", "sampling.accept_tv")
    assert [first[n]["value"] for n in varying] != [other[n]["value"] for n in varying]
    for metrics in (first, other):
        scanned = metrics["sampling.words_scanned"]["value"]
        accepted = metrics["sampling.words_accepted"]["value"]
        assert 0 < accepted <= scanned
        assert metrics["sampling.accept_ratio"]["value"] == pytest.approx(accepted / scanned)
        assert (metrics["sampling.short_segments"]["value"] == 0) == \
            (metrics["sampling.min_slack"]["value"] >= 0)
        assert 0 <= metrics["sampling.accept_tv"]["value"] <= 1


def test_traced_run_writes_linked_spans():
    smoke("design", 1)
    dumps = json.loads((BENCH_DIR / ".work" / "design" / "spans.json").read_text())
    spans = [s for d in dumps for s in d["spans"]]
    ids = {s["id"] for s in spans}
    layers = {s["layer"] for s in spans}
    assert {"cli", "xof", "keccak", "sampling", "formats", "primes", "analytics"} <= layers
    for s in spans:
        assert s["end"] >= s["start"] and s["self"] <= s["end"] - s["start"] + 1e-9
        assert s["parent"] in ids or re.fullmatch(r"t\d+|probe", s["parent"]), s
    result = json.loads((BENCH_DIR / ".work" / "design" / "result-trace1.json").read_text())
    for cls, row in result["tracing"].items():
        assert row["untraced_median_s"] > 0 and row["traced_median_s"] > 0, cls
    env = result["environment"]
    for key in ("commit", "python", "numpy", "mpmath", "scipy", "nproc", "cpu", "seed"):
        assert key in env


@pytest.mark.parametrize("workload", ["client", "server"])
def test_every_seed_checks_the_pinned_digests(workload, tmp_path):
    out = tmp_path / "result.json"
    line = result_line(bench("--workload", workload, "--seed", 2, "--seconds", 1, "--smoke",
                             "--out", out))
    assert line["correct"] is True
    classes = {"client": {"client"}, "server": {"limb", "k12-limb"}}[workload]
    result = json.loads(out.read_text())
    assert set(result["pinned_digests"]) == classes
    # The speed monitor ran beside the timed loop and was stopped with the run.
    assert result["monitor"]["readings"] >= 8
    with pytest.raises(ProcessLookupError):
        os.kill(result["monitor"]["pid"], 0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "client", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
