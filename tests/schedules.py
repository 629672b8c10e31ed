"""Schedules the generator's bits must not depend on, for the tests.

``verify_distributed_equivalence`` replays generation as a bank of engines
would: every (q, id_seg) unit goes to a thread pool in a shuffled order and
is computed with ``generate_segment`` alone.  ``forking`` makes
``generate_mrp`` and ``verify_mrp_file`` fork their limb helper at any size.
"""

from __future__ import annotations

import contextlib
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest

from mrpgen import (GenerationFailure, GenParams, ParamsError, Seed, generate_mrp,
                    generate_segment, permute, sampling)


def assemble_segments(seed: Seed, params: GenParams, engine_count: int,
                      rng: random.Random) -> np.ndarray:
    """The (L, N) array put together from per-segment units computed in a
    shuffled order on engine_count threads.

    Raises GenerationFailure for the first short (q, id_seg) in base order.
    """
    items = [(q, id_seg) for q in params.base for id_seg in range(params.n_seg)]
    order = items[:]
    rng.shuffle(order)

    def engine_task(item):
        q, id_seg = item
        return item, generate_segment(seed, q, id_seg, params).values

    with ThreadPoolExecutor(max_workers=engine_count) as pool:
        results = dict(pool.map(engine_task, order))
    for item in items:
        if len(results[item]) < params.seg_len:
            raise GenerationFailure(*item)
    return np.stack([permute(np.concatenate([results[(q, i)] for i in range(params.n_seg)]),
                             params.layout) for q in params.base])


@dataclass
class EquivalenceReport:
    """Outcome of replaying generation across simulated parallel engines."""

    ok: bool
    engine_count: int
    schedules: int
    work_items: int
    mismatches: list = field(default_factory=list)


def verify_distributed_equivalence(seed: Seed, params: GenParams, engine_count: int,
                                   schedules: int = 1,
                                   rng: random.Random | None = None) -> EquivalenceReport:
    """Check that any engine partition reproduces the batched output bit-exactly.

    Each work item (q, id_seg) is handed to a thread pool in a shuffled
    order and computed with generate_segment; workers receive nothing but
    the item and the profile.  The assembled limbs must equal generate_mrp's
    batched word-matrix path, so a pass certifies both that no cross-engine
    information flow is needed and that batched = per-segment.  A mismatch
    is a bug report, never an expected outcome.
    """
    if engine_count < 1:
        raise ParamsError("engine_count must be at least 1")
    rng = rng or random.Random(0)
    batched = generate_mrp(seed, params)
    report = EquivalenceReport(ok=True, engine_count=engine_count, schedules=schedules,
                               work_items=len(params.base) * params.n_seg)
    for schedule in range(schedules):
        assembled = assemble_segments(seed, params, engine_count, rng)
        for q, limb, coeffs in zip(params.base, batched.coeffs, assembled):
            if not np.array_equal(coeffs, limb):
                report.ok = False
                report.mismatches.append({"schedule": schedule, "q": q})
    return report


@contextlib.contextmanager
def forking(monkeypatch: pytest.MonkeyPatch):
    """generate_mrp and verify_mrp_file fork their one helper at any size,
    as on a host with two CPUs.

    Yields the pids os.fork handed out; at exit none may be left unreaped.
    The patches go through `monkeypatch`, so they are undone with it.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
