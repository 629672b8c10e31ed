"""Schedules the generator's bits must not depend on, for the tests.

``assemble_segments`` replays generation as a bank of engines would: every
(q, id_seg) unit goes to a thread pool in a shuffled order and is computed
with ``generate_segment`` alone, so it is the one place two units run at
once.  ``forking`` makes ``generate_mrp`` and ``verify_mrp_file`` fork their
limb helper at any size.
"""

from __future__ import annotations

import contextlib
import os
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mrpgen import GenerationFailure, GenParams, Seed, generate_segment, permute, sampling


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


@contextlib.contextmanager
def forking(monkeypatch: pytest.MonkeyPatch):
    """generate_mrp and verify_mrp_file fork their one helper at any size,
    as on a host with two CPUs and no cgroup CPU quota.

    Yields the pids os.fork handed out; at exit none may be left unreaped.
    The patches go through `monkeypatch`, so they are undone with it.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sampling, "_cpu_quota", lambda: None)
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
