"""Schedules the generator's bits must not depend on, for the tests.

``assemble_segments`` replays generation as a bank of engines would: every
(q, id_seg) unit goes to a thread pool in a shuffled order and is computed
by ``oracles.segment``, which shares no code with the generator's engine
path, so it is the one place two units run at once.  ``forking`` makes
``generate_mrp`` and ``verify_mrp_file`` fork their limb helper at any
size, and ``dying_helper`` and ``caller_waits_for_helper`` fix which rows its
helper makes.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from mrpgen import GenerationFailure, GenParams, Seed, permute, sampling


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
        return item, oracles.segment(seed, q, id_seg, params)

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


def dying_helper(rows: int):
    """sampling.generate_limb, except that a forked helper SIGKILLs itself
    instead of starting a row after its first `rows`."""
    parent, real = os.getpid(), sampling.generate_limb
    started = []  # appended to only in a helper, so empty at each fork

    def generate_limb(seed, q, p):
        if os.getpid() != parent:
            if len(started) == rows:
                os.kill(os.getpid(), signal.SIGKILL)
            started.append(q)
        return real(seed, q, p)

    return generate_limb


@contextlib.contextmanager
def within(seconds: float):
    """Raise TimeoutError in this process once the block has run `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def caller_waits_for_helper(pids: list[int], made_here: list[int]):
    """sampling.generate_limb, except that this process records the moduli
    it makes in made_here and, before its first row of each call, waits
    (within 30 s, without reaping) until the helper in pids has exited."""
    parent, real = os.getpid(), sampling.generate_limb
    waited = set()

    def generate_limb(seed, q, p):
        if os.getpid() == parent:
            for pid in set(pids) - waited:
                with within(30):
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                waited.add(pid)
            made_here.append(q)
        return real(seed, q, p)

    return generate_limb
