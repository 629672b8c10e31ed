"""Uniform multi-residue polynomial generation by seeded rejection sampling.

A limb (one residue vector of length N) is cut into n_seg segments of
len = N / n_seg coefficients.  Each segment expands one XOF block keyed by
(seed, q, id_seg), splits it into w-bit words, and keeps the first len words
below thresh = floor(2^w / q) * q.  Acceptance keeps exactly floor(2^w / q)
copies of every residue class, so accepted words are uniform mod q without
any bias correction; they are stored unreduced, as a downstream modular
multiplier would receive them.

``generate_segment`` is the engine unit and the reference: it validates
(q, id_seg), encodes the domain input, expands one block and scans it once.
``generate_limb`` computes the same n_seg units at once, as one (n_seg, t)
word matrix filtered row by row, and a polynomial is one (L, N) ``uint32``
array in base order, the same as the limb section of an MRP file.

Because a segment is a pure function of (seed, q, id_seg) plus the profile,
any schedule over any number of engines reproduces the serial client output
bit for bit; the client validates a seed once (retrying on the rare
shortfall) and the server can then regenerate any limb at random access
without ever stalling.  The library's own schedule is one such schedule:
``generate_mrp`` and ``formats.verify_mrp_file`` run the serial limb loop,
and for a large polynomial one forked helper runs it from the other end
and only saves it work (``_each_limb``).  The test suite checks the result
against per-segment assembly in shuffled orders (``tests/schedules.py``).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

import numpy as np

from .errors import GenerationFailure, ParamsError, RetryExhausted
from .primes import is_ntt_friendly
from .profiles import DEFAULT_R_BITS, MAX_N_SEG
from .xof import (BACKENDS, SEED_BYTES, Seed, encode_domain_input, encode_domain_inputs,
                  split_words, xof_expand, xof_expand_many)

if TYPE_CHECKING:
    import random


class Permutation:
    """A bijective coefficient layout for one ring dimension.

    Hardware lane ordering rarely matches the logical coefficient order;
    output position i takes the generated coefficient mapping[i].  ``kind``
    names the mapping: "identity", "reverse" (i to N-1-i) or "explicit".
    """

    def __init__(self, mapping: Iterable[int]):
        values = mapping if isinstance(mapping, np.ndarray) else list(mapping)
        try:
            arr = np.asarray(values, dtype=np.int64)
        except OverflowError:  # an index of 2^63 or more does not fit an int64
            raise ParamsError("permutation mapping is not a bijection on 0..N-1") from None
        # after the cast, so an index past int64 stays a bijection error
        if arr.size and np.asarray(values).dtype.kind not in "iu":
            raise ParamsError("permutation indices must be integers")
        ramp = np.arange(len(arr))
        if not np.array_equal(np.sort(arr), ramp):
            raise ParamsError("permutation mapping is not a bijection on 0..N-1")
        arr.setflags(write=False)
        self.mapping = arr
        self.kind = ("identity" if np.array_equal(arr, ramp) else
                     "reverse" if np.array_equal(arr, ramp[::-1]) else "explicit")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(np.arange(n)[::-1].copy())

    def __len__(self):
        return len(self.mapping)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.mapping, other.mapping)

    def __repr__(self):
        return f"Permutation(n={len(self)}, kind={self.kind!r})"


def permute(coeffs: np.ndarray, p: Permutation) -> np.ndarray:
    """Rearrange coefficients: out[i] = coeffs[p.mapping[i]].

    The identity layout returns the coefficients as they are, without a copy.
    """
    if len(coeffs) != len(p):
        raise ParamsError(f"permutation length {len(p)} != coefficient count {len(coeffs)}")
    if p.kind == "identity":
        return np.asarray(coeffs)
    return np.asarray(coeffs)[p.mapping]


@dataclass(frozen=True)
class GenParams:
    """One generation profile, shared verbatim by client and server.

    seg_len * n_seg must equal N, every base modulus must be transform
    friendly for N, and a segment must fit in one XOF block
    (seg_len <= t = r / w).  r, the block's 1344 bits, is a class constant.
    """

    N: int
    w: int
    seg_len: int
    n_seg: int
    base: tuple[int, ...]
    layout: Permutation | None = None
    backend: str = "shake128"
    r: ClassVar[int] = DEFAULT_R_BITS

    def __post_init__(self):
        if self.N <= 0 or self.N & (self.N - 1):
            raise ParamsError("N must be a power of two")
        if self.w not in (8, 16, 32):
            raise ParamsError("word size must be 8, 16, or 32 bits")
        if self.seg_len < 1 or self.seg_len > self.t:
            raise ParamsError(f"seg_len must be in 1..{self.t} (one XOF block)")
        if self.n_seg < 1 or self.n_seg > MAX_N_SEG:
            raise ParamsError("n_seg must be in 1..65536 (16-bit segment ids)")
        if self.seg_len * self.n_seg != self.N:
            raise ParamsError(f"seg_len * n_seg = {self.seg_len * self.n_seg} != N = {self.N}")
        if not self.base:
            raise ParamsError("base must contain at least one modulus")
        if len(set(self.base)) != len(self.base):
            raise ParamsError("base moduli must be distinct")
        object.__setattr__(self, "base", tuple(int(q) for q in self.base))
        for q in self.base:
            if not 1 < q < 1 << self.w:
                raise ParamsError(f"modulus {q} does not fit the {self.w}-bit word")
            if not is_ntt_friendly(q, self.N):
                raise ParamsError(f"modulus {q} is not NTT-friendly for N={self.N}")
        if self.backend not in BACKENDS:
            raise ParamsError(f"unknown XOF backend '{self.backend}'")
        if self.layout is None:
            object.__setattr__(self, "layout", Permutation.identity(self.N))
        elif len(self.layout) != self.N:
            raise ParamsError("layout permutation length != N")

    @property
    def t(self) -> int:
        """Candidate words per XOF block."""
        return self.r // self.w

    def with_base(self, base: Iterable[int]) -> "GenParams":
        return replace(self, base=tuple(base))


# Segment and Limb stay only because bench/workloads.py reads .values and .coeffs
@dataclass(eq=False)
class Segment:
    """Accepted words for one (q, id_seg) unit, in scan order, unreduced.

    May be shorter than the requested length when the block ran out of
    acceptable words; shortness is data, the caller decides whether it is
    an error.
    """

    values: np.ndarray


@dataclass(eq=False)
class Limb:
    """One full residue vector: N accepted words for a single modulus."""

    coeffs: np.ndarray


@dataclass(eq=False)
class MultiResiduePolynomial:
    """One polynomial: an (L, N) ``uint32`` array, row i the limb of base[i].

    The array is the MRP file's limb section as it sits in memory, so the
    file path writes and reads it without a per-limb copy.
    """

    base: tuple[int, ...]
    coeffs: np.ndarray

    @property
    def limbs(self) -> dict[int, Limb]:
        """The rows as Limb views keyed by modulus (a fresh dict per call)."""
        return {q: Limb(coeffs=row) for q, row in zip(self.base, self.coeffs)}


def compute_threshold(q: int, w: int) -> int:
    """Acceptance bound floor(2^w / q) * q.

    [0, thresh) holds exactly floor(2^w / q) complete copies of [0, q),
    so accepting below it is bias-free.
    """
    if not 1 < q < 1 << w:
        raise ParamsError(f"q must satisfy 1 < q < 2^{w}")
    return ((1 << w) // q) * q


def generate_segment(seed: Seed, q: int, id_seg: int, params: GenParams) -> Segment:
    """The exact unit one distributed engine computes.

    Expands the one XOF block keyed by (seed, q, id_seg) and scans its
    t = floor(r/w) words in index order, keeping words below thresh(q, w)
    until seg_len are collected; never expands a second block.  Depends only
    on (seed, q, id_seg) and the profile scalars; the rest of the base, other
    segments, and scheduling cannot influence its bits.
    """
    if q not in params.base:
        raise ParamsError(f"q={q} is not in the profile base")
    if not 0 <= id_seg < params.n_seg:
        raise ParamsError(f"id_seg {id_seg} out of range for n_seg={params.n_seg}")
    block = xof_expand(encode_domain_input(seed, q, id_seg), backend=params.backend)
    words = split_words(block, params.w)
    accepted = words[words < compute_threshold(q, params.w)]
    return Segment(values=accepted[:params.seg_len].astype(np.uint32))


def generate_limb(seed: Seed, q: int, params: GenParams) -> Limb:
    """All n_seg segments for q as one word matrix, then the layout permutation.

    The n_seg inputs are one (n_seg, 42) byte matrix, row id_seg the input
    generate_segment would encode, and its blocks come from one batched XOF
    call; the matrix is not kept once hashed.  Row id_seg of the (n_seg, t)
    word matrix is the block generate_segment would expand; a running
    count of accepted words per row keeps each row's first seg_len
    acceptances, so the result equals concatenating the segments.
    Raises GenerationFailure naming the first short (q, id_seg).
    """
    if q not in params.base:
        raise ParamsError(f"q={q} is not in the profile base")
    blocks = xof_expand_many(encode_domain_inputs(seed, q, params.n_seg), params.backend)
    words = split_words(blocks, params.w).reshape(params.n_seg, params.t)
    keep = words < compute_threshold(q, params.w)
    # t <= 168 (r = 1344, w >= 8), so a uint8 running count cannot wrap
    rank = np.cumsum(keep, axis=1, dtype=np.uint8)
    keep &= rank <= params.seg_len
    coeffs = words[keep]
    if len(coeffs) < params.N:
        short = rank[:, -1] < params.seg_len
        raise GenerationFailure(q, int(np.argmax(short)))
    return Limb(coeffs=permute(coeffs.astype(np.uint32, copy=False), params.layout))


# A forked helper made CLI gen-mrp and verify faster in most interleaved
# pairs from 3 * 2^14 blocks (L * n_seg) up, on two cores with N = 2^16; at
# 2^14 and 2^15 blocks it won about half the pairs: the fork, the
# copy-on-write faults and the shared pages cost about what the hashing it
# saves is worth.
MIN_FORK_BLOCKS = 3 << 14


def _shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous mapping, which is MAP_SHARED, so it
    stays one array across os.fork."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _may_fork(params: GenParams) -> bool:
    # threading.active_count() sees Python threads only.  After import numpy
    # the OpenBLAS pool is a second OS thread, and a child that called into
    # BLAS could deadlock on its locks; forking past it is safe because the
    # forked path calls no BLAS routine (tests/test_sampling.py pins that).
    if not all(hasattr(mod, name) for mod, name in
               ((os, "fork"), (os, "sched_getaffinity"), (signal, "pthread_sigmask"))):
        return False
    if threading.active_count() > 1 or len(params.base) * params.n_seg < MIN_FORK_BLOCKS:
        return False
    return len(os.sched_getaffinity(0)) > 1 and len(params.base) > 1


def _wait(pid: int) -> int | None:
    """The child's exit code, negative for a signal; None if it is not ours to reap."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return None


def _each_limb(seed: Seed, params: GenParams, row_fn: Callable[[int, np.ndarray], object],
               shape: tuple[int, ...], dtype) -> np.ndarray:
    """The (L, *shape) array whose row i is row_fn(i, coeffs of limb base[i]).

    The worker rule of generate_mrp and formats.verify_mrp_file: this
    process runs the serial loop in base order and raises its first error.
    Rows are pure functions of (seed, q), so one helper, forked from this
    process when _may_fork allows, runs the same loop from the last row down
    and may only save it work; a row both sides make has the same bits.
    Both sides make a row with make(row), which stores the row and then sets
    its bit in a shared per-row record: one bit, stored or not.  A row that
    raises, a short one included, stays unmarked, so this process makes
    every row the helper did not store and raises that row's error itself,
    as the serial loop would; a short row the helper met costs one limb
    more.  The helper stops at its first error, at any row already marked,
    and before any row once this process is no longer its parent: a caller
    killed without unwinding (SIGKILL, SIGTERM) leaves it at most the row in
    hand.  The helper leaves through os._exit, never into the caller; this
    process SIGKILLs and reaps it, without waiting on it, before it returns
    or raises.
    """
    rows = len(params.base)
    out = _shared_array((rows, *shape), dtype)
    made = _shared_array((rows,), np.bool_)

    def make(row: int) -> None:
        out[row] = row_fn(row, generate_limb(seed, params.base[row], params).coeffs)
        made[row] = True

    caller = os.getpid()
    helper = 0
    try:
        if _may_fork(params):
            # SIGINT is held from before the fork until the helper is inside
            # its os._exit guard and this process has its pid, so a Ctrl-C
            # can neither unwind the helper into the caller nor orphan it.
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                helper = os.fork()
                if helper == 0:
                    code = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, held)
                        for row in range(rows - 1, -1, -1):
                            if made[row] or os.getppid() != caller:
                                break
                            make(row)
                        code = 0
                    finally:
                        os._exit(code)
            except OSError:
                pass  # no helper: this process makes every row
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        for row in range(rows):
            if not made[row]:
                make(row)
    finally:
        if helper:
            with contextlib.suppress(ProcessLookupError):
                os.kill(helper, signal.SIGKILL)
            _wait(helper)
    return out


def generate_mrp(seed: Seed, params: GenParams) -> MultiResiduePolynomial:
    """Generate one limb per base modulus; fails if any segment is short.

    The (L, N) array is _each_limb's shared output, so the rows a helper
    makes are not pickled or copied back.  A row's one bit is set only once
    it is stored, so a short row is never marked: this process makes it
    itself and raises its GenerationFailure.  The bits, and that failure for
    the first short row in base order, are the serial loop's.
    """
    coeffs = _each_limb(seed, params, lambda row, limb: limb, (params.N,), np.uint32)
    return MultiResiduePolynomial(base=params.base, coeffs=coeffs)


def seed_source_from_rng(rng: random.Random) -> Callable[[], Seed]:
    """Fresh independent 288-bit seeds from an explicitly seeded generator."""
    return lambda: Seed(rng.randbytes(SEED_BYTES))


@dataclass
class RetryResult:
    seed: Seed
    mrp: MultiResiduePolynomial
    attempts: int


def client_generate_with_retry(seed_source: Callable[[], Seed], params: GenParams,
                               max_attempts: int) -> RetryResult:
    """Draw seeds until generation succeeds; the winner is a validated seed.

    Every retry uses a fresh independent draw, so the surviving seed space
    is exactly the validated fraction of the full 288-bit space.
    """
    if max_attempts < 1:
        raise ParamsError("max_attempts must be at least 1")
    last = None
    for attempt in range(1, max_attempts + 1):
        seed = seed_source()
        try:
            return RetryResult(seed=seed, mrp=generate_mrp(seed, params), attempts=attempt)
        except GenerationFailure as failure:
            last = failure
    raise RetryExhausted(max_attempts, last)
