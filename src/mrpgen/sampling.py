"""Uniform multi-residue polynomial generation by seeded rejection sampling.

A limb (one residue vector of length N) is cut into n_seg segments of
len = N / n_seg coefficients.  Each segment expands one XOF block keyed by
(seed, q, id_seg), splits it into w-bit words, and keeps the first len words
below thresh = floor(2^w / q) * q.  Acceptance keeps exactly floor(2^w / q)
copies of every residue class, so accepted words are uniform mod q without
any bias correction; they are stored unreduced, as a downstream modular
multiplier would receive them.

There is one engine path, ``_scan``: it expands the first k words of the
blocks of a batch of segments, one row each, and filters the word matrix
column by column.  A row's first seg_len words are kept as they are, and
only the later columns consult the running acceptance count.
``_limb_rows`` scans a range of one modulus's rows, and ``generate_limb``
all n_seg of them.  It squeezes only the first k words of each block, k
the fewest for which a short row in the limb has probability below
PREFIX_MISS (the XOFs are prefix-consistent, so these are the block's own
first words); rows with one still short are scanned again over whole
blocks, and a row short there is the limb's failure.
``generate_segment``, the unit one distributed engine computes, is one row
scanned over its whole block, and a short segment stays data there.  A
polynomial is one (L, N) ``uint32`` array in base order, the same as the
limb section of an MRP file.

Because a segment is a pure function of (seed, q, id_seg) plus the profile,
any schedule over any number of engines reproduces the serial client output
bit for bit; the client validates a seed once (retrying on the rare
shortfall) and the server can then regenerate any limb at random access
without ever stalling.  The library's own schedules are two such
schedules.  ``generate_mrp`` and ``formats.verify_mrp_file`` run the serial
limb loop, and for a large polynomial one forked helper runs it from the
other end and only saves it work (``_each_limb``).  ``generate_limb``, the
server's random access, splits a limb of MIN_SPLIT_ROWS rows or more: this
process scans rows [0, n_seg / 2) while a row helper, forked at the first
such call and reused until this process exits, scans the rest
(``_split_rows``).  That pays only for a caller that makes many limbs,
one at a time, from one Python thread, with the second CPU otherwise idle,
and a split that does not pay backs off (``_pace``).  ``_each_limb``'s rows
(it holds the row helper's lock) and the CLI's one limb (``_serial_limb``)
are made unsplit.  Either helper is forked only where both the CPU
affinity and any cgroup CPU quota give two CPUs (``_may_fork``).  The test
suite checks the result against an independent per-segment reference
assembled in shuffled orders (``tests/schedules.py``).
"""

from __future__ import annotations

import atexit
import contextlib
import math
import mmap
import os
import select
import signal
import struct
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .errors import GenerationFailure, ParamsError, RetryExhausted
from .primes import is_ntt_friendly
from .profiles import DEFAULT_R_BITS, MAX_N_SEG
from .xof import BACKENDS, SEED_BYTES, Seed, encode_domain_inputs, split_words, xof_expand_many

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


# Segment and Limb stay only because bench/workloads.py reads .values and .coeffs;
# xof.encode_domain_input and xof.xof_expand stay, as one-row views, because it calls them
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
    """The exact unit one distributed engine computes: one row of _scan.

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
    inputs = encode_domain_inputs(seed, q, range(id_seg, id_seg + 1))
    words, keep, _ = _scan(inputs, compute_threshold(q, params.w), params.t, params)
    return Segment(values=words[keep.T].astype(np.uint32, copy=False))


# A limb squeezes k < t words per block only while a short row in it, which
# makes it again over whole blocks, has a probability below this.
PREFIX_MISS = 1e-3


def _prefix_words(q: int, w: int, seg_len: int, n_seg: int) -> int:
    """The fewest words k <= t with n_seg * P[Binomial(k, 1 - p_r) < seg_len] < PREFIX_MISS.

    p_r = (2^w mod q) / 2^w.  The tail at k = seg_len is 1 - a^seg_len with
    a = 1 - p_r, and one more word removes the chance that the first k held
    exactly seg_len - 1 acceptances and the new word is one:
    tail(k + 1) = tail(k) - C(k, seg_len - 1) a^seg_len p_r^(k - seg_len + 1).
    Each limb computes it afresh: at most t - seg_len steps, microseconds
    against the milliseconds of the limb.
    """
    t = DEFAULT_R_BITS // w
    p = ((1 << w) % q) / (1 << w)
    a = 1 - p
    k, tail = seg_len, 1 - a ** seg_len
    while k < t and n_seg * tail >= PREFIX_MISS:
        tail -= math.comb(k, seg_len - 1) * a ** seg_len * p ** (k - seg_len + 1)
        k += 1
    return k


def _scan(inputs: np.ndarray, thresh: int, k: int,
          params: GenParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, keep, count) over the first k words of each input row's block.

    words is the (rows, k) matrix, keep the transposed (k, rows) mask of
    the words a row keeps, and count each row's acceptances, at most seg_len.
    Fewer than seg_len words precede the first seg_len columns, so those are
    kept wherever they are below the threshold; each later column keeps a
    word only where its row is still short.
    """
    blocks = xof_expand_many(inputs, params.backend, out_len=k * params.w // 8)
    words = split_words(blocks, params.w).reshape(len(inputs), k)
    keep = np.less(words.T, thresh, order="C")
    # t <= 168 (r = 1344, w >= 8), so a uint8 count cannot wrap
    count = keep[:params.seg_len].sum(axis=0, dtype=np.uint8)
    for col in keep[params.seg_len:]:
        col &= count < params.seg_len
        count += col
    return words, keep, count


def _limb_rows(seed: Seed, q: int, ids: range, params: GenParams) -> np.ndarray | int:
    """The accepted words of q's segments ids, in order, or the first short
    id_seg among them.

    The inputs of ids are one (len(ids), 42) byte matrix, and _scan
    squeezes the first k = _prefix_words(...) words of each row's block in
    one batched XOF call; the matrix is not kept once hashed.  If a row is
    short within k < t words, the rows are scanned again over whole blocks,
    as rarely as PREFIX_MISS allows.  Keeping each row's first seg_len
    acceptances gives the concatenated segments.
    """
    inputs = encode_domain_inputs(seed, q, ids)
    thresh = compute_threshold(q, params.w)
    k = _prefix_words(q, params.w, params.seg_len, params.n_seg)
    words, keep, count = _scan(inputs, thresh, k, params)
    if k < params.t and count.min() < params.seg_len:
        words, keep, count = _scan(inputs, thresh, params.t, params)
    short = count < params.seg_len
    if short.any():
        return ids.start + int(np.argmax(short))
    return words[keep.T]


def generate_limb(seed: Seed, q: int, params: GenParams) -> Limb:
    """All n_seg segments for q as one word matrix, then the layout permutation.

    Row id_seg of the word matrix starts segment id_seg's block (_limb_rows).
    A limb of MIN_SPLIT_ROWS rows or more is made by two processes where
    _may_fork allows: this one scans rows [0, h) while the row helper,
    forked at the first such call and then reused, scans rows [h, n_seg),
    h = n_seg // 2 (_split_rows).  The split pays for a caller that makes
    many limbs, one at a time, from one Python thread, on a host whose
    second CPU is otherwise idle: the first call pays the fork, and a busy
    second CPU slows the split past the unsplit limb.  So after two splits
    in a row that did not pay (SPLIT_PAYS), the next calls are unsplit, 1,
    3, 7 and up to _SKIP_MAX of them while splits keep not paying (_pace).
    A process that runs a second Python thread never forks the helper;
    once forked, one caller at a time uses it (_helper_lock), and a call
    made while another holds it scans the whole limb here.  Rows are pure
    functions of (seed, q, id_seg), so the bits, and the error a caller
    sees, are the same either way.  Raises GenerationFailure naming the
    first short (q, id_seg) of whole blocks.
    """
    n, h = params.n_seg, _helper_row(params.n_seg)
    if h < n and q in params.base and _helper_lock.acquire(blocking=False):
        try:
            if _split_due():
                return _as_limb(q, _split_rows(seed, q, h, params), params)
        finally:
            _helper_lock.release()
    return _serial_limb(seed, q, params)


def _serial_limb(seed: Seed, q: int, params: GenParams) -> Limb:
    """generate_limb made in this process alone, as CLI gen-limb makes its
    one limb, which cannot pay for the row helper's fork."""
    if q not in params.base:
        raise ParamsError(f"q={q} is not in the profile base")
    return _as_limb(q, _limb_rows(seed, q, range(params.n_seg), params), params)


def _as_limb(q: int, rows: np.ndarray | int, params: GenParams) -> Limb:
    """The layout of _limb_rows' words, or GenerationFailure for its short id_seg."""
    if isinstance(rows, int):
        raise GenerationFailure(q, rows)
    return Limb(coeffs=permute(rows.astype(np.uint32, copy=False), params.layout))


# A forked helper made CLI gen-mrp and verify faster in most interleaved
# pairs from 3 * 2^14 blocks (L * n_seg) up, on two cores with N = 2^16; at
# 2^14 and 2^15 blocks it won about half the pairs: the fork, the
# copy-on-write faults and the shared pages cost about what the hashing it
# saves is worth.
MIN_FORK_BLOCKS = 3 << 14

# A limb of at least this many segment rows is split with the row helper.
# In interleaved in-process pairs on two cores, split against unsplit, 2048
# rows won 81-95 of 100 pairs in five of six sets (SHAKE128 len 4 and 32,
# KangarooTwelve len 32; 54 in the sixth), and 1024 rows 52-100: below that
# the round trip to the helper costs about what the second core saves.
MIN_SPLIT_ROWS = 1 << 11

# A split limb pays while it takes at most this share of the time an unsplit
# one would.  Split limbs on the benchmark's server profiles, two cores,
# measured wall / (2 * this process's half's CPU time): medians 0.51-0.59
# with the second CPU idle, where on a noisy host a quarter of the SHAKE128
# len-4 splits read above 0.75 and a tenth above 0.9, and 0.93-1.08 with
# one busy process beside them, where the unsplit limb was faster in 69-97
# of 100 pairs.  After splits that did not pay, at most _SKIP_MAX calls are
# unsplit before the next one tries again.
SPLIT_PAYS = 0.9
_SKIP_MAX = 63

# How often an idle row helper checks that its creator is still its parent.
_HELPER_POLL_MS = 500


def _helper_row(n_seg: int) -> int:
    """The first row the row helper scans: n_seg // 2 for a limb of
    MIN_SPLIT_ROWS (at least 2) rows or more, else n_seg (no split)."""
    return n_seg // 2 if n_seg >= MIN_SPLIT_ROWS else n_seg


# A request: seed, q, h, w, seg_len, n_seg, backend.  A reply: the first short
# id_seg or -1, then the byte count of the accepted words that follow it.
_REQUEST = struct.Struct("<36sIIIII16s")
_REPLY = struct.Struct("<qQ")


class _RowHelper(NamedTuple):
    """A forked row helper: its pid, this process's ends of its request and
    reply pipes, and the pid of the process that forked it."""

    pid: int
    requests: int
    replies: int
    owner: int


_helper: _RowHelper | None = None
_helper_lock = threading.Lock()  # one caller at a time; another one does not split
_skip = 0                        # calls left to make unsplit after splits that did not pay
_backoff = 0                     # the next such run's length; 0 after a split that paid


def _split_rows(seed: Seed, q: int, h: int, params: GenParams) -> np.ndarray | int:
    """_limb_rows over all n_seg rows, with rows [h, n_seg) scanned by the
    row helper where there is one.

    This process joins the two halves, and a short row in its own half
    comes first, as in the serial scan.  An exception, EOF or interrupt
    between the request and the whole reply discards the helper, so its
    pipes never go out of sync; after EOF this process scans the helper's
    rows itself.  A whole reply is timed for _pace.
    """
    n = params.n_seg
    helper = _row_helper()
    try:
        start = time.perf_counter()
        asked = helper is not None and _ask(helper, seed, q, h, params)
        cpu = time.thread_time()
        mine = _limb_rows(seed, q, range(h if asked else n), params)
        cpu = time.thread_time() - cpu
        theirs = _answer(helper) if asked else None
    except BaseException:
        _stop_helper()
        raise
    if not asked:
        return mine
    if theirs is None:
        _stop_helper()
        theirs = _limb_rows(seed, q, range(h, n), params)
    else:
        _pace(time.perf_counter() - start, cpu)
    if isinstance(mine, int):
        return mine
    if isinstance(theirs, int):
        return theirs
    return np.concatenate([mine, np.frombuffer(theirs, dtype=mine.dtype)])


def _split_due() -> bool:
    """Whether this call splits: not while a run of unsplit calls that
    _pace set is left."""
    global _skip
    if _skip:
        _skip -= 1
        return False
    return True


def _pace(wall: float, cpu: float) -> None:
    """After a split limb that took wall seconds, this process's half cpu
    seconds of its own CPU time: an unsplit limb would take about 2 * cpu,
    so a split above SPLIT_PAYS of that did not pay.  The first such split
    only arms the back-off, since one slow call on a shared host is noise;
    each next one in a row makes the next 1, 3, 7, ... calls, at most
    _SKIP_MAX, unsplit.  A split that paid ends the back-off."""
    global _skip, _backoff
    if wall > SPLIT_PAYS * 2 * cpu:
        _skip, _backoff = _backoff, min(2 * _backoff + 1, _SKIP_MAX)
    else:
        _backoff = 0


def _ask(helper: _RowHelper, seed: Seed, q: int, h: int, params: GenParams) -> bool:
    """Send the helper rows [h, n_seg) of q's limb; False, with the helper
    stopped, if it has gone since it was checked."""
    request = _REQUEST.pack(seed.data, q, h, params.w, params.seg_len, params.n_seg,
                            params.backend.encode())
    try:
        _write_all(helper.requests, request)
    except OSError:
        _stop_helper()
        return False
    return True


def _answer(helper: _RowHelper) -> bytearray | int | None:
    """The helper's reply: its rows' accepted words as bytes, or its first
    short id_seg; None if its reply pipe ends first."""
    head = bytearray(_REPLY.size)
    if not _read_into(helper.replies, head):
        return None
    short, size = _REPLY.unpack(head)
    if short >= 0:
        return short
    words = bytearray(size)
    return words if _read_into(helper.replies, words) else None


def _read_into(fd: int, buf) -> bool:
    """Fill buf from fd; False if fd reaches EOF first."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _row_helper() -> _RowHelper | None:
    """This process's row helper, forked now if there is none and _may_fork
    allows; None if there is none.

    A helper inherited through os.fork is never used (_own_helper).  A
    helper whose request pipe has no reader left is stopped before a request
    is written, so a caller that lets SIGPIPE end it is not ended by a dead
    helper.
    """
    if _own_helper() is not None:
        gone = select.poll()
        gone.register(_helper.requests, 0)  # POLLERR once no reader is left
        if gone.poll(0):
            _stop_helper()
    if _helper is None and _may_fork():
        _start_helper()
    return _helper


def _own_helper() -> _RowHelper | None:
    """This process's row helper, if it has one.  A helper inherited through
    os.fork is its owner's: this process closes its copies of that helper's
    pipe ends and forgets it."""
    global _helper
    if _helper is not None and _helper.owner != os.getpid():
        os.close(_helper.requests)
        os.close(_helper.replies)
        _helper = None
    return _helper


def _start_helper() -> None:
    """Fork the row helper (_serve_rows) and record it in _helper while
    SIGINT is still held; _helper stays None if os.fork fails."""
    global _helper
    creator = os.getpid()
    requests, replies = os.pipe(), os.pipe()

    def serve() -> None:
        # The helper outlives the call that forks it, so it keeps no other
        # descriptor of this process's: a socket it held would send its peer
        # no EOF at close, and a lock on an open file would never be released.
        low, high = sorted((requests[0], replies[1]))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        _serve_rows(requests[0], replies[1], creator)

    try:
        with _forked(serve, ignore_sigint=True) as pid:
            if pid:
                _helper = _RowHelper(pid, requests[1], replies[0], creator)
    finally:
        os.close(requests[0])
        os.close(replies[1])
        if _helper is None:
            os.close(requests[1])
            os.close(replies[0])


def _serve_rows(requests: int, replies: int, creator: int) -> None:
    """The row helper's loop: each request names rows [h, n_seg) of one
    limb, and the reply is their accepted words or their first short id_seg.

    It returns at EOF of the request pipe, which comes once no process holds
    its write end, so once its creator is gone, even after a SIGKILL; and,
    checked every _HELPER_POLL_MS while idle, once creator is no longer its
    parent.  An error ends it, through _forked's os._exit guard.  A request
    carries the profile's scalars, and the helper keeps the GenParams it
    built for each profile, so a request costs it a with_base.
    """
    request = bytearray(_REQUEST.size)
    profiles: dict[tuple, GenParams] = {}
    idle = select.poll()
    idle.register(requests, select.POLLIN)
    while os.getppid() == creator:
        if not idle.poll(_HELPER_POLL_MS):
            continue
        if not _read_into(requests, request):
            return
        seed, q, h, w, seg_len, n_seg, backend = _REQUEST.unpack(request)
        key = (w, seg_len, n_seg, backend.rstrip(b"\0").decode())
        if key not in profiles:
            profiles[key] = GenParams(N=seg_len * n_seg, w=w, seg_len=seg_len, n_seg=n_seg,
                                      base=(q,), backend=key[3])
        rows = _limb_rows(Seed(seed), q, range(h, n_seg), profiles[key].with_base([q]))
        if isinstance(rows, int):
            _write_all(replies, _REPLY.pack(rows, 0))
        else:
            _write_all(replies, _REPLY.pack(-1, rows.nbytes))
            _write_all(replies, rows)


def _stop_helper() -> None:
    """SIGKILL and reap this process's row helper, if it has one, and close
    its pipe ends; one inherited through os.fork is only forgotten
    (_own_helper).  Run at exit."""
    global _helper
    helper, _helper = _own_helper(), None
    if helper is None:
        return
    os.close(helper.requests)
    os.close(helper.replies)
    with contextlib.suppress(ProcessLookupError):
        os.kill(helper.pid, signal.SIGKILL)
    _wait(helper.pid)


atexit.register(_stop_helper)


def _shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous mapping, which is MAP_SHARED, so it
    stays one array across os.fork."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# Where _cpu_quota finds this process's cgroup and the cgroup's CPU limit.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cpu_quota() -> int | None:
    """The whole CPUs this process's cgroup grants, floor(quota / period), or
    None for no limit.

    A cgroup v1 line "id:cpu,...:/path" of _PROC_CGROUP puts the limit in
    cpu.cfs_quota_us and cpu.cfs_period_us under _CGROUP_ROOT/cpu/path, with
    a quota of -1 for none; without one, the v2 line "0::/path" puts it in
    _CGROUP_ROOT/path/cpu.max as "quota period", with a quota of "max" for
    none.  A missing, unreadable or malformed file also counts as none.
    """
    try:
        entries = [line.split(":", 2) for line in Path(_PROC_CGROUP).read_text().splitlines()]
        v1 = [path for _, names, path in entries if "cpu" in names.split(",")]
        if v1:
            where = Path(_CGROUP_ROOT, "cpu", v1[0].lstrip("/"))
            fields = [(where / name).read_text()
                      for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us")]
        else:
            v2 = [path for _, names, path in entries if not names]
            fields = Path(_CGROUP_ROOT, v2[0].lstrip("/"), "cpu.max").read_text().split()
        quota, period = map(int, fields)  # "max" raises, as malformed text does
    except (OSError, ValueError, IndexError):
        return None
    return quota // period if quota > 0 and period > 0 else None


def _may_fork() -> bool:
    """The CPU rules of both helpers: os.fork exists, no other Python thread
    is running, and both the affinity mask and any cgroup CPU quota give
    two CPUs."""
    # threading.active_count() sees Python threads only.  After import numpy
    # the OpenBLAS pool is a second OS thread, and a child that called into
    # BLAS could deadlock on its locks; forking past it is safe because the
    # forked path calls no BLAS routine (tests/test_sampling.py pins that).
    if not all(hasattr(mod, name) for mod, name in
               ((os, "fork"), (os, "sched_getaffinity"), (signal, "pthread_sigmask"))):
        return False
    if threading.active_count() > 1 or len(os.sched_getaffinity(0)) < 2:
        return False
    cpus = _cpu_quota()  # two CPUs in the affinity mask may share one CPU of quota
    return cpus is None or cpus >= 2


@contextlib.contextmanager
def _forked(child: Callable[[], None], ignore_sigint: bool = False):
    """Yields the pid of a forked child that runs child() and leaves through
    os._exit, 0 if it returned and 1 if it raised; 0 if os.fork fails.

    SIGINT is held from before the fork until the child is inside its
    os._exit guard and the with-block here has recorded its pid, so a Ctrl-C
    can neither unwind the child into the caller nor orphan it.  With
    ignore_sigint the child ignores SIGINT from the start.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                if ignore_sigint:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                child()
                code = 0
            finally:
                os._exit(code)
        yield pid or 0
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _wait(pid: int) -> int | None:
    """The child's exit code, negative for a signal; None if it is not ours to reap."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return None


def _each_limb(seed: Seed, params: GenParams, row_fn: Callable[[int, np.ndarray], object],
               shape: tuple[int, ...], dtype) -> np.ndarray:
    """The (L, *shape) array whose row i is row_fn(i, coeffs of limb base[i]).

    row_fn runs in the process that made the limb and is the caller's only
    sink: generate_mrp keeps the limb, formats.verify_mrp_file its first
    mismatch with the stored row it reads, and the CLI's gen-mrp and
    retry-gen its SHA-256, once it is written at its offset in the --out
    file (formats._mrp_rows).  So a limb the helper made never passes
    through this process, and the (L, *shape) array holds what is kept.

    The worker rule of every caller: this process runs the serial loop in
    base order and raises its first error.  Rows are pure functions of
    (seed, q), so one helper, forked from this process for L >= 2 and
    L * n_seg >= MIN_FORK_BLOCKS where _may_fork allows, runs the same loop
    from the last row down and may only save it work; a row both sides make
    has the same bits.  Both sides make their rows unsplit, since this
    process holds _helper_lock throughout: where this helper is forked it
    holds the second CPU, and where it is not, the polynomial is below the
    size at which a fork pays for itself in the CLI, the chief caller,
    whose process ends with the call.
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

    def descend() -> None:
        for row in range(rows - 1, -1, -1):
            if made[row] or os.getppid() != caller:
                break
            make(row)

    helper = 0
    with _helper_lock:  # so generate_limb splits no row, here or in the helper
        try:
            if rows >= 2 and rows * params.n_seg >= MIN_FORK_BLOCKS and _may_fork():
                with _forked(descend) as pid:
                    helper = pid  # 0 if the fork failed: this process makes every row
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


def _first_valid(seed_source: Callable[[], Seed], max_attempts: int,
                 attempt: Callable[[Seed], object]) -> tuple[Seed, object, int]:
    """(seed, attempt(seed), attempts) for the first drawn seed whose attempt
    raises no GenerationFailure: the client's one retry loop.

    Every retry uses a fresh independent draw, so the surviving seed space
    is exactly the validated fraction of the full 288-bit space.
    """
    if max_attempts < 1:
        raise ParamsError("max_attempts must be at least 1")
    last = None
    for attempts in range(1, max_attempts + 1):
        seed = seed_source()
        try:
            return seed, attempt(seed), attempts
        except GenerationFailure as failure:
            last = failure
    raise RetryExhausted(max_attempts, last)


def client_generate_with_retry(seed_source: Callable[[], Seed], params: GenParams,
                               max_attempts: int) -> RetryResult:
    """Draw seeds until generation succeeds; the winner is a validated seed."""
    seed, mrp, attempts = _first_valid(seed_source, max_attempts,
                                       lambda seed: generate_mrp(seed, params))
    return RetryResult(seed=seed, mrp=mrp, attempts=attempts)
