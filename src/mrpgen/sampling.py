"""Uniform multi-residue polynomial generation by seeded rejection sampling.

A limb (one residue vector of length N) is cut into n_seg segments of
len = N / n_seg coefficients.  Each segment expands one XOF block keyed by
(seed, q, id_seg), splits it into w-bit words, and keeps the first len words
below thresh = floor(2^w / q) * q.  Acceptance keeps exactly floor(2^w / q)
copies of every residue class, so accepted words are uniform mod q without
any bias correction; they are stored unreduced, as a downstream modular
multiplier would receive them.

``generate_segment`` is the engine unit and the reference: one block, one
scan.  ``generate_limb`` computes the same n_seg units at once, as one
(n_seg, t) word matrix filtered row by row, and a polynomial is one (L, N)
``uint32`` array in base order, the same as the limb section of an MRP file.

Because a segment is a pure function of (seed, q, id_seg) plus the profile,
any schedule over any number of engines reproduces the serial client output
bit for bit; the client validates a seed once (retrying on the rare
shortfall) and the server can then regenerate any limb at random access
without ever stalling.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .errors import GenerationFailure, ParamsError, RetryExhausted
from .primes import is_ntt_friendly
from .profiles import DEFAULT_R_BITS
from .xof import (BACKENDS, Seed, encode_domain_input, encode_domain_inputs, split_words,
                  xof_expand, xof_expand_many)


class Permutation:
    """A bijective coefficient layout for one ring dimension.

    Hardware lane ordering rarely matches the logical coefficient order;
    output position i takes the generated coefficient mapping[i].
    """

    def __init__(self, mapping: Iterable[int], kind: str = "explicit"):
        arr = np.asarray(list(mapping) if not isinstance(mapping, np.ndarray) else mapping,
                         dtype=np.int64)
        n = arr.shape[0]
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ParamsError("permutation mapping is not a bijection on 0..N-1")
        if kind == "identity" and not np.array_equal(arr, np.arange(n)):
            raise ParamsError("an identity layout must map every i to i")
        arr.setflags(write=False)
        self.mapping = arr
        self.kind = kind

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n), kind="identity")

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(np.arange(n)[::-1].copy(), kind="reverse")

    def __len__(self):
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(len(self.mapping))
        return Permutation(inv)

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
    (seg_len <= floor(r / w)).
    """

    N: int
    w: int
    seg_len: int
    n_seg: int
    base: tuple[int, ...]
    layout: Permutation | None = None
    r: int = DEFAULT_R_BITS
    backend: str = "shake128"

    def __post_init__(self):
        if self.N <= 0 or self.N & (self.N - 1):
            raise ParamsError("N must be a power of two")
        if self.w not in (8, 16, 32):
            raise ParamsError("word size must be 8, 16, or 32 bits")
        if self.r <= 0 or self.r % 8 or self.r % self.w:
            raise ParamsError("r must be a positive multiple of the word size")
        if self.r > DEFAULT_R_BITS:
            raise ParamsError(f"r exceeds the single-squeeze block of {DEFAULT_R_BITS} bits")
        if self.seg_len < 1 or self.seg_len > self.t:
            raise ParamsError(f"seg_len must be in 1..{self.t} (one XOF block)")
        if self.n_seg < 1 or self.n_seg > 1 << 16:
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


@dataclass(eq=False)
class Segment:
    """Accepted words for one (q, id_seg) unit, in scan order, unreduced.

    May be shorter than the requested length when the block ran out of
    acceptable words; shortness is data, the caller decides whether it is
    an error.
    """

    q: int
    values: np.ndarray

    def complete(self, seg_len: int) -> bool:
        return len(self.values) >= seg_len


@dataclass(eq=False)
class Limb:
    """One full residue vector: N accepted words for a single modulus."""

    q: int
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
        return {q: Limb(q=q, coeffs=row) for q, row in zip(self.base, self.coeffs)}

    def equals(self, other: "MultiResiduePolynomial") -> bool:
        return self.base == other.base and np.array_equal(self.coeffs, other.coeffs)


def compute_threshold(q: int, w: int) -> int:
    """Acceptance bound floor(2^w / q) * q.

    [0, thresh) holds exactly floor(2^w / q) complete copies of [0, q),
    so accepting below it is bias-free.
    """
    if not 1 < q < 1 << w:
        raise ParamsError(f"q must satisfy 1 < q < 2^{w}")
    return ((1 << w) // q) * q


def gen_seg(input_bytes: bytes, q: int, seg_len: int, w: int,
            r: int = DEFAULT_R_BITS, backend: str = "shake128") -> Segment:
    """Expand one XOF block and rejection-filter it into a segment.

    Scans the t = floor(r/w) words in index order, keeping words below
    thresh(q, w) until seg_len are collected; never expands a second block.
    """
    block = xof_expand(input_bytes, r, backend)
    words = split_words(block, w)
    accepted = words[words < compute_threshold(q, w)]
    return Segment(q=q, values=accepted[:seg_len].astype(np.uint32))


def generate_segment(seed: Seed, q: int, id_seg: int, params: GenParams) -> Segment:
    """The exact unit one distributed engine computes.

    Depends only on (seed, q, id_seg) and the profile scalars; the rest of
    the base, other segments, and scheduling cannot influence its bits.
    """
    if q not in params.base:
        raise ParamsError(f"q={q} is not in the profile base")
    if not 0 <= id_seg < params.n_seg:
        raise ParamsError(f"id_seg {id_seg} out of range for n_seg={params.n_seg}")
    data = encode_domain_input(seed, q, id_seg)
    return gen_seg(data, q, params.seg_len, params.w, params.r, params.backend)


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
    blocks = xof_expand_many(encode_domain_inputs(seed, q, params.n_seg), params.r,
                             params.backend)
    words = split_words(blocks, params.w).reshape(params.n_seg, params.t)
    keep = words < compute_threshold(q, params.w)
    # t <= 168 (r <= 1344, w >= 8), so a uint8 running count cannot wrap
    rank = np.cumsum(keep, axis=1, dtype=np.uint8)
    keep &= rank <= params.seg_len
    coeffs = words[keep]
    if len(coeffs) < params.N:
        short = rank[:, -1] < params.seg_len
        raise GenerationFailure(q, int(np.argmax(short)))
    return Limb(q=q, coeffs=permute(coeffs.astype(np.uint32, copy=False), params.layout))


def generate_mrp(seed: Seed, params: GenParams) -> MultiResiduePolynomial:
    """Generate one limb per base modulus; fails if any segment is short."""
    coeffs = np.empty((len(params.base), params.N), dtype=np.uint32)
    for row, q in enumerate(params.base):
        coeffs[row] = generate_limb(seed, q, params).coeffs
    return MultiResiduePolynomial(base=params.base, coeffs=coeffs)


def reduce_coeffs(limb: Limb) -> np.ndarray:
    """Residues in [0, q) of a limb's unreduced coefficients.

    For statistics and export only; the generation path never reduces.
    """
    return (limb.coeffs % np.uint32(limb.q)).astype(np.uint32)


def seed_source_from_rng(rng: random.Random) -> Callable[[], Seed]:
    """Fresh independent 288-bit seeds from an explicitly seeded generator."""
    return lambda: Seed(rng.randbytes(36))


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
    items = [(q, id_seg) for q in params.base for id_seg in range(params.n_seg)]
    report = EquivalenceReport(ok=True, engine_count=engine_count,
                               schedules=schedules, work_items=len(items))

    def engine_task(item):
        q, id_seg = item
        return item, generate_segment(seed, q, id_seg, params).values

    for schedule in range(schedules):
        order = items[:]
        rng.shuffle(order)
        with ThreadPoolExecutor(max_workers=engine_count) as pool:
            results = dict(pool.map(engine_task, order))
        for q, limb in zip(params.base, batched.coeffs):
            coeffs = np.concatenate([results[(q, i)] for i in range(params.n_seg)])
            if not np.array_equal(permute(coeffs, params.layout), limb):
                report.ok = False
                report.mismatches.append({"schedule": schedule, "q": q})
    return report
