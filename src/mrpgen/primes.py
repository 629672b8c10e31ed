"""NTT-friendly prime enumeration and classification.

The transform-friendly moduli for ring dimension N are primes q ≡ 1 (mod 2N)
inside the hardware word size.  Each prime is graded by two hardware costs:
the signed-digit weight of q (cheap modular reduction wants few nonzero NAF
digits) and the per-sample rejection probability (2^w mod q) / 2^w, which
drives the generation failure model.  Probabilities are exact rationals so
threshold comparisons at published boundaries can never flip by rounding.

The catalog screens each candidate cheapest test first: the NAF weight (one
popcount, which rejects about 4 in 5 reference candidates), then
Miller-Rabin, then the rejection probability.  Admission is the conjunction
of the three, so the order changes the cost and never the records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import ParamsError

# Deterministic Miller-Rabin witness sets, each proven complete below its bound.
_MR_RANGES = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Most candidates one enumeration may scan: a weight screen costs about 0.3 µs, so
# a full scan takes about 0.3 s on a 2-vCPU machine.  The reference catalog scans
# 32768.
MAX_CANDIDATES = 1 << 20

# Most Miller-Rabin work one enumeration may do, in tested candidates times w^2.
# A test costs about 2.5 ns * w^2 on a 2-vCPU machine (0.9 µs at w = 20, 10 µs at
# w = 64), so the tests of a refused-at-the-margin filter take about 0.7 s at any
# word size.  The reference catalog tests 6348 candidates at w = 32 (2.5% of it).
MAX_TEST_WORK = 1 << 28


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2^64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= 1 << 64:
        raise ParamsError("is_prime is only proven deterministic below 2^64")
    for bound, witnesses in _MR_RANGES:
        if n < bound:
            break
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def hw_naf(n: int) -> int:
    """Number of nonzero digits in the canonical non-adjacent form (NAF) of n.

    Those digits sit at the set bits of (3n XOR n) >> 1 (the bit-parallel
    NAF), so the weight is one popcount.
    """
    if n < 0:
        raise ParamsError("the NAF weight is defined for non-negative integers")
    return ((n ^ 3 * n) >> 1).bit_count()


def is_ntt_friendly(q: int, n_ring: int) -> bool:
    """True iff q is prime and q ≡ 1 (mod 2N) for ring dimension N."""
    if n_ring <= 0 or n_ring & (n_ring - 1):
        raise ParamsError("ring dimension must be a power of two")
    return q % (2 * n_ring) == 1 and is_prime(q)


def sample_rejection_prob(q: int, w: int) -> Fraction:
    """Exact per-sample rejection probability (2^w mod q) / 2^w."""
    if not 1 < q < 1 << w:
        raise ParamsError(f"q must satisfy 1 < q < 2^{w}")
    return Fraction((1 << w) % q, 1 << w)


def size_bucket(q: int) -> int:
    """Integer size class of q: round(log2 q), the published reference statistics' buckets.

    Bucket b holds the q with 2^(2b-1) < q^2 <= 2^(2b+1), decided in exact
    integer arithmetic.
    """
    if q < 2:
        raise ParamsError("bucket is defined for q >= 2")
    b = q.bit_length() - 1
    if q * q > 1 << (2 * b + 1):
        b += 1
    return b


@dataclass(frozen=True)
class PrimeRecord:
    """One supported modulus with its hardware-relevant grades."""

    q: int
    bucket: int
    hw_naf: int
    p_r: Fraction


@dataclass(frozen=True)
class CatalogFilter:
    """Admission predicate for the supported moduli set."""

    n_ring: int
    w: int
    hw_naf_max: int
    p_r_max: Fraction
    q_min_exclusive: int = 1

    def __post_init__(self):
        if self.n_ring <= 0 or self.n_ring & (self.n_ring - 1):
            raise ParamsError("ring dimension must be a power of two")
        if not 0 < self.w <= 64:
            raise ParamsError("word size must be in 1..64 bits (is_prime's exact range)")
        object.__setattr__(self, "p_r_max", Fraction(self.p_r_max))


@dataclass(frozen=True)
class ModuliCatalog:
    """The supported moduli set for one filter, sorted ascending by q."""

    filter: CatalogFilter
    records: tuple[PrimeRecord, ...]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def moduli(self) -> tuple[int, ...]:
        return tuple(r.q for r in self.records)

    def worst_p_r(self) -> Fraction:
        if not self.records:
            raise ParamsError("empty catalog has no worst rejection probability")
        return max(r.p_r for r in self.records)

    def restrict(self, p_r_max) -> "ModuliCatalog":
        """Sub-catalog under a tighter rejection-probability cap."""
        cap = Fraction(p_r_max)
        if cap > self.filter.p_r_max:
            raise ParamsError("restrict only tightens the p_r cap")
        new_filter = CatalogFilter(self.filter.n_ring, self.filter.w,
                                   self.filter.hw_naf_max, cap,
                                   self.filter.q_min_exclusive)
        return ModuliCatalog(new_filter,
                             tuple(r for r in self.records if r.p_r <= cap))


def enumerate_supported(filt: CatalogFilter) -> ModuliCatalog:
    """Enumerate every prime admitted by the filter, ascending.

    Candidates are exactly the arithmetic progression k*2N + 1 above
    q_min_exclusive and below 2^w.  Each is screened cheapest test first: the
    NAF weight cap, then deterministic Miller-Rabin, then the exact rejection
    probability cap, so the primality test and the Fraction are paid only by
    the candidates under the weight cap.  The catalog is reproducible
    bit-for-bit.  A filter with more than MAX_CANDIDATES candidates, or with
    more under the weight cap than MAX_TEST_WORK allows at its word size, is
    refused before any is tested.
    """
    step = 2 * filt.n_ring
    q = step + 1
    if q <= filt.q_min_exclusive:
        q += ((filt.q_min_exclusive - q) // step + 1) * step
    limit = 1 << filt.w
    candidates = max(0, -(-(limit - q) // step))
    if candidates > MAX_CANDIDATES:
        raise ParamsError(f"the filter has {candidates} candidates below 2^{filt.w}, more "
                          f"than the {MAX_CANDIDATES} one enumeration scans; raise the "
                          "lower bound on q (--qmin-bits)")
    most_tested = MAX_TEST_WORK // filt.w ** 2
    light = list(islice((q for q in range(q, limit, step) if hw_naf(q) <= filt.hw_naf_max),
                        most_tested + 1))
    if len(light) > most_tested:
        raise ParamsError(f"the filter has more than {most_tested} candidates under the "
                          f"weight cap below 2^{filt.w}, the most one enumeration tests at "
                          "that word size; lower --hwnaf-max or raise --qmin-bits")
    records = []
    for q in light:
        if is_prime(q):
            p_r = sample_rejection_prob(q, filt.w)
            if p_r <= filt.p_r_max:
                records.append(PrimeRecord(q, size_bucket(q), hw_naf(q), p_r))
    return ModuliCatalog(filt, tuple(records))


def histogram(catalog: ModuliCatalog) -> dict[int, int]:
    """Record count per size bucket; values sum to len(catalog)."""
    return dict(sorted(Counter(rec.bucket for rec in catalog.records).items()))
