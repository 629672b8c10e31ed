"""NTT-friendly prime enumeration and classification.

The transform-friendly moduli for ring dimension N are primes q ≡ 1 (mod 2N)
inside the hardware word size.  Each prime is graded by two hardware costs:
the signed-digit weight of q (cheap modular reduction wants few nonzero NAF
digits) and the per-sample rejection probability (2^w mod q) / 2^w, which
drives the generation failure model.  Probabilities are exact rationals so
threshold comparisons at published boundaries can never flip by rounding.

The catalog screens the candidates cheapest test first.  A sieve strikes
every candidate that has an odd prime factor up to 2^16 and is not that prime,
one slice assignment per prime; then the NAF weight (one popcount) and the
rejection probability screen the survivors.  Below 2^32 the sieve reaches the
square root of every candidate, so its survivors are exactly the primes.
Only above 32-bit words does Miller-Rabin run, on the survivors under the
weight cap, before the rejection probability.  Admission is the conjunction
of the tests, so the order changes the cost and never the records.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import compress, islice
from math import isqrt
from typing import NamedTuple

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

# Most candidates one enumeration may scan: the sieve holds two bytes per
# candidate, and the weight screen that counts the candidates under the cap for
# MAX_TEST_WORK costs about 0.3 µs each, so about 0.3 s on a 2-vCPU machine.
# The reference catalog scans 32768.
MAX_CANDIDATES = 1 << 20

# Most Miller-Rabin work one enumeration may do, in candidates under the weight
# cap times w^2.  A test costs about 2.5 ns * w^2 on a 2-vCPU machine (10 µs at
# w = 64), so the tests of a refused-at-the-margin filter would take about 0.7 s
# at any word size.  Only filters above 32-bit words test any candidate; the
# reference catalog (w = 32) tests none, and its 6348 candidates under the
# weight cap are 2.5% of the bound.
MAX_TEST_WORK = 1 << 28

# The catalog's sieve strikes with the odd primes up to this bound, whose square
# is above every candidate below 2^32.
_SIEVE_BOUND = 1 << 16


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


class PrimeRecord(NamedTuple):
    """One supported modulus with its hardware-relevant grades."""

    q: int
    bucket: int
    hw_naf: int
    p_r: Fraction


class CatalogFilter(namedtuple("CatalogFilter", "n_ring w hw_naf_max p_r_max q_min_exclusive")):
    """Admission predicate for the supported moduli set."""

    __slots__ = ()

    def __new__(cls, n_ring: int, w: int, hw_naf_max: int, p_r_max,
                q_min_exclusive: int = 1) -> "CatalogFilter":
        if n_ring <= 0 or n_ring & (n_ring - 1):
            raise ParamsError("ring dimension must be a power of two")
        if not 0 < w <= 64:
            raise ParamsError("word size must be in 1..64 bits (is_prime's exact range)")
        if hw_naf_max < 0:
            raise ParamsError(f"the NAF weight cap must be at least 0, got {hw_naf_max}")
        p_r_max = Fraction(p_r_max)
        if p_r_max < 0:
            raise ParamsError(f"the rejection cap must be at least 0, got {p_r_max}")
        return super().__new__(cls, n_ring, w, hw_naf_max, p_r_max, q_min_exclusive)


class ModuliCatalog:
    """The supported moduli, sorted ascending by q, and the p_r cap they were
    admitted under."""

    __slots__ = ("p_r_max", "records")

    def __init__(self, p_r_max: Fraction, records: tuple[PrimeRecord, ...]):
        self.p_r_max = p_r_max
        self.records = records

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
        if cap > self.p_r_max:
            raise ParamsError("restrict only tightens the p_r cap")
        return ModuliCatalog(cap, tuple(r for r in self.records if r.p_r <= cap))


def _odd_primes(bound: int):
    """The odd primes up to bound, ascending: flag i of the sieve stands for 2i + 1."""
    flags = bytearray([1]) * ((bound + 1) // 2)
    flags[0] = 0
    for i in range(1, (isqrt(bound) + 1) // 2):
        if flags[i]:
            start = 2 * i * (i + 1)  # the flag of (2i + 1)^2
            flags[start::2 * i + 1] = bytes(len(range(start, len(flags), 2 * i + 1)))
    return compress(range(1, bound + 1, 2), flags)


def enumerate_supported(filt: CatalogFilter) -> ModuliCatalog:
    """Enumerate every prime admitted by the filter, ascending.

    Candidates are exactly the arithmetic progression k*2N + 1 above
    q_min_exclusive and below 2^w.  A sieve over the progression strikes each
    candidate with an odd prime factor p <= min(isqrt(2^w - 1), 2^16), other
    than p itself; the NAF weight cap then screens the survivors, and then the
    exact rejection probability cap.  When the sieve's bound reaches
    isqrt(2^w - 1), as it does for every w <= 32, the survivors are the
    primes; otherwise those under the weight cap also pass deterministic
    Miller-Rabin before the rejection probability.  The catalog is
    reproducible bit-for-bit.  A filter with more than MAX_CANDIDATES
    candidates, or with more under the weight cap than MAX_TEST_WORK allows at
    its word size, is refused before any is tested.
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
    if candidates > most_tested:
        capped = islice((c for c in range(q, limit, step) if hw_naf(c) <= filt.hw_naf_max),
                        most_tested + 1)
        if sum(1 for _ in capped) > most_tested:
            raise ParamsError(f"the filter has more than {most_tested} candidates under the "
                              f"weight cap below 2^{filt.w}, the most one enumeration tests "
                              "at that word size; lower --hwnaf-max or raise --qmin-bits")
    root = isqrt(limit - 1)
    bound = min(root, _SIEVE_BOUND)
    # Candidate i is 1 + (first + i) * step, divisible by p when i is
    # -(first + step^-1) mod p; step is 2^k and (p + 1) / 2 inverts 2 mod p.
    first, k = q // step, step.bit_length() - 1
    survives, zeros = bytearray([1]) * candidates, bytes(candidates)
    for p in _odd_primes(bound):
        i = (-first - pow(p + 1 >> 1, k, p)) % p
        if q + i * step == p:
            i += p
        survives[i::p] = zeros[i::p]
    light = (c for c in compress(range(q, limit, step), survives)
             if hw_naf(c) <= filt.hw_naf_max)
    if bound < root:
        light = filter(is_prime, light)
    records = []
    for c in light:
        p_r = sample_rejection_prob(c, filt.w)
        if p_r <= filt.p_r_max:
            records.append(PrimeRecord(c, size_bucket(c), hw_naf(c), p_r))
    return ModuliCatalog(filt.p_r_max, tuple(records))


def histogram(catalog: ModuliCatalog) -> dict[int, int]:
    """Record count per size bucket; values sum to len(catalog)."""
    return dict(sorted(Counter(rec.bucket for rec in catalog.records).items()))
