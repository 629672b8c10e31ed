"""Oracles that only tests call: slow or independent forms of package results.

``naf`` is the digit loop that ``primes.hw_naf``'s popcount is checked
against.  ``mrp_failure_exact_base`` is the failure of an explicit base,
which the worst-modulus bound must never understate, and
``empirical_failure_rate`` counts generation failures by Monte Carlo and
returns the count with the exact rate of that base.  ``seed_space_bits`` is
the seed space left once invalid seeds are discarded.  ``failure_decimal``
is 1 - (1 - seg_fail)^count in ``decimal`` arithmetic, which the float
failure bound is checked against.  ``segment`` is one engine unit built
from a bytes encoder, the hash primitive and a boolean-mask filter, so it
shares no encoder, expander or filter with the generator it checks.
"""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from mrpgen import (GenerationFailure, ParamsError, generate_mrp, keccak, mrp_failure_bound,
                    sample_rejection_prob)


def segment(seed, q: int, id_seg: int, params) -> np.ndarray:
    """The accepted words of unit (q, id_seg), in block order: up to seg_len
    words of its one 168-byte block below floor(2^w / q) * q, fewer for a
    short segment."""
    data = seed.data + q.to_bytes(4, "little") + id_seg.to_bytes(2, "little")
    if params.backend == "shake128":
        block = hashlib.shake_128(data).digest(168)
    else:
        block = keccak.kangaroo_twelve(data, b"", 168)
    words = np.frombuffer(block, dtype=f"<u{params.w // 8}")
    return words[words < (1 << params.w) // q * q][:params.seg_len]


def naf(n: int) -> list[int]:
    """Canonical non-adjacent form of n, least-significant digit first.

    Digits are in {-1, 0, +1}, no two adjacent digits are nonzero, and
    sum(d_i * 2^i) == n.  naf(0) == [].
    """
    if n < 0:
        raise ParamsError("naf is defined for non-negative integers")
    digits = []
    while n:
        if n & 1:
            d = 2 - (n & 3)  # +1 when n % 4 == 1, -1 when n % 4 == 3
            digits.append(d)
            n -= d
        else:
            digits.append(0)
        n >>= 1
    return digits


def seed_space_bits(seed_len: int, p_mrp) -> float:
    """Effective log2 seed-space size once invalid seeds are discarded."""
    if not 0 < p_mrp <= 1:
        raise ParamsError("p_mrp must lie in (0, 1]")
    return seed_len + math.log2(p_mrp)


def failure_decimal(seg_fail: Fraction, count: int, digits: int = 40) -> Decimal:
    """1 - (1 - seg_fail)^count for an exact seg_fail in [0, 1], to about
    `digits` significant digits.

    The precision is `digits` plus the number of leading zeros of
    x = seg_fail, so 1 - x keeps `digits` digits of x however small x is,
    and so does the closing subtraction from 1, whose result is at least x.
    A tail of d^-t with d <= 2^64 and t <= 168 takes about 3300 digits; the
    integer power is binary exponentiation, at most 2 * 48 products for
    count <= 2^48.
    """
    if seg_fail in (0, 1):
        return Decimal(int(seg_fail))
    zeros = seg_fail.denominator.bit_length() - seg_fail.numerator.bit_length() + 1
    with localcontext() as ctx:
        ctx.prec = digits + 5 + math.ceil(zeros * math.log10(2))
        x = Decimal(seg_fail.numerator) / seg_fail.denominator
        return 1 - (1 - x) ** count


def mrp_failure_exact_base(p_r_list, t: int, seg_len: int, n_seg: int) -> float:
    """1 - prod_q p_limb_q over an explicit base (not the worst-case bound)."""
    if not p_r_list:
        raise ParamsError("the base needs at least one modulus")
    limb_fails = [mrp_failure_bound(p_r, t, seg_len, n_seg, 1) for p_r in p_r_list]
    if 1 in limb_fails:
        return 1.0
    return 0.0 - math.expm1(math.fsum(math.log1p(-f) for f in limb_fails))


def empirical_failure_rate(params, trials: int, seed_source) -> tuple[int, float]:
    """(failures, analytic_failure): whole-polynomial generation run on trials
    fresh seeds, and the exact failure rate of params' base."""
    if trials < 1:
        raise ParamsError("trials must be at least 1")
    p_r_list = [sample_rejection_prob(q, params.w) for q in params.base]
    analytic = mrp_failure_exact_base(p_r_list, params.t, params.seg_len, params.n_seg)
    failures = 0
    for _ in range(trials):
        try:
            generate_mrp(seed_source(), params)
        except GenerationFailure:
            failures += 1
    return failures, analytic
