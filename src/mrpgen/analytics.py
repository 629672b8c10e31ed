"""Failure-probability model of block-wise rejection sampling.

A segment draws t candidate words from one XOF block and needs seg_len
acceptances, each independent with probability 1 - p_r; a limb needs n_seg
segments, a polynomial needs L limbs.  Everything here follows from the
binomial upper tail

    p_seg = sum_{i=seg_len}^{t} C(t, i) p_r^(t-i) (1-p_r)^i

raised to n_seg and L.  Two arithmetic routes are provided: exact
``fractions.Fraction`` (definitional, safe at published-threshold
boundaries) and 50-digit mpmath (for the huge exponents where exact
rationals blow up).  Failure probabilities are always accumulated from the
rejection tail directly, never as 1 minus a near-one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np
from mpmath import mp, mpf

from .errors import ConfigError, GenerationFailure, ParamsError
from .primes import sample_rejection_prob
from .sampling import GenParams, Limb, generate_mrp, reduce_coeffs
from .xof import Seed

PRECISION_DPS = 50


def _fraction(x) -> Fraction:
    """Exact conversion; decimal strings parse exactly (\"0.03655\" = 731/20000)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _to_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def _check_model(p_r, t: int, seg_len: int, n_seg: int = 1, L: int = 1) -> Fraction:
    """p_r as a Fraction, once it and the counts are inside the model."""
    for name, value, least in (("t", t, 0), ("seg_len", seg_len, 0),
                               ("n_seg", n_seg, 1), ("L", L, 1)):
        if value < least:
            raise ParamsError(f"{name} must be at least {least}, got {value}")
    pr = _fraction(p_r)
    if not 0 <= pr <= 1:
        raise ParamsError("p_r must lie in [0, 1]")
    return pr


def p_seg(p_r, t: int, seg_len: int) -> Fraction:
    """Exact probability of collecting at least seg_len acceptances among t."""
    pr = _check_model(p_r, t, seg_len)
    acc = 1 - pr
    return sum((comb(t, i) * acc ** i * pr ** (t - i) for i in range(seg_len, t + 1)),
               Fraction(0))


def seg_failure_prob(p_r, t: int, seg_len: int) -> Fraction:
    """Exact complement of p_seg, summed over the failing tail directly."""
    pr = _check_model(p_r, t, seg_len)
    acc = 1 - pr
    return sum((comb(t, i) * acc ** i * pr ** (t - i) for i in range(min(seg_len, t + 1))),
               Fraction(0))


def _seg_fail_mp(p_r: mpf, t: int, seg_len: int, binoms: Sequence[int] | None = None) -> mpf:
    if binoms is None:
        binoms = [comb(t, i) for i in range(min(seg_len, t + 1))]
    acc = 1 - p_r
    total = mpf(0)
    for i, c in enumerate(binoms):
        total += c * acc ** i * p_r ** (t - i)
    return min(total, mpf(1))  # a full tail (seg_len > t) can round above 1


def limb_failure_mp(seg_fail, n_seg: int) -> mpf:
    """1 - (1 - seg_fail)^n_seg in log space, stable for tiny seg_fail."""
    if n_seg < 1:
        raise ParamsError(f"n_seg must be at least 1, got {n_seg}")
    with mp.workdps(PRECISION_DPS):
        return -mp.expm1(n_seg * mp.log1p(-_to_mpf(seg_fail)))


def mrp_failure_bound(p_r, t: int, seg_len: int, n_seg: int, L: int) -> mpf:
    """1 - p_limb_worst^L for a base whose worst modulus has rejection p_r."""
    pr = _check_model(p_r, t, seg_len, n_seg, L)
    with mp.workdps(PRECISION_DPS):
        sf = _seg_fail_mp(_to_mpf(pr), t, seg_len)
        return -mp.expm1(n_seg * L * mp.log1p(-sf))


def mrp_failure_exact_base(p_r_list: Sequence, t: int, seg_len: int, n_seg: int) -> mpf:
    """1 - prod_q p_limb_q over an explicit base (not the worst-case bound)."""
    with mp.workdps(PRECISION_DPS):
        log_p = mpf(0)
        for p_r in p_r_list:
            sf = _seg_fail_mp(_to_mpf(_fraction(p_r)), t, seg_len)
            log_p += n_seg * mp.log1p(-sf)
        return -mp.expm1(log_p)


def solve_p_r_max(t: int, seg_len: int, n_seg: int, L: int, max_fail,
                  digits: int = 9) -> Fraction:
    """Largest per-sample rejection probability meeting an MRP-failure budget.

    Bisects the monotone failure bound to ``digits`` decimal digits and
    returns the satisfying endpoint (a dyadic rational).
    """
    budget = _fraction(max_fail)
    if budget >= 1:
        return Fraction(1)
    if budget < 0 or seg_len > t:
        raise ConfigError("infeasible: even p_r = 0 exceeds the failure budget")
    binoms = [comb(t, i) for i in range(seg_len)]

    with mp.workdps(PRECISION_DPS):
        budget_mp = _to_mpf(budget)
        lo, hi = Fraction(0), Fraction(1)
        iters = math.ceil(digits * math.log2(10)) + 2
        for _ in range(iters):
            mid = (lo + hi) / 2
            sf = _seg_fail_mp(_to_mpf(mid), t, seg_len, binoms)
            if -mp.expm1(n_seg * L * mp.log1p(-sf)) <= budget_mp:
                lo = mid
            else:
                hi = mid
    return lo


@dataclass(frozen=True)
class FitResult:
    """Best integer limb count explaining a set of published thresholds."""

    L: int
    residual: float
    solved: tuple[Fraction, ...]
    published: tuple[Fraction, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def fit_limb_count(rows: Sequence[tuple[int, object]], t: int, n_ring: int, max_fail,
                   l_range: tuple[int, int] = (1, 200), tolerance: float = 0.0005,
                   digits: int = 7) -> FitResult:
    """Search the limb count L whose solved thresholds match published ones.

    ``rows`` holds (seg_len, published p_r_max) pairs; n_seg is n_ring /
    seg_len.  Returns the L minimizing the max absolute deviation; ``ok``
    reports whether it lands inside ``tolerance`` (a no-fit is a value, not
    an error).

    Only the integers around each row's exact crossing are scored: the bound
    at a row's published p_r reaches the budget at the real limb count
    L_row = log1p(-budget) / (n_seg * log1p(-seg_fail)).  A row's deviation
    falls up to floor(L_row) and rises after ceil(L_row), so the maximum over
    the rows falls below the smallest floor and rises above the largest ceil.
    """
    published = tuple(_fraction(p) for _, p in rows)
    lo, hi = l_range
    if not 1 <= lo <= hi:
        raise ConfigError(f"limb-count range {lo}..{hi} is empty or below 1")
    if not 0 <= tolerance < math.inf:
        raise ParamsError(f"fit tolerance must be a finite number >= 0, got {tolerance}")
    budget = _fraction(max_fail)
    if budget < 1:
        with mp.workdps(PRECISION_DPS):
            log_keep = mp.log1p(-_to_mpf(budget))
            roots = [log_keep / ((n_ring // seg_len)
                                 * mp.log1p(-_seg_fail_mp(_to_mpf(p), t, seg_len)))
                     for (seg_len, _), p in zip(rows, published)]
            lo, hi = (int(mp.floor(min(max(min(roots), lo), hi))),
                      int(mp.ceil(min(max(max(roots), lo), hi))))
    best = None
    for L in range(lo, hi + 1):
        solved = tuple(solve_p_r_max(t, seg_len, n_ring // seg_len, L, max_fail,
                                     digits=digits)
                       for seg_len, _ in rows)
        residual = max(abs(float(s - p)) for s, p in zip(solved, published))
        if best is None or residual < best[1]:
            best = (L, residual, solved)
    return FitResult(L=best[0], residual=best[1], solved=best[2],
                     published=published, tolerance=tolerance)


def seed_space_bits(seed_len: int, p_mrp) -> float:
    """Effective log2 seed-space size once invalid seeds are discarded."""
    p = _fraction(p_mrp)
    if not 0 < p <= 1:
        raise ParamsError("p_mrp must lie in (0, 1]")
    return seed_len + math.log2(p)


def rejection_prob_extra_bits(q: int, m: int, x: int) -> Fraction:
    """Rejection probability when sampling n = m + x bits for an m-bit modulus.

    Documents the extra-bits trade-off analytically: the result is exactly
    (2^n mod q) / 2^n and provably below 2^-x.  Never used on the sampling
    path, where the word size is fixed by the hardware profile.
    """
    if not (2 <= q < 1 << m and x >= 0):
        raise ParamsError(f"need 2 <= q < 2^{m} and x >= 0, got q={q} x={x}")
    n = m + x
    p_r = Fraction((1 << n) % q, 1 << n)
    assert p_r < Fraction(q, 1 << n) < Fraction(1, 1 << x)
    return p_r


@dataclass
class EmpiricalReport:
    """Monte-Carlo generation failures next to the exact analytic rate."""

    failures: int
    trials: int
    analytic_failure: float

    @property
    def empirical_failure(self) -> float:
        return self.failures / self.trials

    @property
    def binomial_sigma(self) -> float:
        p = self.analytic_failure
        return math.sqrt(p * (1 - p) / self.trials)


def empirical_failure_rate(params: GenParams, trials: int,
                           seed_source: Callable[[], Seed]) -> EmpiricalReport:
    """Run whole-polynomial generation on fresh seeds and count failures."""
    if trials < 1:
        raise ParamsError("trials must be at least 1")
    p_r_list = [sample_rejection_prob(q, params.w) for q in params.base]
    analytic = float(mrp_failure_exact_base(p_r_list, params.t, params.seg_len,
                                            params.n_seg))
    failures = 0
    for _ in range(trials):
        try:
            generate_mrp(seed_source(), params)
        except GenerationFailure:
            failures += 1
    return EmpiricalReport(failures=failures, trials=trials, analytic_failure=analytic)


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness of fit of one limb's residues against uniform."""

    q: int
    sample_count: int
    statistic: float
    dof: int
    p_value: float


def chi_square_uniformity(limb: Limb, bins: int = 64) -> UniformityReport:
    """Bin the reduced residues of a limb and test them against uniformity.

    Bin b covers residues r with r * bins // q == b; expected counts are
    proportional to each bin's exact integer width, so moduli that do not
    divide evenly into bins are handled without bias.
    """
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    n = len(limb.coeffs)
    if n < 5 * bins:
        raise ParamsError(f"need at least {5 * bins} samples for {bins} bins")
    q = limb.q
    residues = reduce_coeffs(limb).astype(np.uint64)
    idx = (residues * np.uint64(bins)) // np.uint64(q)
    counts = np.bincount(idx.astype(np.int64), minlength=bins)
    starts = np.array([-(-b * q // bins) for b in range(bins + 1)], dtype=np.int64)
    widths = np.diff(starts)
    expected = n * widths / q
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = bins - 1
    # chi-square survival function: the upper regularized incomplete gamma
    p_value = float(mp.gammainc(dof / 2, statistic / 2, regularized=True))
    return UniformityReport(q=q, sample_count=n, statistic=statistic,
                            dof=dof, p_value=p_value)
