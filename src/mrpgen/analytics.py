"""Failure-probability model of block-wise rejection sampling.

A segment draws t candidate words from one XOF block and needs seg_len
acceptances, each independent with probability 1 - p_r; a limb needs n_seg
segments, a polynomial needs L limbs.  Everything follows from one failing
tail, summed once in exact integers (``seg_failure_prob``): for p_r = n/d,

    seg_fail = sum_{i < min(seg_len, t+1)} C(t, i) (d-n)^i n^(t-i) / d^t.

It becomes a float only inside -expm1(count * log1p(-seg_fail)), or as the
rounded exact -count * seg_fail below 2^-60, so a failure probability is
never 1 minus a near-one value and a subnormal tail keeps its precision.
The MAX_* input bounds bound the tail's work.  The chi-square p-value is
the closed form of Abramowitz & Stegun 26.4.4-26.4.5, summed outward from
its largest term.  Only ``empirical_failure_rate`` and ``chi_square_uniformity``
touch the generator and numpy, and they import them when called, so the
model itself loads without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import GenerationFailure, ParamsError
from .primes import sample_rejection_prob
from .profiles import DEFAULT_R_BITS

if TYPE_CHECKING:
    from .sampling import GenParams
    from .xof import Seed

MAX_T = DEFAULT_R_BITS // 8  # 168 words: one 1344-bit block of 8-bit words
MAX_N_SEG = 1 << 16  # 16-bit segment ids, as GenParams enforces
MAX_L = 1 << 32  # there are fewer distinct w-bit moduli than that
MAX_DENOMINATOR = 1 << 64  # a modulus gives (2^w mod q) / 2^w with w <= 64
MAX_FIT_SPAN = 256  # limb counts one fit scores; the reference rows score 3


def _fraction(x) -> Fraction:
    """Exact conversion; decimal strings parse exactly (\"0.03655\" = 731/20000)."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParamsError(f"not a finite rational number: {x!r}") from None


def _check_model(p_r, t: int, seg_len: int, n_seg: int = 1, L: int = 1) -> Fraction:
    """p_r as a Fraction, once it and the counts are inside the bounded model."""
    for name, value, least, most in (("t", t, 0, MAX_T), ("seg_len", seg_len, 0, math.inf),
                                     ("n_seg", n_seg, 1, MAX_N_SEG), ("L", L, 1, MAX_L)):
        if not least <= value <= most:
            raise ParamsError(f"{name} must be in {least}..{most}, got {value}")
    pr = _fraction(p_r)
    if not 0 <= pr <= 1 or pr.denominator > MAX_DENOMINATOR:
        raise ParamsError("p_r must lie in [0, 1] with a denominator of at most 2^64")
    return pr


def _failure(seg_fails: Sequence[Fraction], count: int) -> float:
    """1 - prod (1 - sf)^count over exact seg_fails, as +0.0 and never -0.0."""
    if 1 in map(float, seg_fails):
        return 1.0  # log1p(-1) raises, also for a tail just below 1 that rounds up
    return 0.0 - math.expm1(math.fsum(count * math.log1p(-float(sf)) if sf > 2 ** -60
                                      else float(-count * sf) for sf in seg_fails))


def seg_failure_prob(p_r, t: int, seg_len: int) -> Fraction:
    """Exact probability of fewer than seg_len acceptances among t: the one tail sum."""
    pr = _check_model(p_r, t, seg_len)
    n, d = pr.numerator, pr.denominator
    return Fraction(sum(math.comb(t, i) * (d - n) ** i * n ** (t - i)
                        for i in range(min(seg_len, t + 1))), d ** t)


def p_seg(p_r, t: int, seg_len: int) -> Fraction:
    """Exact probability of collecting at least seg_len acceptances among t."""
    return 1 - seg_failure_prob(p_r, t, seg_len)


def limb_failure(seg_fail, n_seg: int) -> float:
    """1 - (1 - seg_fail)^n_seg for one segment failure probability."""
    _check_model(0, 0, 0, n_seg)
    sf = _fraction(seg_fail)
    if not 0 <= sf <= 1:
        raise ParamsError("seg_fail must lie in [0, 1]")
    return _failure([sf], n_seg)


def mrp_failure_bound(p_r, t: int, seg_len: int, n_seg: int, L: int) -> float:
    """1 - p_limb_worst^L for a base whose worst modulus has rejection p_r."""
    _check_model(p_r, t, seg_len, n_seg, L)
    return _failure([seg_failure_prob(p_r, t, seg_len)], n_seg * L)


def mrp_failure_exact_base(p_r_list: Sequence, t: int, seg_len: int, n_seg: int) -> float:
    """1 - prod_q p_limb_q over an explicit base (not the worst-case bound)."""
    _check_model(0, t, seg_len, n_seg, len(p_r_list))
    return _failure([seg_failure_prob(p, t, seg_len) for p in p_r_list], n_seg)


def solve_p_r_max(t: int, seg_len: int, n_seg: int, L: int, max_fail) -> Fraction:
    """Largest per-sample rejection probability meeting an MRP-failure budget.

    Bisects the monotone failure bound to 7 decimal digits and returns the
    satisfying endpoint (a dyadic rational).
    """
    _check_model(0, t, seg_len, n_seg, L)
    budget = _fraction(max_fail)
    if budget >= 1:
        return Fraction(1)
    if budget < 0 or seg_len > t:
        raise ParamsError("infeasible: even p_r = 0 exceeds the failure budget")
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(math.ceil(7 * math.log2(10)) + 2):
        mid = (lo + hi) / 2
        if _failure([seg_failure_prob(mid, t, seg_len)], n_seg * L) <= float(budget):
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
                   l_range: tuple[int, int] = (1, 200),
                   tolerance: float = 0.0005) -> FitResult:
    """Search the limb count L whose solved thresholds match published ones.

    ``rows`` holds (seg_len, published p_r_max) pairs; n_seg is n_ring /
    seg_len.  Each L's thresholds are solved to 7 decimal digits.  Returns
    the L minimizing the max absolute deviation; ``ok`` reports whether it
    lands inside ``tolerance`` (a no-fit is a value, not an error).

    Only the integers around each row's exact crossing are scored: the bound
    at a row's published p_r reaches the budget at the real limb count
    L_row = log1p(-budget) / (n_seg * log1p(-seg_fail)).  A row's deviation
    falls up to floor(L_row) and rises after ceil(L_row), so the maximum over
    the rows falls below the smallest floor and rises above the largest ceil.
    A span of more than MAX_FIT_SPAN integers is refused before any is scored.
    """
    lo, hi = l_range
    if not 1 <= lo <= hi:
        raise ParamsError(f"limb-count range {lo}..{hi} is empty or below 1")
    if not 0 <= tolerance < math.inf:
        raise ParamsError(f"fit tolerance must be a finite number >= 0, got {tolerance}")
    if not rows or min(seg_len for seg_len, _ in rows) < 1:
        raise ParamsError("the fit needs at least one row, each with seg_len >= 1")
    published = tuple(_check_model(p, t, seg_len, n_ring // seg_len, hi) for seg_len, p in rows)
    budget = _fraction(max_fail)
    if budget < 1:
        log_keep = math.log1p(-float(budget))
        roots = []
        for (seg_len, _), p in zip(rows, published):
            sf = float(seg_failure_prob(p, t, seg_len))
            per_limb = (n_ring // seg_len) * math.log1p(-sf) if sf < 1 else -math.inf
            roots.append(log_keep / per_limb if per_limb else math.inf)  # p_r = 0: +inf
        lo, hi = (math.floor(min(max(min(roots), lo), hi)),
                  math.ceil(min(max(max(roots), lo), hi)))
    if hi - lo + 1 > MAX_FIT_SPAN:
        raise ParamsError(f"the fit would score the {hi - lo + 1} limb counts {lo}..{hi}, "
                          f"more than {MAX_FIT_SPAN}; narrow the rows or the range")
    best = None
    for L in range(lo, hi + 1):
        solved = tuple(solve_p_r_max(t, seg_len, n_ring // seg_len, L, max_fail)
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
    from .sampling import generate_mrp

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
    return EmpiricalReport(failures=failures, trials=trials, analytic_failure=analytic)


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness of fit of one limb's residues against uniform."""

    q: int
    sample_count: int
    statistic: float
    dof: int
    p_value: float


def chi_square_uniformity(q: int, coeffs, bins: int = 64) -> UniformityReport:
    """Bin the residues mod q of one limb's coeffs and test them against uniformity.

    Bin b covers residues r with r * bins // q == b; expected counts are
    proportional to each bin's exact integer width, so moduli that do not
    divide evenly into bins are handled without bias.
    """
    import numpy as np

    if bins < 2:
        raise ParamsError("need at least 2 bins")
    if not 1 < q < 1 << 32:
        raise ParamsError(f"q must be in 2..2^32-1, got {q}")
    n = len(coeffs)
    if n < 5 * bins:
        raise ParamsError(f"need at least {5 * bins} samples for {bins} bins")
    residues = (coeffs % np.uint32(q)).astype(np.uint64)
    idx = (residues * np.uint64(bins)) // np.uint64(q)
    counts = np.bincount(idx.astype(np.int64), minlength=bins)
    starts = np.array([-(-b * q // bins) for b in range(bins + 1)], dtype=np.int64)
    widths = np.diff(starts)
    expected = n * widths / q
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = bins - 1
    return UniformityReport(q=q, sample_count=n, statistic=statistic,
                            dof=dof, p_value=_chi_square_sf(statistic, dof))


def _poisson_term(a: float, h: float) -> float:
    """h^a e^-h / Gamma(a + 1) for a in {0, 1/2, 1, 3/2, ...} and h > 0.

    Past a = 16 it is exp(-dev - stirling(a)) / sqrt(2 pi a) (Loader's
    saddle-point form): the deviance dev = a log(a/h) + h - a and the Stirling
    remainder are small where the term is large, so their rounding costs
    about one ulp per e-fold of the term's smallness, not one per unit of h.
    """
    if a < 16:
        if h < 700:  # e^-h stays a normal float
            return h ** a * math.exp(-h) / math.gamma(a + 1)
        return math.exp(a * math.log(h) - h - math.lgamma(a + 1))
    v = (a - h) / (a + h)
    if v > -0.5:  # dev = (a - h) v + 2a (v^3/3 + v^5/5 + ...)
        dev, odd, j, last = (a - h) * v, 2 * a * v, 1, None
        while dev != last:
            odd *= v * v
            last, dev, j = dev, dev + odd / (2 * j + 1), j + 1
    else:
        dev = a * math.log(a / h) + h - a
    i2 = 1 / (a * a)
    stirling = (1 / 12 - i2 * (1 / 360 - i2 * (1 / 1260 - i2 * (
        1 / 1680 - i2 * (1 / 1188 - i2 * 691 / 360360))))) / a
    return math.exp(-dev - stirling) / math.sqrt(math.tau * a)


def _chi_square_sf(x: float, dof: int) -> float:
    """Chi-square upper tail Q(dof/2, x/2) by A&S 26.4.4-26.4.5: with h = x/2 and
    s = (dof mod 2)/2, [erfc(sqrt(h)) if s] + sum_{j < dof//2} h^(j+s) e^-h /
    Gamma(j+s+1).  Only the largest term is evaluated (``_poisson_term``); the
    others follow from it by the ratio h/(j+s), so a p-value carries about
    (1 + ln(1/p)) ulp of relative error, tails down to about 1e-300 included."""
    h = x / 2
    if h <= 0:
        return 1.0
    s = (dof % 2) / 2
    n = dof // 2
    terms = [math.erfc(math.sqrt(h))] if s else []
    if n:
        k = min(max(round(h - s), 0), n - 1)
        up = down = _poisson_term(k + s, h)
        terms.append(up)
        for j in range(k + 1, n):
            up *= h / (j + s)
            terms.append(up)
        for j in range(k, 0, -1):
            down *= (j + s) / h
            terms.append(down)
    return math.fsum(terms)
