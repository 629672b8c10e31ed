import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrpgen import (GenParams, ParamsError, analytics, chi_square_uniformity,
                    fit_limb_count, mrp_failure_bound, sample_rejection_prob,
                    seed_source_from_rng, seg_failure_prob, solve_p_r_max)

from conftest import ntt_primes
from oracles import (empirical_failure_rate, failure_decimal, mrp_failure_exact_base,
                     seed_space_bits)

T = 42
FIT_ARGS = dict(t=T, n_ring=1 << 14, max_fail=Fraction("0.03"), l_range=(1, 8))


class TestPSeg:
    # the segment success probability, 1 - seg_failure_prob, as the analyze
    # command reports it
    def test_zero_rejection_is_certain(self):
        assert seg_failure_prob(0, T, 32) == 0

    def test_all_must_be_accepted(self):
        pr = Fraction(1, 10)
        assert 1 - seg_failure_prob(pr, T, T) == (1 - pr) ** T

    def test_impossible_request(self):
        assert seg_failure_prob(Fraction(1, 10), T, T + 1) == 1

    def test_complement_is_exact(self):
        # the tail below seg_len plus the success sum from seg_len up is 1
        for pr in (Fraction(0), Fraction(1, 7), Fraction("0.03655"), Fraction(1, 2)):
            for seg_len in (0, 1, 16, 32, T):
                success = sum(math.comb(T, i) * (1 - pr) ** i * pr ** (T - i)
                              for i in range(seg_len, T + 1))
                assert success + seg_failure_prob(pr, T, seg_len) == 1

    def test_frozen_reference_value(self):
        # frozen from the independent exact-rational oracle run pre-build
        value = 1 - seg_failure_prob(Fraction("0.03655"), T, 32)
        assert abs(float(value) - 0.9999997676006575) < 1e-15

    def test_consistent_with_three_percent_design_point(self):
        # at the published (rounded) threshold the whole-polynomial failure
        # bound lands within 2e-4 of the 3% budget
        bound = mrp_failure_bound(Fraction("0.03655"), T, 32, 2048, 64)
        assert abs(float(bound) - 0.03) <= 2e-4

    def test_monotone_in_p_r_and_len(self):
        grid = [Fraction(i, 20) for i in range(0, 11)]
        for seg_len in (8, 16, 32):
            values = [seg_failure_prob(pr, T, seg_len) for pr in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for pr in (Fraction(1, 10), Fraction(1, 3)):
            by_len = [seg_failure_prob(pr, T, seg_len) for seg_len in (4, 8, 16, 32, 42)]
            assert all(a <= b for a, b in zip(by_len, by_len[1:]))

    def test_rejects_bad_probability(self):
        with pytest.raises(ParamsError):
            seg_failure_prob(Fraction(3, 2), T, 8)


class TestModelDomain:
    # inputs outside the model used to give impossible probabilities (a
    # negative bound for L < 0, a success and a failure summing to 0 for
    # t < 0), exceptions of the wrong type, or work without bound (t = 10000
    # took 44 s)
    @pytest.mark.parametrize("call", [
        lambda: seg_failure_prob(Fraction(1, 10), -1, 4),
        lambda: seg_failure_prob(Fraction(1, 10), T, -1),
        lambda: mrp_failure_bound(Fraction(1, 10), -1, 4, 8, 2),
        lambda: mrp_failure_bound(Fraction(1, 10), T, 4, 0, 2),
        lambda: mrp_failure_bound(Fraction(1, 10), T, 4, 8, 0),
        lambda: mrp_failure_bound(Fraction(1, 10), T, 4, 8, -3),
        lambda: mrp_failure_bound(Fraction(3, 2), T, 4, 8, 2),
        lambda: mrp_failure_bound(Fraction(1, 10), analytics.MAX_T + 1, 4, 8, 2),
        lambda: mrp_failure_bound(Fraction(1, 10), T, 4, analytics.MAX_N_SEG + 1, 2),
        lambda: mrp_failure_bound(Fraction(1, 10), T, 4, 8, analytics.MAX_L + 1),
        lambda: mrp_failure_bound(Fraction(1, analytics.MAX_DENOMINATOR + 1), T, 4, 8, 2),
        lambda: mrp_failure_bound(math.nan, T, 4, 8, 2),
        lambda: seg_failure_prob("abc", T, 4),
        lambda: mrp_failure_exact_base([2], T, 32, 8),
        lambda: mrp_failure_exact_base([], T, 32, 8),
        lambda: solve_p_r_max(T, 4, 8, 0, Fraction("0.03")),
        lambda: solve_p_r_max(analytics.MAX_T + 1, 4, 8, 2, Fraction("0.03")),
        lambda: fit_limb_count([(0, Fraction("0.03655"))], **FIT_ARGS),
        lambda: fit_limb_count([], **FIT_ARGS),
        lambda: fit_limb_count([(32, Fraction(3, 2))], **FIT_ARGS),
        lambda: fit_limb_count([(32, Fraction("0.03655"))], t=T, n_ring=1 << 14,
                               max_fail=Fraction("0.03"), l_range=(1, analytics.MAX_L + 1)),
    ], ids=["seg_failure-t", "seg_failure-len",
            "bound-t", "bound-n_seg", "bound-L0", "bound-L-3", "bound-p_r",
            "bound-t-169", "bound-n_seg-65537", "bound-L-2^32+1", "bound-den-2^64+1",
            "bound-p_r-nan", "seg_failure-p_r-abc", "exact-base-p_r-2", "exact-base-empty",
            "solve-L0", "solve-t-169",
            "fit-len0", "fit-empty", "fit-p_r", "fit-lmax-2^32+1"])
    def test_rejects_counts_outside_the_model(self, call):
        with pytest.raises(ParamsError):
            call()

    def test_refuses_a_wide_fit_span_at_once(self):
        # a p_r = 0 row (crossing +inf) and a p_r = 1 row (crossing 0) span
        # the whole range; scoring it took time linear in l_range
        start = time.perf_counter()
        with pytest.raises(ParamsError, match="4294967296 limb counts"):
            fit_limb_count([(32, 0), (32, 1)], t=T, n_ring=1 << 14,
                           max_fail=Fraction("0.03"), l_range=(1, 2 ** 32))
        assert time.perf_counter() - start < 1
        with pytest.raises(ParamsError):
            fit_limb_count([(32, 0), (32, 1)], t=T, n_ring=1 << 14, max_fail=Fraction("0.03"),
                           l_range=(1, analytics.MAX_FIT_SPAN + 1))
        L, _, _ = fit_limb_count([(32, 0), (32, 1)], t=T, n_ring=1 << 14,
                                 max_fail=Fraction("0.03"), l_range=(1, analytics.MAX_FIT_SPAN))
        assert L >= 1

    def test_accepts_the_edges(self):
        assert seg_failure_prob(Fraction(1, 10), 0, 0) == 0
        assert seg_failure_prob(Fraction(1, 10), 0, 1) == 1
        assert mrp_failure_bound(Fraction(1, 10), T, 0, 1, 1) == 0
        # seg_len > t cannot be met: certain failure, not a complex number
        assert mrp_failure_bound(Fraction(1, 10), T, T + 8, 8, 2) == 1
        top = mrp_failure_bound(Fraction(1, analytics.MAX_DENOMINATOR), analytics.MAX_T,
                                analytics.MAX_T, analytics.MAX_N_SEG, analytics.MAX_L)
        assert 0 < top < 1
        assert mrp_failure_bound(1, 1, 1, analytics.MAX_N_SEG, 1) == 1
        # an exact tail just below 1 whose float rounds to 1
        assert mrp_failure_bound(Fraction(2 ** 32 - 1, 2 ** 32), T, 4, 8, 2) == 1
        assert str(mrp_failure_bound(0, T, 32, 8, 2)) == "0.0"  # reports never show -0.0

    def test_fit_rows_at_p_r_zero_and_one(self):
        # p_r = 0 never fails (crossing at +inf, clamped to the top of the
        # range); p_r = 1 always fails (crossing 0, clamped to the bottom)
        assert fit_limb_count([(32, 0)], **FIT_ARGS)[0] == 8
        assert fit_limb_count([(32, 1)], **FIT_ARGS)[0] == 1


class TestPLimb:
    # one limb is the bound at L = 1; with one word per segment and one
    # acceptance needed (t = seg_len = 1) the segment tail is p_r itself
    def test_identity_cases(self):
        assert mrp_failure_bound(0, 1, 1, 2048, 1) == 0
        assert mrp_failure_bound(Fraction(1, 10), 1, 1, 1, 1) == pytest.approx(0.1, rel=1e-15)

    def test_exact_power(self):
        assert mrp_failure_bound(Fraction(1, 2), 1, 1, 10, 1) == 1 - 1 / 1024

    def test_two_routes_agree_to_ten_digits(self):
        # float conversion keeps ~15.9 digits, enough to verify 10
        cases = [
            (Fraction(1, 10 ** 7), 2048),
            (Fraction(1, 10 ** 9), 16384),
            (Fraction(1, 2 ** 20), 2048),
            (Fraction(3, 1000), 64),
        ]
        for seg_fail, n_seg in cases:
            exact_fail = float(1 - (1 - seg_fail) ** n_seg)
            float_fail = mrp_failure_bound(seg_fail, 1, 1, n_seg, 1)
            rel = abs(float_fail - exact_fail) / exact_fail
            assert rel < 1e-10, (seg_fail, n_seg, rel)

    def test_mrp_bound_two_routes(self):
        seg_fail = Fraction(1, 10 ** 6)
        n_seg, L = 2048, 24
        exact_fail = float(1 - ((1 - seg_fail) ** n_seg) ** L)
        float_fail = mrp_failure_bound(seg_fail, 1, 1, n_seg, L)
        assert abs(float_fail - exact_fail) / exact_fail < 1e-10


class TestPMrpBound:
    def test_single_limb_identity(self):
        # one limb of 2048 segments fails as 2048 limbs of one segment do
        p_r = Fraction("0.03655")
        limb = mrp_failure_bound(p_r, T, 32, 2048, 1)
        assert mrp_failure_bound(p_r, T, 32, 1, 2048) == pytest.approx(limb, rel=1e-14)

    def test_certain_success(self):
        assert mrp_failure_bound(0, T, 32, 2048, 40) == 0

    def test_bound_below_exact_product(self):
        # the worst-modulus bound never understates the failure of the base
        rng = random.Random(4)
        for _ in range(50):
            p_rs = [Fraction(1000 - rng.randrange(900, 1000), 1000) for _ in range(6)]
            bound = mrp_failure_bound(max(p_rs), T, 32, 8, len(p_rs))
            assert bound >= mrp_failure_exact_base(p_rs, T, 32, 8)

    def test_subnormal_tail_keeps_its_precision(self):
        # seg_fail is about 4e-320 (a subnormal with 14 significant bits);
        # the bound over 2^48 segments is about 1e-305, a normal float
        p_r, count = Fraction(1, 1 << 32), 1 << 48
        exact = float(count * seg_failure_prob(p_r, T, 9))
        got = mrp_failure_bound(p_r, T, 9, 1 << 16, 1 << 32)
        assert got == pytest.approx(exact, rel=1e-14, abs=0)


@st.composite
def _tail_points(draw) -> tuple[Fraction, int, int]:
    """(p_r, t, seg_len) with 0 < p_r = n/d < 1, d <= 2^64, and 1 <= seg_len
    <= t <= 168; n is drawn near 0, anywhere and near d, so the tail runs
    from near 1 down past the smallest float."""
    t = draw(st.integers(1, analytics.MAX_T))
    d = draw(st.integers(1, 64).flatmap(lambda bits: st.integers(2, 1 << bits)))
    n = draw(st.one_of(st.integers(1, min(d - 1, 16)), st.integers(1, d - 1),
                       st.integers(max(d - 16, 1), d - 1)))
    return Fraction(n, d), t, draw(st.integers(1, t))


class TestCertifiedBound:
    """mrp_failure_bound is within 1e-15 relative, or one subnormal (2^-1074)
    absolute, of the exact 1 - (1 - seg_fail)^(n_seg L) (analytics docstring)."""

    @settings(deadline=None, max_examples=300)
    @given(_tail_points(), st.integers(1, 1 << 16), st.integers(1, 1 << 32))
    # seg_fail about 7.9e-13, 1.9e-11 and 8.1e-10: between 2^-60 and 2^-30
    # the exponent must be count * log1p(-x), not -count * x
    @example((Fraction(2, 5), 42, 4), 1 << 14, 1)
    @example((Fraction(1, 2), 50, 4), 1 << 14, 1 << 6)
    @example((Fraction(1, 2), 44, 4), 1, 1)
    # at the switch point (2^-60), a subnormal tail, a tail within 1e-17 of
    # 1, the smallest tail the model admits (2^-10752), and the certain outcomes
    @example((Fraction(1, 2), 60, 1), 1 << 16, 1 << 32)
    @example((Fraction(1, 1 << 32), 42, 9), 1 << 16, 1 << 32)
    @example((Fraction((1 << 64) - 1, 1 << 64), 168, 1), 1, 1)
    @example((Fraction(1, 1 << 64), 168, 1), 1 << 16, 1 << 32)
    @example((Fraction(0), 42, 32), 1 << 16, 1 << 32)
    @example((Fraction(1, 3), 42, 43), 1, 1)
    def test_the_bound_is_within_its_stated_error(self, point, n_seg, L):
        p_r, t, seg_len = point
        exact = failure_decimal(seg_failure_prob(p_r, t, seg_len), n_seg * L)
        got = mrp_failure_bound(p_r, t, seg_len, n_seg, L)
        error = abs(Decimal(got) - exact)
        assert error <= max(Decimal("1e-15") * exact, Decimal(math.ulp(0.0))), (
            got, f"{exact:.20e}")


class TestExactBaseFailure:
    def test_matches_exact_rational(self):
        p_rs = [Fraction(1, 50), Fraction(1, 13)]
        t, seg_len, n_seg = 12, 4, 3
        exact = 1 - Fraction(
            np.prod([((1 - seg_failure_prob(pr, t, seg_len)) ** n_seg).numerator
                     for pr in p_rs], dtype=object),
            np.prod([((1 - seg_failure_prob(pr, t, seg_len)) ** n_seg).denominator
                     for pr in p_rs], dtype=object))
        got = mrp_failure_exact_base(p_rs, t, seg_len, n_seg)
        assert abs(float(got - exact)) < 1e-15


# Frozen from the earlier 50-digit mpmath implementation, before it was
# replaced by the closed forms: mp.gammainc(dof/2, x/2, regularized=True)
# under mp.workdps(50), and mrp_failure_bound(p_r_max, 42, len, 2^16 // len, 64)
# for each profiles.REFERENCE_ROWS entry, each rounded to the nearest float.
CHI2_ORACLE = (
    (1, 0.001, 0.9747728793699604),
    (1, 0.5, 0.4795001221869535),
    (1, 3.84, 0.050043521248705106),
    (1, 20.0, 7.744216431044084e-06),
    (1, 150.0, 1.7336432457178264e-34),
    (1, 700.0, 2.9902269751246203e-154),
    (1, 1140.0, 6.687331044880022e-250),
    (15, 0.5, 0.9999999982553599),
    (15, 8.0, 0.9237827033154675),
    (15, 15.0, 0.45141721122572526),
    (15, 30.0, 0.011921495938159695),
    (15, 100.0, 1.3047043436251444e-14),
    (15, 600.0, 3.550515213407699e-118),
    (15, 1215.0, 9.810345147556359e-250),
    (63, 10.0, 0.9999999999999982),
    (63, 50.0, 0.8826796923991101),
    (63, 63.0, 0.47630238333813013),
    (63, 90.0, 0.014414544792022973),
    (63, 300.0, 1.4349502937271767e-32),
    (63, 800.0, 3.2493483123215753e-128),
    (63, 1395.0, 4.5655828143060886e-250),
    (255, 180.0, 0.999886525243617),
    (255, 230.0, 0.8677123729764725),
    (255, 255.0, 0.48822252177040637),
    (255, 300.0, 0.02772752205390483),
    (255, 600.0, 7.531973752278672e-30),
    (255, 1200.0, 3.430921792988743e-122),
    (255, 1905.0, 6.253315546623996e-250),
)
BOUND_ORACLE = (
    ("0.03655", 32, 0.030001787393605418),
    ("0.25305", 16, 0.029997053830913997),
    ("0.42359", 8, 0.03001223980902452),
    ("0.5", 4, 0.002948221122936414),
)


def _decimal_pi() -> Decimal:
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239), at the context precision."""
    def atan_inv(n):
        total = term = Decimal(1) / n
        k = 1
        while True:
            term /= -n * n
            if total + term / (2 * k + 1) == total:
                return total
            total += term / (2 * k + 1)
            k += 1

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _decimal_chi_square_sf(x: float, dof: int, digits: int = 50) -> float:
    """Q(dof/2, x/2) to 50 significant digits, from the same A&S 26.4.4-26.4.5
    sum with erfc(sqrt(h)) = 1 - erf(sqrt(h)) by its positive Taylor series,
    carrying h / ln 10 extra digits for that subtraction."""
    with localcontext() as ctx:
        ctx.prec = digits + 20 + (int(x / 4.6) if dof % 2 else 0)
        h = Decimal(x) / 2
        if dof % 2:
            sqrt_pi = _decimal_pi().sqrt()
            term = series = h.sqrt()  # erf(z) = 2/sqrt(pi) e^-z^2 sum 2^n z^(2n+1)/(2n+1)!!
            n = 0
            while n < h or term > series.scaleb(-ctx.prec):
                n += 1
                term *= 2 * h / (2 * n + 1)
                series += term
            total = 1 - 2 / sqrt_pi * (-h).exp() * series
            term, s = 2 * h.sqrt() * (-h).exp() / sqrt_pi, Decimal(1) / 2
        else:
            total, term, s = Decimal(0), (-h).exp(), 0
        for j in range(dof // 2):
            if j:
                term *= h / (j + s)
            total += term
        return float(total)


class TestFrozenOracles:
    @pytest.mark.parametrize("dof, x, p", CHI2_ORACLE)
    def test_chi_square_tail(self, dof, x, p):
        assert analytics._chi_square_sf(x, dof) == pytest.approx(p, rel=1e-12, abs=0)

    @pytest.mark.parametrize("dof", [1, 63, 1023])
    def test_chi_square_tail_against_decimal(self, dof):
        # each term comes from the largest one by the ratio h/(j+s), so the
        # error is about one ulp plus one per e-fold of the tail's smallness
        # (the rounded exponent); p-values below 1e-300 would be subnormal
        rng = random.Random(dof)
        xs = [dof * f for f in (0.01, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0)]
        xs += [rng.uniform(0, 3 * dof + 30) for _ in range(8)]
        xs += [rng.uniform(3 * dof + 30, dof + 1300) for _ in range(4)]
        for x in xs:
            want = _decimal_chi_square_sf(x, dof)
            assert want > 1e-300
            got = analytics._chi_square_sf(x, dof)
            assert abs(got - want) <= 4 * 2 ** -52 * (1 + math.log(1 / want)) * want, x

    @pytest.mark.parametrize("p_r, seg_len, bound", BOUND_ORACLE)
    def test_reference_row_bound(self, p_r, seg_len, bound):
        got = mrp_failure_bound(Fraction(p_r), T, seg_len, (1 << 16) // seg_len, 64)
        assert got == pytest.approx(bound, rel=1e-12, abs=0)


class TestSolvePrMax:
    def test_everything_allowed(self):
        assert solve_p_r_max(T, 32, 2048, 64, 1) == 1

    def test_solution_sits_on_budget_boundary(self):
        sol = solve_p_r_max(T, 16, 4096, 64, Fraction("0.03"))
        assert float(mrp_failure_bound(sol, T, 16, 4096, 64)) <= 0.03
        bumped = sol + Fraction(1, 10 ** 6)
        assert float(mrp_failure_bound(bumped, T, 16, 4096, 64)) > 0.03

    def test_a_tie_with_the_budget_returns_the_endpoint(self):
        # the first midpoint, 1/2, meets a budget equal to its own bound exactly
        budget = mrp_failure_bound(Fraction(1, 2), 42, 4, 1, 1)
        assert solve_p_r_max(42, 4, 1, 1, budget) == Fraction(1, 2)

    def test_monotone_in_len(self):
        n_ring = 1 << 16
        sols = [solve_p_r_max(T, seg_len, n_ring // seg_len, 64, Fraction("0.03"))
                for seg_len in (8, 16, 32)]
        assert sols[0] > sols[1] > sols[2]

    def test_monotone_in_budget(self):
        loose = solve_p_r_max(T, 32, 2048, 64, Fraction("0.2"))
        tight = solve_p_r_max(T, 32, 2048, 64, Fraction("0.01"))
        assert loose > tight

    def test_infeasible_request(self):
        with pytest.raises(ParamsError):
            solve_p_r_max(T, T + 1, 2, 2, Fraction("0.03"))


class TestFitLimbCount:
    @pytest.mark.parametrize("true_l", [1, 17, 40])
    def test_round_trips_synthetic_rows(self, true_l):
        rows = [(seg_len, solve_p_r_max(T, seg_len, (1 << 14) // seg_len, true_l,
                                        Fraction("0.03")))
                for seg_len in (32, 16, 8)]
        L, residual, _ = fit_limb_count(rows, t=T, n_ring=1 << 14,
                                        max_fail=Fraction("0.03"), l_range=(1, 40))
        assert L == true_l
        assert residual < 1e-6

    def test_no_fit_is_a_value(self):
        rows = [(32, Fraction("0.4")), (16, Fraction("0.05"))]  # inconsistent pair
        _, residual, _ = fit_limb_count(rows, t=T, n_ring=1 << 14,
                                        max_fail=Fraction("0.03"), l_range=(1, 8))
        assert residual > 0.0005


class TestSeedSpace:
    def test_identity_when_certain(self):
        assert seed_space_bits(288, 1) == 288

    def test_half_probability_costs_one_bit(self):
        assert seed_space_bits(288, Fraction(1, 2)) == 287

    def test_three_percent_budget_keeps_near_full_space(self):
        bits = seed_space_bits(288, Fraction("0.97"))
        assert bits > 287.95

    def test_rejects_zero(self):
        with pytest.raises(ParamsError):
            seed_space_bits(288, 0)


class TestEmpiricalFailureRate:
    def test_safe_profile_never_fails(self, desk_params):
        failures, analytic = empirical_failure_rate(desk_params, 50,
                                                    seed_source_from_rng(random.Random(2)))
        assert failures == 0
        assert analytic < 1e-6

    def test_rejects_zero_trials(self, desk_params):
        with pytest.raises(ParamsError):
            empirical_failure_rate(desk_params, 0,
                                   seed_source_from_rng(random.Random(2)))


class TestChiSquareUniformity:
    def test_perfectly_stratified(self):
        q, bins = 128, 64
        coeffs = np.tile(np.arange(q, dtype=np.uint32), 8)
        statistic, _ = chi_square_uniformity(q, coeffs, bins)
        assert statistic == pytest.approx(0)

    def test_constant_residue_is_rejected(self):
        coeffs = np.full(1024, 7, dtype=np.uint32)
        _, p_value = chi_square_uniformity(97, coeffs, 16)
        assert p_value < 1e-12

    def test_uneven_bin_widths_stay_unbiased(self):
        # q = 97 does not divide into 16 bins evenly; exact stratification
        # must still produce a tiny statistic
        q, bins = 97, 16
        coeffs = np.tile(np.arange(q, dtype=np.uint32), 32)
        _, p_value = chi_square_uniformity(q, coeffs, bins)
        assert p_value > 0.999

    @pytest.mark.parametrize("bins", [2, 3, 5])
    def test_p_value_matches_closed_form(self, bins):
        # the chi-square survival function is elementary at small dof:
        # erfc(sqrt(x/2)) at dof 1, exp(-x/2) at dof 2, exp(-x/2) * (1 + x/2) at 4
        q = 97
        values = list(range(q)) + list(range(40)) + [5] * 12
        counts = [0] * bins
        for v in values:
            counts[v * bins // q] += 1
        starts = [-(-b * q // bins) for b in range(bins + 1)]
        expected = [Fraction(len(values) * (hi - lo), q) for lo, hi in zip(starts, starts[1:])]
        x = float(sum((c - e) ** 2 / e for c, e in zip(counts, expected)))
        closed = {2: math.erfc(math.sqrt(x / 2)), 3: math.exp(-x / 2),
                  5: math.exp(-x / 2) * (1 + x / 2)}[bins]
        coeffs = np.array(values, dtype=np.uint32)
        report = chi_square_uniformity(q, coeffs, bins)
        statistic, p_value = report
        assert statistic == pytest.approx(x, rel=1e-12)
        assert p_value == pytest.approx(closed, rel=1e-12)
        assert 1e-6 < p_value < 0.5
        # generated words are unreduced: coeffs + k*q, k up to floor(2^32/q) - 1
        k = np.arange(len(values), dtype=np.uint32) * np.uint32((2 ** 32 // q - 1) // len(values))
        assert chi_square_uniformity(q, coeffs + k * np.uint32(q), bins) == report

    def test_requires_enough_samples(self):
        with pytest.raises(ParamsError):
            chi_square_uniformity(97, np.zeros(100, dtype=np.uint32), 64)

    def test_requires_two_bins(self):
        with pytest.raises(ParamsError):
            chi_square_uniformity(97, np.zeros(1024, dtype=np.uint32), 1)

    @pytest.mark.parametrize("q", [0, 1, 2 ** 32, 2 ** 64])
    def test_requires_a_32_bit_modulus(self, q):
        with pytest.raises(ParamsError, match="q must be in 2..2"):
            chi_square_uniformity(q, np.zeros(1024, dtype=np.uint32), 16)
