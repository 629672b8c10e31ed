import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpgen import (CostParams, ParamsError, build_cost_report, central_wiring_power,
                    distributed_wiring_power, per_axis_bandwidth_density,
                    required_throughput)


def reference_params(**overrides):
    fields = dict(R=16384, w=32, f_hz=1e9, gamma=0.125, d_mm=15.0,
                  e_j_per_bit_mm=40e-15)
    fields.update(overrides)
    return CostParams(**fields)


class TestThroughput:
    def test_reference_point(self):
        assert required_throughput(reference_params()) == pytest.approx(65.536e12)

    def test_full_occupancy(self):
        p = reference_params(gamma=1.0)
        assert required_throughput(p) == pytest.approx(p.R * p.w * p.f_hz)

    def test_rejects_zero_lanes(self):
        with pytest.raises(ParamsError):
            reference_params(R=0)

    @pytest.mark.parametrize("field", ["R", "f_hz", "gamma", "d_mm", "e_j_per_bit_mm"])
    def test_rejects_nan_and_infinity(self, field):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParamsError):
                reference_params(**{field: value})

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ParamsError):
            reference_params(gamma=1.5)


class TestCentralPower:
    def test_reference_point(self):
        assert central_wiring_power(reference_params()) == pytest.approx(19.6608)

    def test_free_wires(self):
        assert central_wiring_power(reference_params(e_j_per_bit_mm=0.0)) == 0.0

    def test_linear_in_throughput(self):
        base = central_wiring_power(reference_params())
        doubled = central_wiring_power(reference_params(R=2 * 16384))
        assert doubled == pytest.approx(2 * base)


class TestBandwidthDensity:
    def test_reference_point(self):
        assert per_axis_bandwidth_density(reference_params()) / 1e12 == pytest.approx(
            2.1845, abs=1e-3)

    def test_vanishes_on_huge_die(self):
        assert per_axis_bandwidth_density(reference_params(d_mm=1e12)) < 1e2

    def test_a_finite_die_does_not_overflow_to_zero(self):
        # 2 d overflows at d = 1e308; the density is TP / d / 2
        p = reference_params(d_mm=1e308)
        assert per_axis_bandwidth_density(p) == required_throughput(p) / 1e308 / 2 > 0

    def test_zero_throughput_limit(self):
        tiny = reference_params(gamma=1e-12)
        assert per_axis_bandwidth_density(tiny) == pytest.approx(0, abs=1e6)


class TestDistributed:
    def test_default_is_free(self):
        assert distributed_wiring_power(reference_params()) == 0.0

    def test_local_hop_term(self):
        p = reference_params()
        expected = required_throughput(p) * 0.1 * p.e_j_per_bit_mm
        assert distributed_wiring_power(p, local_hop_mm=0.1) == pytest.approx(expected)

    def test_never_beats_central_on_any_grid_point(self):
        for r_lanes in (1024, 16384, 65536):
            for gamma in (0.05, 0.125, 1.0):
                for d_mm in (5.0, 15.0, 30.0):
                    p = reference_params(R=r_lanes, gamma=gamma, d_mm=d_mm)
                    for hop in (0.0, 0.1, d_mm / 2):
                        assert distributed_wiring_power(p, hop) <= central_wiring_power(p)

    def test_rejects_negative_hop(self):
        with pytest.raises(ParamsError):
            distributed_wiring_power(reference_params(), -1.0)


class TestOverflowingPartials:
    # each product here overflows in a left-to-right partial product, but
    # is itself far below the largest float
    def test_central_power(self):
        p = reference_params(d_mm=1e308)
        assert central_wiring_power(p) == pytest.approx(1.31072e308, rel=1e-15)

    def test_distributed_power(self):
        p = reference_params(e_j_per_bit_mm=1e-25)
        assert distributed_wiring_power(p, 1e300) == pytest.approx(6.5536e288, rel=1e-15)

    def test_throughput(self):
        p = reference_params(R=10 ** 200, w=10 ** 200, f_hz=1e-300)
        assert required_throughput(p) == pytest.approx(1.25e99, rel=1e-15)

    def test_a_zero_factor_gives_zero_not_nan(self):
        assert distributed_wiring_power(reference_params(d_mm=1e308, e_j_per_bit_mm=0.0),
                                        1e308) == 0.0

    @settings(max_examples=300)
    @given(st.integers(1, 2 ** 20), st.floats(1e-300, 1e300), st.floats(1e-300, 1e308),
           st.floats(1e-300, 1e300))
    def test_matches_left_to_right_or_the_exact_product(self, lanes, f_hz, d_mm, energy):
        p = reference_params(R=lanes, f_hz=f_hz, d_mm=d_mm, e_j_per_bit_mm=energy)
        tp = required_throughput(p)
        watts = central_wiring_power(p)
        left_to_right = tp * (d_mm / 2) * energy
        exact = math.prod(Fraction(f) for f in (tp, d_mm / 2, energy))
        if math.isfinite(left_to_right):
            assert watts == left_to_right
        elif exact < 2 ** 1023:
            assert watts == pytest.approx(float(exact), rel=1e-15)
        elif exact > 2 ** 1024:
            assert watts == math.inf


class TestScaling:
    def test_linear_in_each_factor(self):
        base = reference_params()
        tp = required_throughput(base)
        assert required_throughput(reference_params(w=64)) == pytest.approx(2 * tp)
        assert required_throughput(reference_params(f_hz=2e9)) == pytest.approx(2 * tp)
        assert required_throughput(reference_params(gamma=0.25)) == pytest.approx(2 * tp)

    def test_dimensional_round_trip(self):
        # Tbps x mm x fJ/bit/mm must come back as watts
        p = reference_params()
        tbps = required_throughput(p) / 1e12
        fj = p.e_j_per_bit_mm / 1e-15
        watts = (tbps * 1e12) * (p.d_mm / 2) * (fj * 1e-15)
        assert central_wiring_power(p) == pytest.approx(watts)


class TestReport:
    def test_refuses_a_result_that_overflows(self):
        # 6.5536e13 b/s x 5e307 mm x 1e-12 J/bit/mm is 3.3e309 W in any order
        with pytest.raises(ParamsError, match="central_power_w is not finite"):
            build_cost_report(reference_params(d_mm=1e308, e_j_per_bit_mm=1e-12))

    def test_report_fields(self):
        report = build_cost_report(reference_params())
        assert report.throughput_bps == pytest.approx(65.536e12)
        assert report.central_power_w == pytest.approx(19.66, abs=0.01)
        assert report.distributed_power_w == 0.0
        assert report.per_axis_density_bps_per_mm == pytest.approx(2.18e12, abs=0.01e12)
