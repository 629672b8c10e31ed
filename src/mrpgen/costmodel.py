"""First-order wiring cost of feeding pseudorandom words to parallel lanes.

An accelerator with R lanes of w-bit units at clock f consumes randomness at
TP = gamma * R * w * f bits per second (gamma = fraction of cycles that
need a fresh uniform word).  Producing that stream in one central unit makes
every bit travel an average Manhattan distance of half the die side; the
model prices exactly that data movement.  Placing a small generator next to
each lane group shrinks the distance to a local hop and removes the cost,
which is the whole argument for distributing the generation.
"""

import math
import sys
from dataclasses import dataclass

from .errors import ParamsError


@dataclass(frozen=True)
class CostParams:
    """Accelerator-scale parameters for the wiring model.

    R lanes of w-bit units at f_hz, occupancy gamma in (0, 1]; square die of
    side d_mm; wire energy e_j_per_bit_mm in joules per bit-millimeter.
    """

    R: int
    w: int
    f_hz: float
    gamma: float
    d_mm: float
    e_j_per_bit_mm: float

    def __post_init__(self):
        # finite means at most the largest float: a larger int (R, w) would
        # raise OverflowError where the model converts it
        for name in ("R", "w", "f_hz", "gamma", "d_mm"):
            if not 0 < getattr(self, name) <= sys.float_info.max:
                raise ParamsError(f"{name} must be positive and finite")
        if not 0 <= self.e_j_per_bit_mm <= sys.float_info.max:
            raise ParamsError("wire energy must be non-negative and finite")
        if self.gamma > 1:
            raise ParamsError("gamma is a fraction of cycles, at most 1")


def _product(*factors: float) -> float:
    """The product of non-negative finite factors, taken left to right.

    Only if that is not finite is it taken again, multiplying by the smallest
    factor left while the partial product is at least 1 and by the largest
    otherwise.  Those partials stay within the range of 1, the factors and
    the result, so a finite result comes out finite even when a left-to-right
    partial overflows, and every nonzero result that is finite left to right
    keeps its bits.  A zero product is +0.0, also when a factor is -0.0.
    """
    value = math.prod(factors)
    if not math.isfinite(value):
        rest = sorted(factors)
        value = 1.0
        while rest:
            value *= rest.pop(0) if value >= 1 else rest.pop()
    return value or 0.0


def required_throughput(p: CostParams) -> float:
    """Peak uniform-word demand gamma * R * w * f in bits per second."""
    return _product(p.gamma, p.R, p.w, p.f_hz)


def central_wiring_power(p: CostParams) -> float:
    """Watts spent hauling the stream an average of d/2 mm from one unit."""
    return _product(required_throughput(p), p.d_mm / 2.0, p.e_j_per_bit_mm)


def per_axis_bandwidth_density(p: CostParams) -> float:
    """Bits per second crossing each millimeter of the die cross-section.

    The stream splits across the two axes over the full d-wide section,
    hence TP / (2 d); density near the central unit itself is far higher.
    Dividing by d first keeps a finite d from overflowing 2 d to infinity.
    """
    return required_throughput(p) / p.d_mm / 2.0


def distributed_wiring_power(p: CostParams, local_hop_mm: float = 0.0) -> float:
    """Wiring power with generation placed next to the consuming lanes.

    The long-reach travel term disappears; an optional local hop distance
    prices the remaining adjacency wiring for sensitivity studies.
    """
    if not 0 <= local_hop_mm < math.inf:
        raise ParamsError("local hop distance must be non-negative and finite")
    return _product(required_throughput(p), local_hop_mm, p.e_j_per_bit_mm)


@dataclass(frozen=True)
class CostReport:
    """Central-versus-distributed comparison in SI and display units."""

    throughput_bps: float
    central_power_w: float
    distributed_power_w: float
    per_axis_density_bps_per_mm: float

    @property
    def throughput_tbps(self) -> float:
        return self.throughput_bps / 1e12

    @property
    def per_axis_density_tbps_per_mm(self) -> float:
        return self.per_axis_density_bps_per_mm / 1e12

    @property
    def saving_w(self) -> float:
        return self.central_power_w - self.distributed_power_w


def build_cost_report(p: CostParams, local_hop_mm: float = 0.0) -> CostReport:
    """The report; ParamsError naming the first result that overflows a float."""
    report = CostReport(
        throughput_bps=required_throughput(p),
        central_power_w=central_wiring_power(p),
        distributed_power_w=distributed_wiring_power(p, local_hop_mm),
        per_axis_density_bps_per_mm=per_axis_bandwidth_density(p),
    )
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise ParamsError(f"{name} is not finite ({value}): the inputs are too large")
    return report
