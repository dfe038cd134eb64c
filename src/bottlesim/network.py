"""Static two-route congestion model.

Two independent, non-overlapping routes connect one origin-destination
pair.  Travel time on each route depends only on the number of vehicles
using it, through the classic BPR volume-delay curve

    t(q) = t0 * (1 + (q / Q) ** b)

with free-flow time t0, capacity Q and exponent b > 1.  The curve is
strictly increasing and is deliberately evaluated beyond capacity:
demand above Q simply produces steeply growing delays, there is no hard
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def is_finite(x) -> bool:
    """``math.isfinite(x)``, but False rather than OverflowError for an int too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RouteParams:
    """BPR parameters of a single route."""

    # Free-flow travel time in minutes (empty road).
    free_flow_time: float
    # Vehicles per modelled interval at which delay doubles.
    capacity: float
    # Congestion exponent, must exceed 1 for a convex delay curve.
    exponent: float

    def __post_init__(self) -> None:
        if not (self.free_flow_time > 0 and is_finite(self.free_flow_time)):
            raise ValueError(f"free_flow_time must be a finite number > 0, got {self.free_flow_time}")
        if not (self.capacity > 0 and is_finite(self.capacity)):
            raise ValueError(f"capacity must be a finite number > 0, got {self.capacity}")
        if not (self.exponent > 1 and is_finite(self.exponent)):
            raise ValueError(f"exponent must be a finite number > 1, got {self.exponent}")


@dataclass(frozen=True)
class TwoRouteNetwork:
    """A short low-capacity route A next to a long high-capacity route B."""

    route_a: RouteParams
    route_b: RouteParams

    @staticmethod
    def default() -> "TwoRouteNetwork":
        """Baseline bottleneck: A = (5 min, 500 veh), B = (15 min, 800 veh), b = 2."""
        return TwoRouteNetwork(
            route_a=RouteParams(free_flow_time=5.0, capacity=500.0, exponent=2.0),
            route_b=RouteParams(free_flow_time=15.0, capacity=800.0, exponent=2.0),
        )


def _bpr(params: RouteParams, flow):
    """The BPR curve on a float or float64 array, without input checks."""
    return params.free_flow_time * (1.0 + (flow / params.capacity) ** params.exponent)


def bpr_travel_time(params: RouteParams, flow):
    """Travel time in minutes for the given flow.

    Accepts a nonnegative scalar or ndarray of flows; integer counts are
    the normal case but real values are allowed so optimizers and tests
    can probe the curve continuously.  A Python ``int`` or ``float`` is
    evaluated on Python floats, which gives the same bits as the 0-d
    numpy evaluation at a fraction of its cost; a result too large for a
    float falls back to numpy, which returns inf.
    """
    if type(flow) is int or type(flow) is float:
        if flow < 0:
            raise ValueError("flow must be nonnegative")
        try:
            return _bpr(params, flow)
        except OverflowError:
            pass
    flow = np.asarray(flow, dtype=np.float64)
    if np.any(flow < 0):
        raise ValueError("flow must be nonnegative")
    result = _bpr(params, flow)
    if result.ndim == 0:
        return float(result)
    return result


def network_travel_times(network: TwoRouteNetwork, q_a: float, q_b: float) -> tuple[float, float]:
    """Travel times (t_a, t_b) for simultaneous flows on both routes."""
    return (
        bpr_travel_time(network.route_a, q_a),
        bpr_travel_time(network.route_b, q_b),
    )
