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
import reprlib
from dataclasses import dataclass

import numpy as np


def is_finite_number(x) -> bool:
    """Whether ``x`` is a finite real number: False for a bool, a non-number and an int too large for a float."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (OverflowError, TypeError):
        return False


_REPR = reprlib.Repr()
_REPR.repr_int = lambda x, level: repr(x)


def quoted(value) -> str:
    """``value`` for an error message: its ``reprlib`` repr, cut to 200 characters.

    reprlib shows six items and six levels of a list, so a value nested as
    deep as ``json.loads`` accepts prints in a few characters.  Its ints keep
    Python's repr, which refuses one past the 4,300-digit limit on every
    version; the value then prints as its type: ``<int too long to print>``.
    """
    try:
        text = _REPR.repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 200 else text[:197] + "..."


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
        """Check each field and store it as a Python float."""
        for name, low in (("free_flow_time", 0), ("capacity", 0), ("exponent", 1)):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > low):
                raise ValueError(f"{name} must be a finite number > {low}, got {quoted(value)}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class TwoRouteNetwork:
    """A short low-capacity route A next to a long high-capacity route B."""

    route_a: RouteParams
    route_b: RouteParams

    def __post_init__(self) -> None:
        for name in ("route_a", "route_b"):
            if not isinstance(getattr(self, name), RouteParams):
                raise ValueError(f"{name} must be a RouteParams, got {quoted(getattr(self, name))}")

    @staticmethod
    def default() -> "TwoRouteNetwork":
        """Baseline bottleneck: A = (5 min, 500 veh), B = (15 min, 800 veh), b = 2."""
        return TwoRouteNetwork(
            route_a=RouteParams(free_flow_time=5.0, capacity=500.0, exponent=2.0),
            route_b=RouteParams(free_flow_time=15.0, capacity=800.0, exponent=2.0),
        )


def bpr_travel_time(params: RouteParams, flow):
    """Travel time in minutes for the given flow.

    Accepts a nonnegative scalar or ndarray of flows; integer counts are
    the normal case but real values are allowed so optimizers and tests
    can probe the curve continuously.  A scalar is evaluated as a
    one-element float64 array, so its time has the bits of its entry in a
    BPR table (see ``network_travel_times``), and is returned as a Python
    float; an array gives an array of its shape.  A time too large for a
    float is inf, without a warning; an int too large for a float raises
    numpy's OverflowError.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if (flow < 0).any():
        raise ValueError("flow must be nonnegative")
    with np.errstate(over="ignore"):
        result = params.free_flow_time * (1.0 + (np.atleast_1d(flow) / params.capacity) ** params.exponent)
    return float(result[0]) if flow.ndim == 0 else result


def network_travel_times(network: TwoRouteNetwork, q_a: float, q_b: float) -> tuple[float, float]:
    """Travel times (t_a, t_b) for simultaneous flows on both routes.

    Each route's time at a flow has the same bits wherever the flow sits in
    an array, and as a scalar: ``x = np.arange(n + 1.0)`` gives the BPR
    table up to n vehicles that a ``SimulationState`` and
    ``metrics.system_optimum`` build, and ``fleet_optimize`` slices.
    """
    return (
        bpr_travel_time(network.route_a, q_a),
        bpr_travel_time(network.route_b, q_b),
    )
