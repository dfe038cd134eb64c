"""Scalar per-driver human model: the oracle the vectorized engine is checked against.

Each driver carries a pair of taste constants, one per route, drawn once
from a max-Gumbel distribution with scale ``beta`` and location
``-beta * EULER_MASCHERONI`` so the taste has mean 0 and variance
``pi**2 * beta**2 / 6``.  Every day the driver picks the route with the
highest perceived utility

    U_r = -T_r + eps_r

where T_r is the driver's private travel-time estimate, except with a
small probability ``epsilon`` the choice is uniformly random
(exploration).  After travelling, only the estimate of the route
actually used is updated, by an exponential filter with learning rate
``alpha``; the unused route's estimate is left untouched.

The functions here are scalar, per-driver reference implementations.
``bottlesim.engine`` vectorizes the same arithmetic over the whole
population; the tests assert that both agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bottlesim import SimulationState, network_travel_times

ROUTE_A = "A"
ROUTE_B = "B"

EULER_MASCHERONI = 0.5772156649015329


@dataclass(frozen=True)
class TasteProfile:
    """Per-driver taste constants, in minutes-equivalent units, fixed for life."""

    eps_a: float
    eps_b: float


@dataclass(frozen=True)
class EstimateVector:
    """A driver's current private estimates of the two travel times."""

    t_a_hat: float
    t_b_hat: float


@dataclass
class HumanAgent:
    """One human driver: identity, tastes, estimates, and last route used."""

    id: int
    tastes: TasteProfile
    estimates: EstimateVector
    last_route: str | None = None


def bpr_table(network, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each route's time at every flow 0..n, the table a state builds: (t_a, t_b) float64 arrays."""
    x = np.arange(n + 1.0)
    return network_travel_times(network, x, x)


def sample_taste(random_draw: float, taste_spread: float) -> float:
    """Map a uniform (0,1) draw to a zero-mean max-Gumbel taste.

    Inverse-CDF transform x = mu - beta * ln(-ln(u)) with location
    mu = -beta * EULER_MASCHERONI, which centres the distribution at 0.
    """
    if not 0.0 < random_draw < 1.0:
        raise ValueError(f"random_draw must be inside (0, 1), got {random_draw}")
    if not taste_spread > 0:
        raise ValueError(f"taste_spread must be > 0, got {taste_spread}")
    mu = -taste_spread * EULER_MASCHERONI
    return mu - taste_spread * math.log(-math.log(random_draw))


def perceived_utility(agent: HumanAgent, route: str) -> float:
    """Perceived utility of a route: negated time estimate plus taste."""
    if route == ROUTE_A:
        return -agent.estimates.t_a_hat + agent.tastes.eps_a
    if route == ROUTE_B:
        return -agent.estimates.t_b_hat + agent.tastes.eps_b
    raise ValueError(f"unknown route {route!r}")


def choose_route(
    agent: HumanAgent,
    explore_draw: float,
    route_draw: float,
    explore_rate: float,
) -> str:
    """Daily route decision: utility maximization with uniform exploration.

    With probability ``explore_rate`` (decided by ``explore_draw``) the
    route is uniformly random (``route_draw`` < 0.5 means A, which may
    re-select the best route).  Otherwise the higher-utility route wins;
    exact utility ties resolve to A so repeated runs are reproducible.
    """
    if explore_draw < explore_rate:
        return ROUTE_A if route_draw < 0.5 else ROUTE_B
    u_a = perceived_utility(agent, ROUTE_A)
    u_b = perceived_utility(agent, ROUTE_B)
    return ROUTE_A if u_a >= u_b else ROUTE_B


def update_estimate(
    estimates: EstimateVector,
    route_taken: str,
    experienced_time: float,
    learning_rate: float,
) -> EstimateVector:
    """Blend the experienced time into the estimate of the route taken.

    New estimate = (1 - alpha) * old + alpha * experienced; the unused
    route's estimate is returned unchanged.
    """
    if not experienced_time > 0:
        raise ValueError(f"experienced_time must be > 0, got {experienced_time}")
    if not 0.0 <= learning_rate <= 1.0:
        raise ValueError(f"learning_rate must be in [0, 1], got {learning_rate}")
    if route_taken == ROUTE_A:
        new_a = (1.0 - learning_rate) * estimates.t_a_hat + learning_rate * experienced_time
        return EstimateVector(t_a_hat=new_a, t_b_hat=estimates.t_b_hat)
    if route_taken == ROUTE_B:
        new_b = (1.0 - learning_rate) * estimates.t_b_hat + learning_rate * experienced_time
        return EstimateVector(t_a_hat=estimates.t_a_hat, t_b_hat=new_b)
    raise ValueError(f"unknown route {route_taken!r}")


def logit_probability(t_a_hat: float, t_b_hat: float, taste_spread: float) -> float:
    """Analytic probability of choosing A under the logit model.

    P(A) = exp(-T_A/beta) / (exp(-T_A/beta) + exp(-T_B/beta)).  Serves as
    a closed-form reference for the sampled choice model; the largest
    exponent is factored out first so extreme estimates cannot overflow.
    """
    if not taste_spread > 0:
        raise ValueError(f"taste_spread must be > 0, got {taste_spread}")
    x_a = -t_a_hat / taste_spread
    x_b = -t_b_hat / taste_spread
    m = max(x_a, x_b)
    e_a = math.exp(x_a - m)
    e_b = math.exp(x_b - m)
    s = e_a + e_b
    # Return the minority share directly and the majority as its exact
    # complement, so swapping the arguments sums to 1.0 without rounding
    # residue.
    if e_a <= e_b:
        return e_a / s
    return 1.0 - e_b / s


def agent_snapshot(state: SimulationState, agent_id: int, row: int = 0) -> HumanAgent:
    """Snapshot of one driver's stored state in one row of the engine's arrays."""
    block = next(b for b in state.blocks if b.first <= row < b.first + b.rows)
    i = block.start + (row - block.first) * block.n + agent_id  # the driver's flat index
    return HumanAgent(
        id=agent_id,
        tastes=TasteProfile(eps_a=float(state.tastes[0, i]), eps_b=float(state.tastes[1, i])),
        estimates=EstimateVector(t_a_hat=float(state.estimates[0, i]), t_b_hat=float(state.estimates[1, i])),
        # No route is committed before day 1.
        last_route=None if state.day == 1 else (ROUTE_B if state.last_route[i] else ROUTE_A),
    )
