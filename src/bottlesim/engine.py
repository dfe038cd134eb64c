"""Day-to-day simulation loop: commit, optimize, travel, learn.

A scenario runs for four consecutive phases (default 100 days each):
human-only warm-up, human-only observation, re-stabilization after a
share of drivers is handed to the coordinated fleet, and a final
observation phase.  The hand-over happens between phases two and three:
the drivers with the highest indices stop acting individually and
become fleet vehicles, while the survivors keep their tastes, travel
time estimates and last routes.

Each simulated day executes in a fixed order:

1. every human driver commits a route (uniformly at random on day 1,
   by noisy utility maximization afterwards);
2. the fleet, which observes the committed human counts, picks its own
   split by exhaustive objective minimization;
3. combined flows determine the two travel times;
4. every human driver folds the experienced time into the estimate of
   the route it took;
5. per-group means are recorded.

Determinism: a single numpy PCG64 generator (``numpy.random.default_rng``)
is seeded from the config and consumed in a fully specified order --
first two taste draws per driver in index order (route A then B), then
per day two draws per current human driver in index order (exploration
coin first, route coin second).  Day 1 consumes the exploration coin
too, even though it is ignored, so later days never depend on day-1
semantics.  Runs with equal configs are therefore identical; fleet
vehicles consume no randomness at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fleet import STRATEGY_NAMES, StrategyWeights, fleet_optimize, strategy_weights
from .metrics import day_statistics
from .network import TwoRouteNetwork, network_travel_times


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class HumanParams:
    """Behavioural knobs shared by the whole human population.

    Each driver draws two fixed tastes, one per route, from a zero-mean
    max-Gumbel distribution with scale ``taste_spread``.  Every day it
    takes the route with the higher ``taste - estimate`` (ties to A),
    except that with probability ``explore_rate`` it picks uniformly.
    Only the estimate of the route taken moves, to
    ``(1 - learning_rate) * old + learning_rate * experienced``.
    """

    # Weight of the most recent experience in the estimate update.
    learning_rate: float = 0.2
    # Probability of ignoring utility and picking a route uniformly.
    explore_rate: float = 0.1
    # Gumbel scale of the taste distribution; larger = more subjective.
    taste_spread: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if not 0.0 <= self.explore_rate <= 1.0:
            raise ValueError(f"explore_rate must be in [0, 1], got {self.explore_rate}")
        if not (self.taste_spread > 0 and math.isfinite(self.taste_spread)):
            raise ValueError(f"taste_spread must be a finite number > 0, got {self.taste_spread}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one reproducible scenario run."""

    human_params: HumanParams = field(default_factory=HumanParams)
    network: TwoRouteNetwork = field(default_factory=TwoRouteNetwork.default)
    # Demand multiplier; the driver population is base_population * congestion.
    congestion: float = 1.0
    # Share of the population handed to the coordinated fleet.
    cav_share: float = 0.0
    strategy: str = "Selfish"
    phase_lengths: tuple[int, int, int, int] = (100, 100, 100, 100)
    base_population: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base_population, int) or self.base_population < 1:
            raise ValueError(f"base_population must be a positive integer, got {self.base_population}")
        if not (self.congestion > 0 and math.isfinite(self.congestion)):
            raise ValueError(f"congestion must be a finite number > 0, got {self.congestion}")
        if not 0.0 <= self.cav_share <= 1.0:
            raise ValueError(f"cav_share must be in [0, 1], got {self.cav_share}")
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"strategy must be one of {', '.join(STRATEGY_NAMES)}, got {self.strategy!r}"
            )
        phases = tuple(self.phase_lengths)
        object.__setattr__(self, "phase_lengths", phases)
        if len(phases) != 4 or any(not isinstance(p, int) or p < 0 for p in phases):
            raise ValueError(
                f"phase_lengths must be four nonnegative integers, got {self.phase_lengths}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.total_population < 1:
            raise ValueError(
                f"congestion {self.congestion} with base_population {self.base_population} "
                "yields an empty population"
            )

    @property
    def total_population(self) -> int:
        return _round_half_up(self.base_population * self.congestion)

    @property
    def fleet_size(self) -> int:
        return _round_half_up(self.total_population * self.cav_share)

    @property
    def survivor_count(self) -> int:
        """Drivers that stay human for the whole run."""
        return self.total_population - self.fleet_size

    @property
    def m_day(self) -> int:
        """Last human-only day; the fleet takes over before the next one."""
        return self.phase_lengths[0] + self.phase_lengths[1]

    @property
    def total_days(self) -> int:
        return sum(self.phase_lengths)


@dataclass
class DayRecord:
    """Flows, travel times and group means of one simulated day.

    Group means are None exactly when the group is empty that day;
    mean_perceived_hdv_time averages experienced time plus taste over
    the drivers that stay human for the whole run, in every phase.
    """

    day: int
    q_hdv_a: int
    q_hdv_b: int
    q_cav_a: int
    q_cav_b: int
    t_a: float
    t_b: float
    mean_hdv_time: float | None
    mean_perceived_hdv_time: float | None
    mean_cav_time: float | None


@dataclass
class SimulationLog:
    """Config plus the ordered day records of a completed run."""

    config: ScenarioConfig
    records: list[DayRecord]


class SimulationState:
    """Mutable per-run state: driver arrays, RNG and the day counter.

    Driver attributes live in flat arrays indexed by driver id; the
    first ``n_hdv`` entries are the drivers still acting individually.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        total = config.total_population
        hp = config.human_params

        draws = self.rng.random((total, 2))
        # random() can return exactly 0.0, outside the open interval the
        # inverse-CDF transform needs; nudge to the smallest positive double.
        draws[draws == 0.0] = np.nextafter(0.0, 1.0)
        mu = -hp.taste_spread * 0.5772156649015329  # Euler-Mascheroni: zero-mean tastes
        self.taste_a = mu - hp.taste_spread * np.log(-np.log(draws[:, 0]))
        self.taste_b = mu - hp.taste_spread * np.log(-np.log(draws[:, 1]))

        self.est_a = np.full(total, config.network.route_a.free_flow_time)
        self.est_b = np.full(total, config.network.route_b.free_flow_time)
        self.last_route = np.full(total, -1, dtype=np.int8)

        # Run constants, read once here rather than through the config's
        # derived properties on every day.
        self.total_days = config.total_days
        self.fleet_size = config.fleet_size
        self.survivor_count = config.survivor_count
        self.learning_rate = hp.learning_rate
        self.explore_rate = hp.explore_rate

        self.n_hdv = total
        self.fleet_active = False
        self.fleet_weights: StrategyWeights = strategy_weights(config.strategy)
        self.mday_applied = False
        self.day = 1  # next day to simulate
        self.records: list[DayRecord] = []


def apply_mday(state: SimulationState) -> SimulationState:
    """Hand the highest-index drivers over to the coordinated fleet.

    The survivors keep their estimates, tastes and last routes; the
    replaced drivers stop choosing and learning and become pure count
    mass routed by the fleet.  May be applied only once per run.
    """
    if state.mday_applied:
        raise RuntimeError("fleet replacement was already applied to this run")
    state.mday_applied = True
    state.n_hdv = state.survivor_count
    state.fleet_active = state.fleet_size > 0
    return state


def step_day(state: SimulationState) -> DayRecord:
    """Simulate the next day and append its record to the state."""
    day = state.day
    if day > state.total_days:
        raise RuntimeError(f"run is complete after day {state.total_days}")
    n = state.n_hdv
    est_a = state.est_a[:n]
    est_b = state.est_b[:n]

    # Two draws per driver, exploration coin then route coin, id order.
    # The day's single route mask: True = route B.
    draws = state.rng.random((n, 2))
    on_b = draws[:, 1] >= 0.5
    if day > 1:
        greedy_b = (state.taste_a[:n] - est_a) < (state.taste_b[:n] - est_b)  # ties go to A
        on_b = np.where(draws[:, 0] < state.explore_rate, on_b, greedy_b)

    q_hdv_b = int(np.count_nonzero(on_b))
    q_hdv_a = n - q_hdv_b

    network = state.config.network
    if state.fleet_active:
        decision = fleet_optimize(state.fleet_weights, q_hdv_a, q_hdv_b, state.fleet_size, network)
        q_cav_a, q_cav_b = decision.cav_on_a, decision.cav_on_b
    else:
        q_cav_a = q_cav_b = 0

    t_a, t_b = network_travel_times(network, q_hdv_a + q_cav_a, q_hdv_b + q_cav_b)

    alpha = state.learning_rate
    est_a[:] = np.where(on_b, est_a, (1 - alpha) * est_a + alpha * t_a)
    est_b[:] = np.where(on_b, (1 - alpha) * est_b + alpha * t_b, est_b)
    state.last_route[:n] = on_b

    mean_hdv, mean_perceived, mean_cav = day_statistics(
        on_b, state.survivor_count, state.taste_a, state.taste_b,
        q_cav_a, q_cav_b, t_a, t_b,
    )
    record = DayRecord(
        day=day,
        q_hdv_a=q_hdv_a,
        q_hdv_b=q_hdv_b,
        q_cav_a=q_cav_a,
        q_cav_b=q_cav_b,
        t_a=t_a,
        t_b=t_b,
        mean_hdv_time=mean_hdv,
        mean_perceived_hdv_time=mean_perceived,
        mean_cav_time=mean_cav,
    )
    state.records.append(record)
    state.day = day + 1
    return record


def run_scenario(config: ScenarioConfig) -> SimulationLog:
    """Run all four phases and return the full log.

    The fleet hand-over happens after the second phase, before that
    day's choices.  Equal configs (same seed included) produce equal
    logs.
    """
    state = SimulationState(config)
    handover_day = config.m_day + 1
    for day in range(1, state.total_days + 1):
        if day == handover_day and not state.mday_applied:
            apply_mday(state)
        step_day(state)
    return SimulationLog(config=config, records=state.records)
