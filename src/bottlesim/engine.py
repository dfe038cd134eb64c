"""Day-to-day simulation loop: commit, optimize, travel, learn.

A scenario runs for four consecutive phases (default 100 days each):
human-only warm-up, human-only observation, re-stabilization after a
share of drivers is handed to the coordinated fleet, and a final
observation phase.  The hand-over happens between phases two and three,
inside ``step_day``: from day ``m_day + 1`` on, the drivers with the
highest indices stop acting individually and become fleet vehicles,
while the survivors keep their tastes, travel time estimates and last
routes.

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

Days 1..m_day have no fleet, so runs that differ only in strategy and
cav_share repeat them bit for bit, except for the perceived mean, which
each run takes over its own survivors.  ``run_branches`` simulates those
days once and gives every run its own copy of the state at the
hand-over; ``run_scenario`` is its one-run case.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .fleet import STRATEGY_NAMES, STRATEGY_TABLE, fleet_optimize
from .metrics import day_statistics, survivor_perceived_mean
from .network import TwoRouteNetwork, is_finite, network_travel_times


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _is_int(value) -> bool:
    """An int but not a bool, which Python also counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


# The run's largest array is the (total, 2) float64 taste draw, and numpy
# refuses an array of more than intp.max bytes.
MAX_POPULATION = np.iinfo(np.intp).max // 16


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
        if not (self.taste_spread > 0 and is_finite(self.taste_spread)):
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
        if not _is_int(self.base_population) or not 1 <= self.base_population < 2**63:
            raise ValueError(f"base_population must be a positive 64-bit integer, got {self.base_population}")
        if not (self.congestion > 0 and is_finite(self.congestion)):
            raise ValueError(f"congestion must be a finite number > 0, got {self.congestion}")
        if not 0.0 <= self.cav_share <= 1.0:
            raise ValueError(f"cav_share must be in [0, 1], got {self.cav_share}")
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"strategy must be one of {', '.join(STRATEGY_NAMES)}, got {self.strategy!r}"
            )
        phases = tuple(self.phase_lengths)
        object.__setattr__(self, "phase_lengths", phases)
        if len(phases) != 4 or any(not _is_int(p) or p < 0 for p in phases):
            raise ValueError(
                f"phase_lengths must be four nonnegative integers, got {self.phase_lengths}"
            )
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not is_finite(self.base_population * self.congestion):
            raise ValueError(
                f"congestion {self.congestion} with base_population {self.base_population} "
                "yields an infinite population"
            )
        if not 1 <= self.total_population <= MAX_POPULATION:
            raise ValueError(
                f"congestion {self.congestion} with base_population {self.base_population} "
                f"yields {self.total_population} drivers; expected 1 to {MAX_POPULATION}"
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

    Driver attributes live in flat arrays indexed by driver id.
    ``step_day`` hands the fleet over before day ``m_day + 1``: from
    then on only the first ``survivor_count`` entries act individually.
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
        self.total_population = total
        self.m_day = config.m_day
        self.total_days = config.total_days
        self.learning_rate = hp.learning_rate
        self.explore_rate = hp.explore_rate
        self._set_fleet(config)

        self.day = 1  # next day to simulate
        self.records: list[DayRecord] = []

    def _set_fleet(self, config: ScenarioConfig) -> None:
        """Take the fleet constants of ``config``, the knobs a fork may change."""
        self.config = config
        self.fleet_size = config.fleet_size
        self.survivor_count = config.survivor_count
        self.fleet_weights = STRATEGY_TABLE[config.strategy]

    def fork(self, config: ScenarioConfig) -> SimulationState:
        """An independent copy of this pre-hand-over state that continues as ``config``.

        ``config`` may differ from this state's config only in strategy and
        cav_share.  The copy owns its estimates, last routes, generator and
        record list; the tastes are shared, as no day writes them.
        """
        if self.day > self.m_day + 1:
            raise RuntimeError("cannot fork a run after the fleet hand-over")
        branch = copy.copy(self)
        branch.rng = copy.deepcopy(self.rng)
        branch.est_a = self.est_a.copy()
        branch.est_b = self.est_b.copy()
        branch.last_route = self.last_route.copy()
        branch.records = list(self.records)
        branch._set_fleet(config)
        return branch


def step_day(state: SimulationState) -> DayRecord:
    """Simulate the next day and append its record to the state.

    From day ``m_day + 1`` on the highest-index drivers are fleet
    vehicles: they stop choosing and learning and become count mass
    routed by the fleet, while the survivors carry on unchanged.
    """
    day = state.day
    if day > state.total_days:
        raise RuntimeError(f"run is complete after day {state.total_days}")
    if day > state.m_day:
        n, fleet_size = state.survivor_count, state.fleet_size
    else:
        n, fleet_size = state.total_population, 0
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
    if fleet_size:
        decision = fleet_optimize(state.fleet_weights, q_hdv_a, q_hdv_b, fleet_size, network)
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


def prefix_key(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` without its fleet knobs: runs with equal keys share days 1..m_day."""
    return dataclasses.replace(config, strategy=STRATEGY_NAMES[0], cav_share=0.0)


def run_branches(configs: Iterable[ScenarioConfig]) -> Iterator[SimulationLog]:
    """Run configs that differ only in strategy and cav_share; yield their logs in order.

    Days 1..m_day are stepped once, on the first config's state.  The
    perceived means of those days are taken once more for every other
    survivor count, by the same expression.  At the hand-over each
    config continues on its own fork of that state (the last one on the
    state itself), so every log equals the one the config gives alone.
    Each log is complete when it is yielded.
    """
    configs = list(configs)
    if not configs:
        return
    key = prefix_key(configs[0])
    if any(prefix_key(c) != key for c in configs[1:]):
        raise ValueError("configs of one run_branches call may differ only in strategy and cav_share")
    state = SimulationState(configs[0])
    own_count = state.survivor_count
    perceived: dict[int, list[float | None]] = {
        c.survivor_count: [] for c in configs if c.survivor_count != own_count
    }
    for _ in range(min(state.m_day, state.total_days)):
        record = step_day(state)
        for count, means in perceived.items():
            means.append(survivor_perceived_mean(
                state.last_route, count, state.taste_a, state.taste_b, record.t_a, record.t_b,
            ))

    prefix = state.records
    for i, config in enumerate(configs):
        if i < len(configs) - 1:
            branch = state.fork(config)
        else:
            branch, state = state, None
            branch._set_fleet(config)
        if config.survivor_count != own_count:
            branch.records = [
                dataclasses.replace(record, mean_perceived_hdv_time=mean)
                for record, mean in zip(prefix, perceived[config.survivor_count])
            ]
        while branch.day <= branch.total_days:
            step_day(branch)
        log = SimulationLog(config=config, records=branch.records)
        # Drop the branch's arrays before the caller evaluates the log: at
        # N=10^5 they would add to the peak memory of the metrics' fleet curve.
        branch = None
        yield log


def run_scenario(config: ScenarioConfig) -> SimulationLog:
    """Run all four phases and return the full log.

    Equal configs (same seed included) produce equal logs.
    """
    return next(run_branches([config]))
