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

Determinism: each seed has one numpy PCG64 generator
(``numpy.random.default_rng``), consumed in a fully specified order --
first two taste draws per driver in index order (route A then B), then
per day two draws per current human driver in index order (exploration
coin first, route coin second).  Day 1 consumes the exploration coin
too, even though it is ignored, so later days never depend on day-1
semantics.  Fleet vehicles consume no randomness at all.

``run_branches`` steps runs that differ in seed, taste_spread, strategy
and cav_share in lockstep, as rows of (R, n) arrays: a row per (seed,
taste_spread) pair until the hand-over, as days 1..m_day have no fleet,
then a row per distinct run, grouped by survivor count.  taste_spread
only scales a row's tastes at set-up, so it is a per-row constant that
no day reads.  Rows in the same generator state (the runs of one seed,
whatever their spread) share one draw, every kernel is elementwise or
reduces each row on its own, and no state is forked, so every run equals
its config run alone, bit for bit; ``run_scenario`` is the one-run case.
Configs with equal (or empty) fleets are the same run.  After the
hand-over a fleet's decision depends on q_hdv_a alone, whatever the seed
and spread: the rows of a fleet share one exact memo of it.

Tastes and estimates are (2, R, n) arrays with the route axis first (A,
then B).  A day allocates no N-sized float array: its draw buffer holds
two doubles per driver-row, each generator's coins at the front, and
once the coins are compared it is the day's (2, R, n) scratch for the
utilities, the learning candidates and the perceived times.  Every
float select is ``np.where(mask, x, y)`` written as y ^ ((x ^ y) * mask)
on int64 views of the bits: no branch to mispredict on the random route
mask, and no float operation, so the selected bits are np.where's.  The
arithmetic keeps its operands and their order -- (1 - alpha) * est +
alpha * t, t + taste, and the tastes' mu - s * log(-log u) -- so the
outputs are those of plain np.where kernels, byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .fleet import STRATEGY_NAMES, STRATEGY_TABLE, FleetDecision, fleet_optimize
from .metrics import day_statistics
from .network import TwoRouteNetwork, bpr_travel_time, is_finite_number, network_travel_times, quoted


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _is_int(value) -> bool:
    """An int but not a bool, which Python also counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


# A run's largest arrays hold two float64 per driver of a row (the draw
# buffer, tastes and estimates), and numpy refuses more than intp.max bytes.
MAX_POPULATION = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one reproducible scenario run.

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
        """Check each field; store the float fields as Python floats and phase_lengths as a tuple."""
        if not (is_finite_number(self.learning_rate) and 0.0 <= self.learning_rate <= 1.0):
            raise ValueError(f"learning_rate must be in [0, 1], got {quoted(self.learning_rate)}")
        if not (is_finite_number(self.explore_rate) and 0.0 <= self.explore_rate <= 1.0):
            raise ValueError(f"explore_rate must be in [0, 1], got {quoted(self.explore_rate)}")
        if not (is_finite_number(self.taste_spread) and self.taste_spread > 0):
            raise ValueError(f"taste_spread must be a finite number > 0, got {quoted(self.taste_spread)}")
        if not _is_int(self.base_population) or not 1 <= self.base_population < 2**63:
            raise ValueError(f"base_population must be a positive 64-bit integer, got {quoted(self.base_population)}")
        if not (is_finite_number(self.congestion) and self.congestion > 0):
            raise ValueError(f"congestion must be a finite number > 0, got {quoted(self.congestion)}")
        if not (is_finite_number(self.cav_share) and 0.0 <= self.cav_share <= 1.0):
            raise ValueError(f"cav_share must be in [0, 1], got {quoted(self.cav_share)}")
        for name in ("learning_rate", "explore_rate", "taste_spread", "congestion", "cav_share"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (isinstance(self.strategy, str) and self.strategy in STRATEGY_NAMES):
            raise ValueError(
                f"strategy must be one of {', '.join(STRATEGY_NAMES)}, got {quoted(self.strategy)}"
            )
        phases = self.phase_lengths
        if not (isinstance(phases, (list, tuple)) and len(phases) == 4
                and all(_is_int(p) and p >= 0 for p in phases)):
            raise ValueError(f"phase_lengths must be four nonnegative integers, got {quoted(phases)}")
        object.__setattr__(self, "phase_lengths", tuple(phases))
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {quoted(self.seed)}")
        if not isinstance(self.network, TwoRouteNetwork):
            raise ValueError(f"network must be a TwoRouteNetwork, got {quoted(self.network)}")
        if not is_finite_number(self.base_population * self.congestion):
            raise ValueError(
                f"congestion {self.congestion!r} with base_population {self.base_population!r} "
                "yields an infinite population"
            )
        if not 1 <= self.total_population <= MAX_POPULATION:
            raise ValueError(
                f"congestion {self.congestion!r} with base_population {self.base_population!r} "
                f"yields {self.total_population} drivers; expected 1 to {MAX_POPULATION}"
            )
        for name in ("route_a", "route_b"):
            if not math.isfinite(bpr_travel_time(getattr(self.network, name), self.total_population)):
                raise ValueError(f"{name} travel time is not finite at {self.total_population} drivers")

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


class DayRecord(NamedTuple):
    """Flows, travel times and group means of one simulated day.

    Group means are None exactly when the group is empty that day;
    mean_perceived_hdv_time averages experienced time plus taste over
    the drivers that stay human for the whole run, in every phase.
    Records are immutable, so logs may share them.
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
    """Mutable state of runs stepped in lockstep: driver arrays of R rows, generators, day counter.

    ``SimulationState(config)`` is one run, the R=1 case.  More configs may
    differ in seed, taste_spread, strategy and cav_share: until the
    hand-over there is one row per (seed, taste_spread) pair, the rows of a
    seed drawing from its one generator, and ``records`` holds a log per
    row and survivor count, row-major.  ``step_day`` hands the fleet over
    before day ``m_day + 1``; from then on each distinct run is a row
    holding only its survivors, with one log, so the configs must share a
    survivor count.
    """

    def __init__(self, *configs: ScenarioConfig) -> None:
        config = configs[0]
        if any(prefix_key(c) != prefix_key(config) for c in configs[1:]):
            raise ValueError(
                "configs stepped together may differ only in seed, taste_spread, strategy and cav_share"
            )
        self.configs = configs
        self.seeds = list(dict.fromkeys(c.seed for c in configs))
        self.rngs = [np.random.default_rng(seed) for seed in self.seeds]
        self.rows = list(dict.fromkeys((c.seed, c.taste_spread) for c in configs))
        self.row_rng = np.array([self.seeds.index(seed) for seed, _ in self.rows])  # each row's generator
        self.fleets = [(0, None)] * len(self.rows)  # each row's (fleet size, weights)
        total = config.total_population

        self._drivers(total)  # the draw buffer takes the taste draws first
        draws = self.draws.reshape(len(self.rows), total, 2)
        u = draws[:len(self.rngs)]  # each generator's draws, shared by its rows
        for rng, out in zip(self.rngs, u):
            rng.random(out=out)
        # random() can return exactly 0.0, outside the open interval the
        # inverse-CDF transform needs; nudge to the smallest positive double.
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        # mu - spread * log(-log(u)), in place: zero-mean Gumbel tastes (Euler-Mascheroni).
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        # A row's generator comes no later than the row, so from the last row
        # back each row reads its generator's log(-log(u)) before it is overwritten.
        for row in reversed(range(len(self.rows))):
            spread = self.rows[row][1]
            np.multiply(spread, u[self.row_rng[row]], out=draws[row])
            np.subtract(-spread * 0.5772156649015329, draws[row], out=draws[row])
        self.tastes = draws.transpose(2, 0, 1).copy()  # (route, row, driver)
        self.estimates = np.empty_like(self.tastes)
        self.estimates[0] = config.network.route_a.free_flow_time
        self.estimates[1] = config.network.route_b.free_flow_time
        self.last_route = np.zeros(self.tastes.shape[1:], dtype=bool)  # True = route B, from day 1 on
        # The survivor counts whose perceived mean each row logs.
        self.counts = tuple(dict.fromkeys(c.survivor_count for c in configs))
        self.memos: list[dict[int, FleetDecision]] | None = None  # set at the hand-over

        # Run constants, read once here rather than through the config's
        # derived properties on every day.
        self.network = config.network
        self.m_day = config.m_day
        self.total_days = config.total_days
        self.learning_rate = config.learning_rate
        # 1 - alpha as a 0-d array: numpy would convert a float on every day's call.
        self.keep = np.array(1 - config.learning_rate)
        self.explore_rate = config.explore_rate

        self.day = 1  # next day to simulate
        self.records: list[list[DayRecord]] = [[] for _ in self.rows for _ in self.counts]

    def _drivers(self, n: int) -> None:
        """Set the acting drivers per row, and the day's draw buffer: 2 doubles per driver-row.

        Each generator fills its (n, 2) coins at the front; once they are
        compared, ``step_day`` uses the whole buffer as (2, R, n) scratch.
        Views of it are taken each day, so a copy of the state keeps none.
        """
        self.n = n
        self.draws = np.empty((2, len(self.fleets), n))

    def _hand_over(self, configs: Sequence[ScenarioConfig]) -> None:
        """Continue as the distinct runs of ``configs``, which share one survivor count.

        Each run becomes a row: contiguous copies of its (seed, spread)
        row's survivors and of its log for that count.  The runs of a seed
        share one copy of its generator, as they draw alike from here on,
        and the runs of a fleet one empty memo, as its decisions ignore the
        seed and the spread.
        """
        count = configs[0].survivor_count
        if any(c.survivor_count != count for c in configs):
            raise RuntimeError("runs stepped together past the hand-over need equal survivor counts")
        self.runs = list(dict.fromkeys(map(_run_key, configs)))
        rows = [self.rows.index((seed, spread)) for seed, spread, _ in self.runs]
        log = self.counts.index(count)
        self.records = [list(self.records[row * len(self.counts) + log]) for row in rows]
        seeds = list(dict.fromkeys(seed for seed, _, _ in self.runs))
        self.rngs = [copy.deepcopy(self.rngs[self.seeds.index(seed)]) for seed in seeds]
        self.seeds, self.row_rng = seeds, np.array([seeds.index(seed) for seed, _, _ in self.runs])
        self.rows = [(seed, spread) for seed, spread, _ in self.runs]
        # One array at a time, each replacing the prefix's, whose draw buffer goes
        # first: at N=10^5 this is the run's memory peak when the prefix is done.
        self.draws = None
        self.tastes = self.tastes[:, rows, :count]
        self.estimates = self.estimates[:, rows, :count]
        self.last_route = self.last_route[rows, :count]
        self.counts = (count,)
        self.fleets = [fleet for _, _, fleet in self.runs]
        self._drivers(count)
        memos = {fleet: {} for fleet in self.fleets}
        self.memos = [memos[fleet] for fleet in self.fleets]


# Configs with equal survivor counts step as one group after the hand-over.
SURVIVORS = operator.attrgetter("survivor_count")


def _run_key(config: ScenarioConfig) -> tuple:
    """(seed, taste_spread, (fleet size, weights)); equal fleets, or none at all, make the same run."""
    size = config.fleet_size
    return config.seed, config.taste_spread, (size, STRATEGY_TABLE[config.strategy] if size else None)


def _select(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Set ``y`` to ``np.where(mask, x, y)``: ``x`` and ``y`` are int64 views, ``mask`` is bool.

    As y ^ ((x ^ y) * mask) it moves bit patterns with neither a branch
    nor a float operation, so every pattern, NaN payloads and -0.0
    included, comes through unchanged.  ``x`` is overwritten.
    """
    x ^= y
    x *= mask
    y ^= x


def step_day(state: SimulationState) -> list[DayRecord]:
    """Simulate the next day of every row; append its records to the logs and return them.

    From day ``m_day + 1`` on the highest-index drivers are fleet
    vehicles: they stop choosing and learning and become count mass
    routed by the fleet, while the survivors carry on unchanged.
    """
    day = state.day
    if day > state.total_days:
        raise RuntimeError(f"run is complete after day {state.total_days}")
    if day == state.m_day + 1 and state.memos is None:
        state._hand_over(state.configs)

    # Two draws per driver, exploration coin then route coin, id order, each
    # generator's (n, 2) at the front of the buffer; on day 1 every driver explores.
    rows, n, draws = len(state.fleets), state.n, state.draws
    coins = draws.reshape(rows, n, 2)[:len(state.rngs)]
    for rng, out in zip(state.rngs, coins):
        rng.random(out=out)
    explore = coins[..., 0] < (state.explore_rate if day > 1 else 1.0)
    on_b = coins[..., 1] >= 0.5  # the day's single route mask: True = route B
    if len(coins) < rows:  # the rows of one seed share its draws
        explore, on_b = explore[state.row_rng], on_b[state.row_rng]
    # The coins are read: the buffer is the day's (2, R, n) scratch from here on.
    scratch, tastes, estimates = draws, state.tastes, state.estimates
    np.subtract(tastes, estimates, scratch)
    # taken[r] holds the drivers on route r: taken[1] = np.where(explore, on_b, greedy_b).
    taken = np.empty((2, rows, n), dtype=bool)
    greedy_b = np.less(scratch[0], scratch[1], taken[0])  # ties go to A
    on_b = np.bitwise_xor(on_b, greedy_b, taken[1])
    on_b &= explore
    on_b ^= greedy_b
    np.logical_not(on_b, taken[0])

    network, alpha = state.network, state.learning_rate
    # Per row: (q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b) and (t_a, t_b, alpha * t_a, alpha * t_b).
    days, columns = [], []
    for row in range(len(on_b)):
        q_hdv_b = int(np.count_nonzero(on_b[row]))
        q_hdv_a = n - q_hdv_b
        fleet_size, weights = state.fleets[row]
        if fleet_size:
            memo = state.memos[row]
            decision = memo.get(q_hdv_a)
            if decision is None:
                decision = memo[q_hdv_a] = fleet_optimize(weights, q_hdv_a, q_hdv_b, fleet_size, network)
            q_cav_a, q_cav_b = decision.cav_on_a, decision.cav_on_b
        else:
            q_cav_a = q_cav_b = 0
        t_a, t_b = network_travel_times(network, q_hdv_a + q_cav_a, q_hdv_b + q_cav_b)
        days.append((q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b))
        columns.append((t_a, t_b, alpha * t_a, alpha * t_b))

    # (4, R, 1): each row's times and learning steps, as columns for all its drivers.
    columns = np.array([columns]).T
    bits, est_bits = scratch.view(np.int64), estimates.view(np.int64)
    # The estimate of the route taken moves to (1 - alpha) * est + alpha * t.
    np.multiply(state.keep, estimates, scratch)
    scratch += columns[2:]
    _select(taken, bits, est_bits)
    state.last_route = on_b

    # Perceived time, t + taste, of the route taken: into the route-A half.
    np.add(columns[:2], tastes, scratch)
    _select(on_b, bits[1], bits[0])
    perceived = scratch[0]

    stats = day_statistics(perceived, state.counts, days)
    records = [
        DayRecord(day, *values, mean_hdv, mean_perceived, mean_cav)
        for values, (mean_hdv, means, mean_cav) in zip(days, stats)
        for mean_perceived in means
    ]
    for log, record in zip(state.records, records):
        log.append(record)
    state.day = day + 1
    return records


def group_by(configs: Iterable[ScenarioConfig], key) -> dict:
    """The configs grouped by ``key(config)``, in first-seen order."""
    groups: dict = {}
    for config in configs:
        groups.setdefault(key(config), []).append(config)
    return groups


def prefix_key(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` without its seed, taste_spread and fleet knobs: runs with equal keys step together."""
    return dataclasses.replace(config, seed=0, taste_spread=1.0, strategy=STRATEGY_NAMES[0], cav_share=0.0)


def run_branches(configs: Iterable[ScenarioConfig]) -> Iterator[SimulationLog]:
    """Run configs that differ only in seed, taste_spread, strategy and cav_share; yield their logs in order.

    Days 1..m_day are stepped once, a row per (seed, taste_spread) pair.
    At the hand-over the distinct runs are grouped by survivor count, and
    each group steps its rows to the last day, so every log equals the one
    its config gives alone; a repeated run's configs get copies of its
    record list.  Each log owns its list and is complete when it is yielded.
    """
    configs = list(configs)
    if not configs:
        return
    state = SimulationState(*configs)
    while state.day <= min(state.m_day, state.total_days):
        step_day(state)
    groups = group_by(configs, SURVIVORS)
    runs = [_run_key(c) for c in configs]
    last_use = {run: i for i, run in enumerate(runs)}
    finished: dict[tuple, list[DayRecord]] = {}  # records of each run simulated so far
    for i, (config, run) in enumerate(zip(configs, runs)):
        if run not in finished:
            group, members = copy.copy(state), groups.pop(config.survivor_count)
            if not groups:
                state = None  # the last group: the prefix arrays go before its days
            group._hand_over(members)
            while group.day <= group.total_days:
                step_day(group)
            finished.update(zip(group.runs, group.records))
            # Drop the group's arrays before the caller evaluates the log: at
            # N=10^5 they would add to the peak memory of the metrics' fleet curve.
            del group
        records = finished.pop(run) if last_use[run] == i else list(finished[run])
        yield SimulationLog(config=config, records=records)


def run_scenario(config: ScenarioConfig) -> SimulationLog:
    """Run all four phases and return the full log.

    Equal configs (same seed included) produce equal logs.
    """
    return next(run_branches([config]))
