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
5. each run's counts, travel times and perceived mean are logged.

Determinism: each seed has one numpy PCG64 generator
(``numpy.random.default_rng``), consumed in a fully specified order --
first two taste draws per driver in index order (route A then B), then
per day two draws per current human driver in index order (exploration
coin first, route coin second).  Day 1 consumes the exploration coin
too, even though it is ignored, so later days never depend on day-1
semantics.  Fleet vehicles consume no randomness at all.

``run_state`` steps runs that differ in seed, taste_spread, population
(congestion and base_population), strategy and cav_share in lockstep, as
rows on one flat driver axis: a row per (seed, taste_spread, population)
until the hand-over, as days 1..m_day have no fleet, then a row per
distinct run holding its survivors.  Rows of equal length lie end to end
as a (rows, n) block, whatever their population, and the rows of a
(seed, population) and length share its generator and its draws.
taste_spread only scales a row's tastes at set-up, so it is a per-row
constant that no day reads.  Every elementwise kernel runs once a day
over the whole axis, or once per range of it (below); only the draws,
the per-row counts, the time columns and the perceived sums go row by
row or block by block, and one ``day_statistics`` call a day divides all
the sums at once.  No state is forked, so every run equals its config
run alone, bit for bit;
``run_scenario`` is the one-run case.  Configs with equal (or empty)
fleets are the same run.  After the hand-over a fleet's decision depends
on q_hdv_a and the survivor count alone, whatever the seed, spread and
population: the rows of a fleet in a block share one exact memo of it.
A state evaluates the BPR curve once, at set-up: its table ``curves``
holds each route's time at every flow up to its largest population.  A
decision reads its candidates' times as slices of the table, and a day's
two times per row are the table's entries at the row's flows, so the
fleet decides on the times its run then experiences.

``plan`` alone decides which runs step together as one state: the runs
of a group, unless a pool's workers need more chunks than there are
groups, or the state would hold more than ``MAX_DRIVER_ROWS`` driver-rows.
The same constant bounds a day's pass: a state wider than that, which
``plan`` makes only of a prefix row longer than the bound, steps every
pass after the coins one range of at most ``MAX_DRIVER_ROWS`` driver-rows
at a time (``_ranges``), so a 10^5-driver day runs its passes in cache.
The random fills, the copies of shared draws and the two coin
comparisons stay whole-axis: the draw buffer holds a driver's two coins
side by side, so a range's (2, width) scratch lies over the draws of
later drivers, and its writes would overwrite coins not yet read.

Tastes and estimates are (2, width) arrays with the route axis first (A,
then B).  A day allocates no N-sized float array: its draw buffer holds
two doubles per driver-row, each driver's two coins, and once the coins
are compared it is the day's (2, width) scratch for the utilities, the
learning candidates and the perceived times.  Every float select is
``np.where(mask, x, y)`` written as y ^ ((x ^ y) * mask) on int64 views
of the bits: no branch to mispredict on the random route mask, and no
float operation, so the selected bits are np.where's.  The arithmetic
keeps its operands and their order -- (1 - alpha) * est + alpha * t,
t + taste, and the tastes' mu - s * log(-log u) -- so the outputs are
those of plain np.where kernels, byte for byte.
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
from .network import (
    TwoRouteNetwork, bpr_travel_time, is_finite_number, network_travel_times, quoted,
)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _is_int(value) -> bool:
    """An int but not a bool, which Python also counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


# A run's largest arrays hold two float64 per driver of a row (the draw
# buffer, tastes and estimates), and numpy refuses more than intp.max bytes.
MAX_POPULATION = np.iinfo(np.intp).max // 16
# A run's largest column holds four int64 per day, its flows: the same rule.
MAX_DAYS = np.iinfo(np.intp).max // 32


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
        if self.total_days > MAX_DAYS:
            raise ValueError(f"phase_lengths must sum to at most {MAX_DAYS} days, got {quoted(phases)}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {quoted(self.seed)}")
        if not isinstance(self.network, TwoRouteNetwork):
            raise ValueError(f"network must be a TwoRouteNetwork, got {quoted(self.network)}")
        finite = is_finite_number(self.base_population * self.congestion)
        if not (finite and 1 <= self.total_population <= MAX_POPULATION):
            raise ValueError(
                f"congestion {quoted(self.congestion)} with base_population {quoted(self.base_population)} yields "
                f"{self.total_population if finite else 'infinitely many'} drivers; expected 1 to {MAX_POPULATION}"
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


@dataclass(eq=False)
class SimulationLog:
    """Config plus the per-day columns of a completed run, day 1 first.

    ``flows`` is (days, 4) int64: q_hdv_a, q_hdv_b, q_cav_a, q_cav_b; ``times``
    (days, 2) float64: t_a, t_b; ``perceived`` (days,) float64: the mean of
    experienced time plus taste over the drivers that stay human for the whole
    run, NaN if none do.  ``metrics.daily_means`` derives the group means.
    """

    config: ScenarioConfig
    flows: np.ndarray
    times: np.ndarray
    perceived: np.ndarray


class Block(NamedTuple):
    """Rows of one length ``n``, laid end to end on the state's flat driver axis.

    Row ``first + i`` holds the flat driver indices from ``start + i * n``
    up to ``start + (i + 1) * n``; the block ends at ``stop``.  Each row
    logs the perceived mean over its first c drivers for each survivor
    count c in ``counts``.
    """

    first: int
    rows: int
    start: int
    stop: int
    n: int
    counts: tuple[int, ...]


class SimulationState:
    """Mutable state of runs stepped in lockstep: driver arrays on one flat axis, generators, day counter.

    ``SimulationState(config)`` is one run, the one-row case.  More configs
    may differ in seed, taste_spread, population, strategy and cav_share.
    Until the hand-over ``rows`` holds each distinct (seed, taste_spread,
    population), and each row logs a perceived mean per survivor count of
    its population.  ``step_day`` hands the fleet over before day
    ``m_day + 1``; from then on ``rows`` holds each distinct run, as
    ``_run_key`` gives it, holding only its survivors, with one mean.  Rows
    of equal length form a ``Block``, whatever their population.  The rows
    of a (seed, population) and length draw alike, so they share one
    generator in ``rngs`` and its draws.  Config ``i``'s log is ``[:, i]``
    of the (total_days, configs, ...) ``flows``, ``times`` and ``perceived``;
    a day fills it from row ``row_of[i]`` and that row's mean ``log_of[i]``.
    """

    def __init__(self, *configs: ScenarioConfig) -> None:
        config = configs[0]
        key = prefix_key(config)
        if any(prefix_key(c) != key for c in configs[1:]):
            raise ValueError(
                f"configs stepped together may differ only in {', '.join(LOCKSTEP_FIELDS[:-1])} "
                f"and {LOCKSTEP_FIELDS[-1]}"
            )
        self.configs = configs
        self._lay_out(_row_key, operator.itemgetter(2), lambda key: np.random.default_rng(key[0]))
        self.fleets = [(0, None)] * len(self.rows)  # each row's (fleet size, weights)
        # (2, n + 1): each route's time at every flow 0..n, n the largest population.  Built
        # before the driver arrays, so that its temporaries are gone when they are made.
        x = np.arange(max(c.total_population for c in configs) + 1.0)
        self.curves = np.array(network_travel_times(config.network, x, x))
        del x

        # The draw buffer takes the taste draws first: (route A, route B) per driver.
        self.draws = np.empty((2, self.width))
        pairs = self.draws.reshape(-1, 2)
        for rng, cut in self.draw_into:
            u = pairs[cut]
            rng.random(out=u)
            # random() can return exactly 0.0, outside the open interval the
            # inverse-CDF transform needs; nudge to the smallest positive double.
            u[u == 0.0] = np.nextafter(0.0, 1.0)
            # mu - spread * log(-log(u)), in place: zero-mean Gumbel tastes (Euler-Mascheroni).
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
        for source, cut in self.copies:  # the other rows of a generator take its log(-log(u))
            pairs[cut] = pairs[source]
        for (_, spread, _), cut in zip(self.rows, self.spans):
            np.multiply(spread, pairs[cut], out=pairs[cut])
            np.subtract(-spread * 0.5772156649015329, pairs[cut], out=pairs[cut])
        self.tastes = pairs.T.copy()  # (route, flat driver)
        self.estimates = np.empty_like(self.tastes)
        self.estimates[0] = config.network.route_a.free_flow_time
        self.estimates[1] = config.network.route_b.free_flow_time
        self.last_route = np.zeros(self.width, dtype=bool)  # True = route B, from day 1 on
        self.memos: list[dict[int, FleetDecision]] | None = None  # set at the hand-over

        # Run constants, read once here rather than through the config's
        # derived properties on every day.
        self.m_day = config.m_day
        self.total_days = config.total_days
        self.learning_rate = config.learning_rate
        # 1 - alpha as a 0-d array: numpy would convert a float on every day's call.
        self.keep = np.array(1 - config.learning_rate)
        self.explore_rate = config.explore_rate

        self.day = 1  # next day to simulate
        shape = self.total_days, len(configs)
        self.flows = np.empty((*shape, 4), np.int64)
        self.times, self.perceived = np.empty((*shape, 2)), np.empty(shape)

    def _lay_out(self, key, length, generator) -> None:
        """Lay the distinct ``key(config)`` out as rows of the flat driver axis, in blocks of equal ``length(row)``.

        Blocks, and the rows in each, keep their first-seen order.  Sets
        ``rows``, ``blocks``, ``spans`` (each row's slice of the axis),
        ``width`` and ``ranges`` (``_ranges`` of the blocks).  ``rngs`` maps
        each (seed, population, length) of the rows to ``generator`` of it,
        which draws into the span of its first row (``draw_into``); its other
        rows copy those draws (``copies``).  A block of length n logs the
        distinct survivor counts of the configs whose row has length n, in
        first-seen order, each row a mean per count, row-major: ``row_of`` and
        ``log_of`` index each config's row and mean, which ``day_statistics``
        computes into ``means``.
        """
        self.rows, self.blocks, self.spans, start = [], [], [], 0
        self.rngs, self.copies, sources, logs = {}, [], {}, []
        keys = list(map(key, self.configs))
        counts: dict[int, dict[int, None]] = {}  # each length's survivor counts, a dict for their order
        for row, c in zip(keys, self.configs):
            counts.setdefault(length(row), {})[c.survivor_count] = None
        for n, members in group_by(dict.fromkeys(keys), length).items():
            self.blocks.append(Block(len(self.rows), len(members), start, start + len(members) * n, n, tuple(counts[n])))
            self.rows += members
            logs += [(row, count) for row in members for count in counts[n]]
            for seed, _, population, *_ in members:
                cut = slice(start, start + n)
                self.spans.append(cut)
                start += n
                rng_key = seed, population, n
                if rng_key in sources:
                    self.copies.append((sources[rng_key], cut))
                else:
                    self.rngs[rng_key], sources[rng_key] = generator(rng_key), cut
        self.width = start  # driver-rows
        self.ranges = _ranges(self.blocks)
        self.draw_into = [(self.rngs[key], cut) for key, cut in sources.items()]
        index = {row: i for i, row in enumerate(self.rows)}
        log_index = {log: i for i, log in enumerate(logs)}
        self.row_of = np.array([index[row] for row in keys])
        self.log_of = np.array([log_index[row, c.survivor_count] for row, c in zip(keys, self.configs)])
        # day_statistics' vector of the logged means, and their counts: NaN for none.
        self.means = np.empty(len(logs))
        self.divisors = np.array([count or math.nan for _, count in logs], dtype=np.float64)

    def _hand_over(self) -> None:
        """Continue as the distinct runs of the configs, a row each, in blocks by survivor count.

        Each run's row is a copy of its prefix row's survivors.  The runs of a
        (seed, population) and survivor count share one copy of its generator,
        as they draw alike from here on, and the runs of a fleet and survivor
        count one empty memo, as its decisions depend on q_hdv_a alone.
        """
        starts = {row: cut.start for row, cut in zip(self.rows, self.spans)}
        generators = self.rngs
        self._lay_out(_run_key, _survivors, lambda key: copy.deepcopy(generators[key[0], key[1], key[1]]))
        segments = [(starts[run[:3]], _survivors(run)) for run in self.rows]

        def gather(array: np.ndarray) -> np.ndarray:
            return np.concatenate([array[..., s:s + n] for s, n in segments], axis=-1)

        # One array at a time, each replacing the prefix's, whose draw buffer goes
        # first: at N=10^5 this is the run's memory peak when the prefix is done.
        self.draws = None
        self.tastes = gather(self.tastes)
        self.estimates = gather(self.estimates)
        self.last_route = gather(self.last_route)
        self.draws = np.empty((2, self.width))
        self.fleets = [fleet for *_, fleet in self.rows]
        memos: dict[tuple, dict[int, FleetDecision]] = {}
        self.memos = [memos.setdefault((_survivors(run), run[3]), {}) for run in self.rows]


def _ranges(blocks: Sequence[Block]) -> tuple[tuple[int, int, tuple], ...]:
    """The stretches ``(start, stop, tiles)`` of the flat axis that a day's passes step one at a time.

    A tile ``(first, rows, start, stop, n)`` holds ``rows`` rows of ``n``
    drivers from row ``first`` on: up to ``MAX_DRIVER_ROWS // n`` whole rows
    of a block, or, for a row longer than ``MAX_DRIVER_ROWS``, one of its
    ``ceil(n / MAX_DRIVER_ROWS)`` pieces of about equal length.  Consecutive
    tiles make a range of at most ``MAX_DRIVER_ROWS`` driver-rows, so a state
    no wider than that has one range, whose tiles are its non-empty blocks.
    Plain ints, so a deep copy of the state keeps them.
    """
    cap, tiles = MAX_DRIVER_ROWS, []
    for first, rows, start, _, n, _ in blocks:
        if n > cap:
            k = -(-n // cap)
            for row in range(rows):
                edges = [start + row * n + n * j // k for j in range(k + 1)]
                tiles += [(first + row, 1, a, b, b - a) for a, b in zip(edges, edges[1:])]
        elif n:
            per = cap // n
            tiles += [(first + row, min(per, rows - row), start + row * n, start + min(row + per, rows) * n, n)
                      for row in range(0, rows, per)]
    ranges: list[list[tuple[int, ...]]] = []
    for tile in tiles:
        if not ranges or tile[3] - ranges[-1][0][2] > cap:
            ranges.append([])
        ranges[-1].append(tile)
    return tuple((members[0][2], members[-1][3], tuple(members)) for members in ranges)


def _row_key(config: ScenarioConfig) -> tuple:
    """(seed, taste_spread, population): the configs that share a row until the hand-over."""
    return config.seed, config.taste_spread, config.total_population


def _run_key(config: ScenarioConfig) -> tuple:
    """``_row_key`` and (fleet size, weights); equal fleets, or none at all, make the same run."""
    size = config.fleet_size
    return (*_row_key(config), (size, STRATEGY_TABLE[config.strategy] if size else None))


def _survivors(run: tuple) -> int:
    """The survivor count of a ``_run_key``."""
    return run[2] - run[3][0]


# Index of each route's curve in a state's table, broadcast against the rows' (R, 2) flows.
_ROUTES = np.arange(2)


class RunFailure(RuntimeError):
    """A failure of one run of a lockstep state, ``config``; the message is its only argument, so it pickles."""

    def __init__(self, message: str, config: ScenarioConfig | None = None) -> None:
        super().__init__(message)
        self.config = config


def _select(mask: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Set ``y`` to ``np.where(mask, x, y)``: ``x`` and ``y`` are int64 views, ``mask`` is bool.

    As y ^ ((x ^ y) * mask) it moves bit patterns with neither a branch
    nor a float operation, so every pattern, NaN payloads and -0.0
    included, comes through unchanged.  ``x`` is overwritten.
    """
    x ^= y
    x *= mask
    y ^= x


def step_day(state: SimulationState) -> None:
    """Simulate the next day of every row and fill each config's columns for it.

    From day ``m_day + 1`` on the highest-index drivers are fleet
    vehicles: they stop choosing and learning and become count mass
    routed by the fleet, while the survivors carry on unchanged.

    A fleet decision whose objective is not finite raises ``RunFailure``
    ("fleet objective is ... on day d") for the first row that makes one,
    carrying that row's first config in state order; the day is left
    unfinished.
    """
    day = state.day
    if day > state.total_days:
        raise RuntimeError(f"run is complete after day {state.total_days}")
    if day == state.m_day + 1 and state.memos is None:
        state._hand_over()

    # Two draws per driver, exploration coin then route coin, id order, each
    # generator's into the span of its first row, which its other rows copy.
    pairs = state.draws.reshape(-1, 2)
    for rng, cut in state.draw_into:
        rng.random(out=pairs[cut])
    for source, cut in state.copies:
        pairs[cut] = pairs[source]
    # taken[r] holds the drivers on route r, and taken[2] the explorers.
    taken = np.empty((3, state.width), dtype=bool)
    explore = np.less(pairs[:, 0], state.explore_rate if day > 1 else 1.0, taken[2])  # day 1: all explore
    on_b = np.greater_equal(pairs[:, 1], 0.5, taken[1])  # the day's single route mask: True = route B
    # The coins are read: the buffer is the day's (2, width) scratch from here on.  A range's
    # scratch overwrites the draws of later drivers, so only the passes from here on go by range.
    scratch, tastes, estimates = state.draws, state.tastes, state.estimates
    for a, b, _ in state.ranges:
        utilities = np.subtract(tastes[:, a:b], estimates[:, a:b], scratch[:, a:b])
        # on_b = np.where(explore, on_b, greedy_b)
        greedy_b = np.less(utilities[0], utilities[1], taken[0, a:b])  # ties go to A
        range_b = on_b[a:b]
        range_b ^= greedy_b
        range_b &= explore[a:b]
        range_b ^= greedy_b
        np.logical_not(range_b, greedy_b)

    fleets, memos = state.fleets, state.memos
    flows = []  # per row: (q_hdv_a, q_hdv_b, q_cav_a, q_cav_b)
    for row, cut in enumerate(state.spans):
        q_hdv_b = int(np.count_nonzero(on_b[cut]))
        q_hdv_a = cut.stop - cut.start - q_hdv_b
        fleet_size, weights = fleets[row]
        if fleet_size:
            memo = memos[row]
            decision = memo.get(q_hdv_a)
            if decision is None:
                decision = fleet_optimize(weights, q_hdv_a, q_hdv_b, fleet_size, state.curves)
                if not math.isfinite(decision.objective_value):  # np.argmin stops at the first NaN
                    config = state.configs[list(state.row_of).index(row)]
                    raise RunFailure(f"fleet objective is {decision.objective_value} on day {day}", config)
                memo[q_hdv_a] = decision
            flows.append((q_hdv_a, q_hdv_b, decision.cav_on_a, decision.cav_on_b))
        else:
            flows.append((q_hdv_a, q_hdv_b, 0, 0))

    flows = np.array(flows)
    times = state.curves[_ROUTES, flows[:, :2] + flows[:, 2:]]  # (R, 2): each row's t_a, t_b at its flows
    # (4, R, 1): each row's times and learning steps, as columns for all its drivers.
    columns = np.concatenate((times, state.learning_rate * times), axis=1).T[..., None]
    bits, est_bits = scratch.view(np.int64), estimates.view(np.int64)
    for a, b, tiles in state.ranges:
        # Per tile: its (2, rows, n) views of the scratch and tastes, and its rows' columns.
        views = [
            (scratch[:, start:stop].reshape(2, rows, n), tastes[:, start:stop].reshape(2, rows, n),
             columns[:, first:first + rows])
            for first, rows, start, stop, n in tiles
        ]
        # The estimate of the route taken moves to (1 - alpha) * est + alpha * t.
        np.multiply(state.keep, estimates[:, a:b], scratch[:, a:b])
        for tile_scratch, _, tile_columns in views:
            tile_scratch += tile_columns[2:]
        range_bits = bits[:, a:b]
        _select(taken[:2, a:b], range_bits, est_bits[:, a:b])
        # Perceived time, t + taste, of the route taken: into the route-A half.
        for tile_scratch, tile_tastes, tile_columns in views:
            np.add(tile_columns[:2], tile_tastes, tile_scratch)
        _select(on_b[a:b], range_bits[1], range_bits[0])
    state.last_route = on_b

    # Each config's entry of the day: its row's counts and times, and its row's mean for its survivor count.
    means = day_statistics(
        [(scratch[0, start:stop].reshape(rows, n), counts) for _, rows, start, stop, n, counts in state.blocks],
        state.divisors, state.means,
    )
    state.flows[day - 1] = flows[state.row_of]
    state.times[day - 1] = times[state.row_of]
    state.perceived[day - 1] = means[state.log_of]
    state.day = day + 1


def group_by(configs: Iterable[ScenarioConfig], key) -> dict:
    """The configs grouped by ``key(config)``, in first-seen order."""
    groups: dict = {}
    for config in configs:
        groups.setdefault(key(config), []).append(config)
    return groups


# The fields in which configs stepped together as one state may differ.
LOCKSTEP_FIELDS = ("seed", "taste_spread", "congestion", "base_population", "strategy", "cav_share")
_prefix_values = operator.attrgetter(
    *(f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in LOCKSTEP_FIELDS)
)


def prefix_key(config: ScenarioConfig) -> tuple:
    """The values of ``config``'s fields outside ``LOCKSTEP_FIELDS``, in field order.

    Runs with equal keys step together.
    """
    return _prefix_values(config)


def _driver_rows(configs: Sequence[ScenarioConfig]) -> tuple[int, int]:
    """Driver-rows of ``configs`` stepped as one state: before and after the hand-over."""
    before = sum(population for _, _, population in dict.fromkeys(map(_row_key, configs)))
    after = sum(map(_survivors, dict.fromkeys(map(_run_key, configs))))
    return before, after


def driver_row_days(configs: Sequence[ScenarioConfig]) -> int:
    """Driver-row-days of stepping ``configs`` as one state: the work that grows with its arrays."""
    before, after = _driver_rows(configs)
    return before * configs[0].m_day + after * (configs[0].total_days - configs[0].m_day)


# The most driver-rows one state holds, and one range of a day's passes.  A
# day's time per driver-row falls as the state grows, while numpy's per-call
# cost is shared by more rows, and stops falling at about this size: rows of
# 1,000 drivers took 33 ns per driver-row-day at 7,200 driver-rows, 25-26 ns at
# 21,600-28,800 and no less beyond, and rows of 250 took 37-40 ns from 14,400
# to 57,600 (2-vCPU Xeon, 2 MB L2, numpy 2.4.6).  A larger state saves no time,
# only holds more memory.  A day's passes over a wider state would overflow the
# L2, as its tastes, estimates and scratch hold 48 bytes per driver-row (4.8 MB
# at 10^5 drivers): such a state steps them in ranges of at most this size.
MAX_DRIVER_ROWS = 2**15

# numpy's ufunc buffer size, in elements, while ``run_state`` steps a state.  numpy
# buffers a block's (2, rows, 1) time column whenever two rows fit in the buffer,
# 8,192 elements by default (ten rows of 1,000 drivers: 22 us an add, 8.6 us at this
# size; 2-vCPU Xeon, numpy 2.4.6).  The day's kernels are elementwise and its sums run
# over contiguous rows, which numpy does not buffer, so no output bit depends on it.
DAY_BUFSIZE = 512


def plan(configs: Iterable[ScenarioConfig], parts: int = 1) -> list[list[ScenarioConfig]]:
    """The configs of each lockstep state that runs ``configs``, each state in their order.

    Configs of equal ``prefix_key`` form a group.  With fewer groups than
    ``parts``, each group is cut into enough chunks to give every part one
    (see ``_split``).  Each chunk is then cut at ``MAX_DRIVER_ROWS`` (see
    ``_capped``).
    """
    groups = list(group_by(configs, prefix_key).values())
    if 0 < len(groups) < parts:
        groups = [chunk for group in groups for chunk in _split(group, -(-parts // len(groups)))]
    return [state for chunk in groups for state in _capped(chunk)]


def _split(group: list[ScenarioConfig], parts: int) -> list[list[ScenarioConfig]]:
    """``group`` in up to ``parts`` chunks of about equal driver-row-days, each in the group's order.

    The group is cut into whole blocks: one per prefix row (``_row_key``),
    so no two chunks step the same human-only days, or, when there are
    fewer prefix rows than parts, one per prefix row and survivor count, so
    the runs of a block still step as the rows of one array.  Largest
    first, each block joins the chunk with the fewest driver-row-days so
    far: its runs' days after the hand-over, and its prefix row's shared
    days unless the chunk steps that row already.
    """
    block_of = _row_key
    if len(group_by(group, block_of)) < parts:
        block_of = lambda config: (_row_key(config), config.survivor_count)
    blocks = group_by(group, block_of)
    loads = [0] * min(parts, len(blocks))
    stepped: list[set] = [set() for _ in loads]  # the prefix rows of each chunk
    chunk_of = {}
    for key, members in sorted(blocks.items(), key=lambda item: driver_row_days(item[1]), reverse=True):
        chunk_of[key] = least = min(range(len(loads)), key=loads.__getitem__)
        _, _, population = row = _row_key(members[0])
        loads[least] += driver_row_days(members) - (row in stepped[least]) * population * group[0].m_day
        stepped[least].add(row)
    chunks: list[list[ScenarioConfig]] = [[] for _ in loads]
    for config in group:
        chunks[chunk_of[block_of(config)]].append(config)
    return chunks


def _capped(configs: list[ScenarioConfig]) -> list[list[ScenarioConfig]]:
    """``configs`` cut into states of at most MAX_DRIVER_ROWS driver-rows, each in their order.

    A state takes the configs of whole prefix rows, in first-seen order; a
    row larger than the cap is a state of its own.
    """
    state_of, states, size = {}, 0, MAX_DRIVER_ROWS
    for key, members in group_by(configs, _row_key).items():
        rows = max(_driver_rows(members))
        if size + rows > MAX_DRIVER_ROWS:
            states, size = states + 1, 0
        state_of[key] = states
        size += rows
    # States are numbered in the first-seen order of their rows, so group_by keeps it.
    return list(group_by(configs, lambda config: state_of[_row_key(config)]).values())


def run_state(configs: list[ScenarioConfig]) -> list[SimulationLog]:
    """Step ``configs``, which share their ``prefix_key``, as one state to the last day: a log each.

    Days 1..m_day are stepped once, a row per (seed, taste_spread, population),
    then a row per distinct run, so every log equals the one its config gives
    alone.  Each log's columns are its config's own slice of the state's.
    numpy's floating-point warnings are off while the state is set up and
    stepped: an inf or NaN it makes is an output that the caller checks.
    numpy's ufunc buffer holds ``DAY_BUFSIZE`` elements meanwhile, and the
    caller's size is restored on return or raise.
    A non-finite fleet objective stops the state with ``step_day``'s
    ``RunFailure``, for the first run to make one: by day, then by row.
    """
    with np.errstate(all="ignore"):  # once per state, not per day kernel
        bufsize = np.setbufsize(DAY_BUFSIZE)
        try:  # numpy 1.x's errstate leaves the buffer size alone
            state = SimulationState(*configs)
            while state.day <= state.total_days:
                step_day(state)
        finally:
            np.setbufsize(bufsize)
    return [SimulationLog(config, state.flows[:, i], state.times[:, i], state.perceived[:, i])
            for i, config in enumerate(configs)]


def run_branches(configs: Iterable[ScenarioConfig]) -> Iterator[SimulationLog]:
    """Run ``configs`` as the lockstep states of ``plan``; yield each config's log, state by state."""
    for state in plan(configs):
        yield from run_state(state)


def run_scenario(config: ScenarioConfig) -> SimulationLog:
    """Run all four phases of ``config`` and return its log; equal configs give equal logs."""
    return run_state([config])[0]
