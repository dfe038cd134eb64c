import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottlesim import (
    RouteParams,
    STRATEGY_NAMES,
    STRATEGY_TABLE,
    ScenarioConfig,
    SimulationState,
    TwoRouteNetwork,
    fleet_optimize,
    run_branches,
    run_scenario,
    step_day,
)
from bottlesim import engine
from bottlesim.engine import LOCKSTEP_FIELDS, MAX_DAYS, SimulationLog, prefix_key
from bottlesim.expcli import DAILY_HEADER, _daily_rows
from scalar_model import (
    ROUTE_A,
    ROUTE_B,
    EstimateVector,
    HumanAgent,
    TasteProfile,
    agent_snapshot,
    bpr_table,
    choose_route,
    sample_taste,
    update_estimate,
)


def columns(log, days=None):
    """A log's columns over its first ``days``, as bytes: equal exactly when every value is equal bit for bit."""
    return log.flows[:days].tobytes(), log.times[:days].tobytes(), log.perceived[:days].tobytes()


def state_log(state, i=0):
    """The log of config ``i`` of ``state`` over the days stepped so far."""
    days = state.day - 1
    return SimulationLog(state.configs[i], state.flows[:days, i], state.times[:days, i], state.perceived[:days, i])


def records(log):
    """Each day of ``log`` by name, read back from its daily CSV rows; None where the CSV has NA."""
    names = DAILY_HEADER.split(",")
    parsed = []
    for row in _daily_rows(log):
        cells = row.split(",")
        values = [int(cell) for cell in cells[:5]] + [None if cell == "NA" else float(cell) for cell in cells[5:]]
        parsed.append(SimpleNamespace(**dict(zip(names, values))))
    return parsed


def small_config(**kwargs):
    defaults = dict(base_population=40, phase_lengths=(3, 3, 3, 3), seed=7)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# A value of every kind a config file or a caller may pass for a field.
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # 10**5000 has more digits than Python 3.11 formats, so it has no repr.
    st.sampled_from([2**63, 2**64, 10**400, -(10**400), 10**5000, -(10**5000)]),
    st.floats(),  # NaN and both infinities included
    st.floats().map(np.float64),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 3), st.booleans(), st.text(max_size=1)), min_size=3, max_size=5),
    st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@pytest.mark.parametrize(
    "cls,valid,name",
    [
        pytest.param(cls, valid, f.name, id=f"{cls.__name__}.{f.name}")
        for cls, valid in [
            (ScenarioConfig, {"phase_lengths": (1, 1, 1, 1)}),
            (RouteParams, {"free_flow_time": 5.0, "capacity": 500.0, "exponent": 2.0}),
            (TwoRouteNetwork, vars(TwoRouteNetwork.default())),
        ]
        for f in dataclasses.fields(cls)
    ],
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(value=ANY_VALUE)
def test_validators_are_total(cls, valid, name, value):
    """Any value builds a config whose float fields are Python floats, or raises a ValueError naming it."""
    try:
        built = cls(**{**valid, name: value})
    except ValueError as exc:
        assert name in str(exc)
        return
    for f in dataclasses.fields(built):
        if f.type in ("float", float):
            assert type(getattr(built, f.name)) is float


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"cav_share": -0.1}, "cav_share"),
            ({"cav_share": 1.5}, "cav_share"),
            ({"congestion": 0.0}, "congestion"),
            ({"congestion": -1.0}, "congestion"),
            ({"strategy": "Greedy"}, "strategy"),
            ({"phase_lengths": (100, 100, 100)}, "phase_lengths"),
            ({"phase_lengths": (100, -1, 100, 100)}, "phase_lengths"),
            ({"base_population": 0}, "base_population"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"seed": True}, "seed"),
            ({"base_population": True}, "base_population"),
            ({"phase_lengths": (True,) * 4}, "phase_lengths"),
            # A bool is not a number either: it would reach the CSVs as True or False.
            ({"cav_share": False}, "cav_share"),
            ({"congestion": True}, "congestion"),
            ({"learning_rate": True}, "learning_rate"),
            ({"explore_rate": False}, "explore_rate"),
            ({"taste_spread": True}, "taste_spread"),
            # An array's == compares elementwise, so this one compares equal to "Selfish".
            ({"strategy": np.array(["Selfish"])}, "strategy"),
            # More days than a run's (days, 4) int64 flow column can index.
            ({"phase_lengths": (10**30, 1, 1, 1)}, "phase_lengths"),
            ({"phase_lengths": (MAX_DAYS, 0, 0, 1)}, "phase_lengths"),
        ],
    )
    def test_named_field_rejections(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**kwargs)

    def test_longest_run_numpy_can_index_is_accepted(self):
        # Accepted, though no machine holds its columns: that is a runtime failure.
        config = ScenarioConfig(phase_lengths=(MAX_DAYS - 3, 1, 1, 1))
        assert config.total_days == MAX_DAYS
        assert config.total_days * 32 <= np.iinfo(np.intp).max

    @pytest.mark.parametrize("congestion", [math.inf, -math.inf, math.nan, 10**400, 1e308])
    def test_non_finite_congestion_rejected(self, congestion):
        # 10**400 is too large for a float; 1e308 makes the population infinite.
        with pytest.raises(ValueError, match="congestion"):
            ScenarioConfig(congestion=congestion)

    def test_population_too_large_for_an_array_rejected(self):
        with pytest.raises(ValueError, match="base_population"):
            ScenarioConfig(base_population=10**400)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_population": 2**62},
            {"base_population": 2**62 - 1, "congestion": 4.0},  # a total of 2**64
            {"base_population": 2**58, "congestion": 2.0},  # 2**59: numpy's limit for 16 bytes each
        ],
    )
    def test_population_beyond_numpy_array_limit_rejected(self, kwargs):
        with pytest.raises(ValueError, match="congestion .* with base_population .* drivers"):
            ScenarioConfig(**kwargs)

    def test_largest_population_numpy_can_index_is_accepted(self):
        # Accepted, though no machine holds its arrays: that is a runtime failure.
        config = ScenarioConfig(base_population=2**59 - 64)
        assert config.total_population * 16 <= np.iinfo(np.intp).max

    def test_population_scales_with_congestion(self):
        assert ScenarioConfig(congestion=0.25).total_population == 250
        assert ScenarioConfig(congestion=2.6).total_population == 2600
        assert ScenarioConfig().total_population == 1000

    def test_rounding_is_half_up(self):
        config = ScenarioConfig(base_population=10, cav_share=0.25)
        assert config.fleet_size == 3  # 2.5 rounds up
        assert ScenarioConfig(base_population=1000, congestion=0.0005).total_population == 1

    def test_derived_sizes(self):
        config = ScenarioConfig(cav_share=0.1)
        assert config.fleet_size == 100
        assert config.survivor_count == 900
        assert config.m_day == 200
        assert config.total_days == 400


class TestInitSimulation:
    def test_population_starts_at_free_flow_knowledge(self):
        state = SimulationState(ScenarioConfig(seed=4))
        assert [block.n for block in state.blocks] == [1000] and state.day == 1
        agent = agent_snapshot(state, 0)
        assert (agent.estimates.t_a_hat, agent.estimates.t_b_hat) == (5.0, 15.0)
        assert agent.last_route is None
        assert state.fleets == [(0, None)] and state.memos is None  # no fleet before the hand-over

    def test_tastes_drawn_in_index_order_route_a_first(self):
        config = small_config(seed=99)
        state = SimulationState(config)
        rng = np.random.default_rng(99)
        beta = config.taste_spread
        for i in range(config.total_population):
            expected_a = sample_taste(rng.random(), beta)
            expected_b = sample_taste(rng.random(), beta)
            agent = agent_snapshot(state, i)
            assert agent.tastes.eps_a == expected_a
            assert agent.tastes.eps_b == expected_b

    def test_ids_cover_population(self):
        state = SimulationState(small_config())
        ids = [agent_snapshot(state, i).id for i in range(40)]
        assert ids == list(range(40))


class TestStepDay:
    def test_day_one_matches_pinned_realization(self):
        state = SimulationState(ScenarioConfig(seed=1))
        step_day(state)
        (record,) = records(state_log(state))
        assert record.q_hdv_a == 518  # binomial(1000, 0.5) at this seed and generator
        assert record.q_cav_a == record.q_cav_b == 0
        assert record.mean_cav_time is None
        assert record.t_a == pytest.approx(5.0 * (1.0 + (518 / 500.0) ** 2))

    def test_day_two_matches_pinned_realization(self):
        state = SimulationState(ScenarioConfig(seed=1))
        step_day(state)
        step_day(state)
        assert state.flows[1, 0, 0] == 850

    def test_greedy_limit_all_choose_faster_route(self):
        # frozen free-flow estimates plus negligible tastes: everyone picks A
        config = ScenarioConfig(
            base_population=200,
            phase_lengths=(2, 0, 0, 0),
            learning_rate=0.0, explore_rate=0.0, taste_spread=1e-9,
            seed=3,
        )
        log = run_scenario(config)
        assert log.flows[1, 0] == 200

    def test_stepping_past_the_last_day_raises(self):
        config = ScenarioConfig(base_population=10, phase_lengths=(1, 0, 0, 0))
        state = SimulationState(config)
        step_day(state)
        with pytest.raises(RuntimeError, match="complete"):
            step_day(state)


class TestApplyMday:
    """The hand-over that step_day applies before day m_day + 1."""

    def test_share_zero_changes_nothing(self):
        config = small_config(cav_share=0.0)
        state = SimulationState(config)
        for _ in range(config.m_day + 1):
            step_day(state)
        record = records(state_log(state))[-1]
        assert record.day == config.m_day + 1
        assert record.q_hdv_a + record.q_hdv_b == 40
        assert record.q_cav_a == record.q_cav_b == 0
        assert record.mean_cav_time is None

    def test_highest_indices_removed_survivors_untouched(self):
        # The scalar oracle steps the survivors across the hand-over on their own.
        config = ScenarioConfig(cav_share=0.1, seed=5, phase_lengths=(1, 2, 1, 0))
        state, _ = assert_engine_replays_oracle(config)
        handover = records(state_log(state))[config.m_day]
        assert handover.q_hdv_a + handover.q_hdv_b == 900
        assert handover.q_cav_a + handover.q_cav_b == 100
        # The replaced drivers stop choosing and learning: the state drops them.
        assert state.estimates.shape == state.tastes.shape == (2, 900)
        assert state.last_route.shape == (900,)
        before = SimulationState(config)
        for _ in range(config.m_day):
            step_day(before)
        assert np.array_equal(state.tastes, before.tastes[:, :900])

    def test_full_share_leaves_no_humans(self):
        config = ScenarioConfig(
            base_population=50, cav_share=1.0, strategy="Social", phase_lengths=(2, 2, 2, 2), seed=11
        )
        log = run_scenario(config)
        for record in records(log)[4:]:
            assert record.q_hdv_a == record.q_hdv_b == 0
            assert record.mean_hdv_time is None
            assert record.mean_cav_time is not None
        # the survivor set is empty from the start, so perceived means never exist
        assert all(record.mean_perceived_hdv_time is None for record in records(log))


class TestRunScenario:
    def test_share_zero_never_creates_a_fleet(self):
        log = run_scenario(small_config(cav_share=0.0))
        assert (log.flows.shape, log.times.shape, log.perceived.shape) == ((12, 4), (12, 2), (12,))
        assert (log.flows.dtype, log.times.dtype, log.perceived.dtype) == (np.int64, np.float64, np.float64)
        assert not log.flows[:, 2:].any()

    def test_phase_integrity_and_conservation(self):
        config = small_config(cav_share=0.3, strategy="Social")
        log = run_scenario(config)
        m_day = config.m_day
        for record in records(log):
            total = record.q_hdv_a + record.q_hdv_b + record.q_cav_a + record.q_cav_b
            assert total == config.total_population
            fleet = record.q_cav_a + record.q_cav_b
            assert fleet == (0 if record.day <= m_day else config.fleet_size)

    def test_identical_configs_identical_logs(self):
        config = small_config(cav_share=0.2, strategy="Malicious", seed=123)
        assert columns(run_scenario(config)) == columns(run_scenario(config))

    def test_records_are_consecutive_days_from_one(self):
        log = run_scenario(small_config())
        assert [r.day for r in records(log)] == list(range(1, 13))

    def test_survivor_perceived_mean_ignores_future_fleet_members(self):
        # four drivers, two become fleet: perceived means use ids 0 and 1 only
        config = ScenarioConfig(base_population=4, cav_share=0.5, phase_lengths=(1, 0, 0, 0), seed=2)
        state = SimulationState(config)
        step_day(state)
        (record,) = records(state_log(state))
        t = {ROUTE_A: record.t_a, ROUTE_B: record.t_b}
        perceived = []
        for i in range(2):
            agent = agent_snapshot(state, i)
            taken = agent.last_route
            eps = agent.tastes.eps_a if taken == ROUTE_A else agent.tastes.eps_b
            perceived.append(t[taken] + eps)
        assert record.mean_perceived_hdv_time == pytest.approx(sum(perceived) / 2)


def scalar_oracle(config):
    """Replay a config on the per-driver scalar model, one day at a time.

    Yields, per day: the number of human drivers, the committed route of
    each, the four counts, the two travel times and every human driver's
    estimates after learning.  Draw order is the documented one: two taste
    draws per driver in id order, then per day an exploration coin and a
    route coin per current human driver in id order.
    """
    total = config.total_population
    rng = np.random.default_rng(config.seed)
    tastes = []
    for _ in range(total):
        eps_a = sample_taste(rng.random(), config.taste_spread)
        eps_b = sample_taste(rng.random(), config.taste_spread)
        tastes.append((eps_a, eps_b))
    estimates = {
        i: (config.network.route_a.free_flow_time, config.network.route_b.free_flow_time)
        for i in range(total)
    }

    curve_a, curve_b = bpr_table(config.network, total)
    n_hdv = total
    fleet_on = False
    for day in range(1, config.total_days + 1):
        if day == config.m_day + 1:
            n_hdv = config.survivor_count
            fleet_on = config.fleet_size > 0
        routes = {}
        for i in range(n_hdv):
            explore_draw = rng.random()
            route_draw = rng.random()
            if day == 1:
                routes[i] = ROUTE_A if route_draw < 0.5 else ROUTE_B
            else:
                agent = HumanAgent(
                    id=i,
                    tastes=TasteProfile(*tastes[i]),
                    estimates=EstimateVector(*estimates[i]),
                )
                routes[i] = choose_route(agent, explore_draw, route_draw, config.explore_rate)
        q_hdv_a = sum(1 for r in routes.values() if r == ROUTE_A)
        q_hdv_b = n_hdv - q_hdv_a
        if fleet_on:
            decision = fleet_optimize(
                STRATEGY_TABLE[config.strategy], q_hdv_a, q_hdv_b,
                config.fleet_size, (curve_a, curve_b),
            )
            q_cav_a, q_cav_b = decision.cav_on_a, decision.cav_on_b
        else:
            q_cav_a = q_cav_b = 0
        # The day's times are the entries of the table the fleet reads.
        t_a, t_b = float(curve_a[q_hdv_a + q_cav_a]), float(curve_b[q_hdv_b + q_cav_b])
        for i in range(n_hdv):
            experienced = t_a if routes[i] == ROUTE_A else t_b
            updated = update_estimate(
                EstimateVector(*estimates[i]), routes[i], experienced, config.learning_rate
            )
            estimates[i] = (updated.t_a_hat, updated.t_b_hat)
        yield SimpleNamespace(
            n_hdv=n_hdv,
            routes=routes,
            counts=(q_hdv_a, q_hdv_b, q_cav_a, q_cav_b),
            times=(t_a, t_b),
            estimates=dict(estimates),
            tastes=tastes,
        )


def assert_engine_replays_oracle(config):
    """Step the engine beside the scalar oracle and compare every day exactly.

    Returns the engine's final state and the oracle's days.
    """
    state = SimulationState(config)
    days = list(scalar_oracle(config))
    for day, expected in enumerate(days):
        step_day(state)
        assert tuple(state.flows[day, 0].tolist()) == expected.counts
        assert tuple(state.times[day, 0].tolist()) == expected.times
        for i in range(expected.n_hdv):
            agent = agent_snapshot(state, i)
            assert agent.last_route == expected.routes[i]
            assert (agent.estimates.t_a_hat, agent.estimates.t_b_hat) == expected.estimates[i]
    return state, days


class TestScalarReconstruction:
    """The vectorized engine must replay the per-driver reference model exactly."""

    def test_engine_matches_scalar_ops_and_documented_draw_order(self):
        config = ScenarioConfig(
            base_population=40,
            cav_share=0.25,
            strategy="Social",
            phase_lengths=(2, 2, 2, 2),
            seed=31,
        )
        assert_engine_replays_oracle(config)


def _unit_interval():
    """Floats in [0, 1] with the endpoints drawn often."""
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def small_configs(draw):
    return ScenarioConfig(
        learning_rate=draw(_unit_interval()),
        explore_rate=draw(_unit_interval()),
        taste_spread=draw(st.sampled_from([1e-9, 0.5, 5.0, 50.0])),
        congestion=draw(st.sampled_from([0.5, 1.0, 2.6])),
        cav_share=draw(_unit_interval()),
        strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        phase_lengths=tuple(draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))),
        base_population=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestEngineProperties:
    """Invariants of the vectorized day loop over random small valid configs."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(config=small_configs())
    def test_run_scenario_equals_scalar_oracle(self, config):
        state, oracle = assert_engine_replays_oracle(config)
        log = run_scenario(config)
        assert columns(log) == columns(state_log(state))

        survivors = config.survivor_count
        for record, expected in zip(records(log), oracle, strict=True):
            humans = config.total_population if record.day <= config.m_day else survivors
            fleet = 0 if record.day <= config.m_day else config.fleet_size
            assert record.q_hdv_a + record.q_hdv_b == humans
            assert record.q_cav_a + record.q_cav_b == fleet
            assert math.isfinite(record.t_a) and math.isfinite(record.t_b)

            q_a, q_b = record.q_hdv_a, record.q_hdv_b
            if humans:
                assert record.mean_hdv_time == (q_a * record.t_a + q_b * record.t_b) / humans
            else:
                assert record.mean_hdv_time is None
            if survivors:
                taken = [0 if expected.routes[i] == ROUTE_A else 1 for i in range(survivors)]
                perceived = [expected.times[k] + expected.tastes[i][k] for i, k in enumerate(taken)]
                # The engine sums pairwise; on a mean of at most 65 terms below
                # 1e4 in magnitude its rounding error is under 1e-11.
                assert record.mean_perceived_hdv_time == pytest.approx(
                    math.fsum(perceived) / survivors, rel=0, abs=1e-10
                )
            else:
                assert record.mean_perceived_hdv_time is None
            assert (record.mean_cav_time is None) == (fleet == 0)


def stepped_log(config):
    """The config's ``columns`` from a plain day loop on one state: the reference for run_branches."""
    state = SimulationState(config)
    for _ in range(config.total_days):
        step_day(state)
    return columns(state_log(state))


@st.composite
def branch_groups(draw):
    """Configs sharing everything but strategy and cav_share, in random order."""
    base = draw(small_configs())
    fleets = draw(st.lists(
        st.tuples(st.sampled_from(STRATEGY_NAMES), _unit_interval()), min_size=1, max_size=6,
    ))
    return [dataclasses.replace(base, strategy=s, cav_share=share) for s, share in fleets]


def _group(phases, fleets, base_population=12, seed=3):
    base = ScenarioConfig(base_population=base_population, phase_lengths=phases, seed=seed)
    return [dataclasses.replace(base, strategy=s, cav_share=share) for s, share in fleets]


_EVERY_FLEET = [(s, share) for s in STRATEGY_NAMES for share in (0.0, 1.0, 0.5)]


class TestRunBranches:
    """Runs that share their human-only days equal the same runs stepped alone."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(configs=branch_groups())
    # Every strategy at shares 0 and 1 (survivor count 0) and between.
    @example(configs=_group((2, 2, 2, 2), _EVERY_FLEET))
    # m_day = 0: the fleet takes over before day 1, nothing is shared.
    @example(configs=_group((0, 0, 2, 3), _EVERY_FLEET))
    # A hand-over past the last day: the whole run is shared.
    @example(configs=_group((2, 3, 0, 0), _EVERY_FLEET))
    # Long enough after the hand-over for learning to change choices.
    @example(configs=_group((3, 3, 8, 8), [("Malicious", 0.3), ("Social", 0.6), ("Selfish", 0.3)],
                            base_population=200))
    def test_logs_equal_each_config_stepped_alone(self, configs):
        logs = list(run_branches(configs))
        assert [log.config for log in logs] == configs
        for log, config in zip(logs, configs, strict=True):
            assert columns(log) == stepped_log(config)

    def test_run_scenario_is_the_one_branch_case(self):
        config = small_config(cav_share=0.3, strategy="Disruptive")
        assert columns(run_scenario(config)) == stepped_log(config)

    def test_branch_logs_share_no_state(self):
        # Two forks, then two configs simulated once as one run.
        for fleets in ([("Social", 0.5), ("Selfish", 0.5)], [("Social", 0.0), ("Selfish", 0.0)]):
            first, second = run_branches(_group((2, 2, 2, 2), fleets))
            assert columns(first, 4) == columns(second, 4)
            for name in ("flows", "times", "perceived"):
                assert not np.shares_memory(getattr(first, name), getattr(second, name))

    def test_shared_records_are_immutable(self):
        # One survivor count, so the two logs step as one row until the hand-over:
        # a write to one log's columns still leaves the other's as they were.
        first, second = run_branches(_group((2, 2, 2, 2), [("Social", 0.5), ("Selfish", 0.5)]))
        before = columns(second)
        first.flows[:] = -1
        first.times[:] = -1.0
        first.perceived[:] = -1.0
        assert columns(second) == before

    def test_rejects_configs_that_differ_before_the_hand_over(self):
        configs = [small_config(cav_share=0.1), small_config(cav_share=0.1, learning_rate=0.3)]
        with pytest.raises(ValueError) as raised:
            SimulationState(*configs)
        assert str(raised.value) == (
            "configs stepped together may differ only in seed, taste_spread, congestion, "
            "base_population, strategy and cav_share"
        )

    def test_configs_of_any_prefix_key_run(self):
        # Each learning_rate, explore_rate and phase_lengths is a state of its own.
        configs = [small_config(cav_share=0.1), small_config(cav_share=0.1, learning_rate=0.3),
                   small_config(explore_rate=0.3, seed=8), small_config(cav_share=0.5, phase_lengths=(3, 3, 3, 4)),
                   small_config(cav_share=0.5, learning_rate=0.3)]
        logs = list(run_branches(configs))
        assert sorted(map(repr, (log.config for log in logs))) == sorted(map(repr, configs))
        for log in logs:
            assert columns(log) == columns(run_scenario(log.config))

    def test_no_configs_no_logs(self):
        assert list(run_branches([])) == []

    def test_prefix_key_ignores_only_the_fleet_knobs(self):
        # The seed, taste_spread and population only set a row's draws, tastes and
        # length, so they too share a group.
        config = small_config(cav_share=0.4, strategy="Malicious")
        assert prefix_key(config) == prefix_key(small_config())
        assert prefix_key(config) == prefix_key(small_config(seed=8))
        assert prefix_key(config) == prefix_key(small_config(taste_spread=1e-9))
        assert prefix_key(config) == prefix_key(small_config(taste_spread=50.0, seed=8))
        assert prefix_key(config) == prefix_key(small_config(congestion=2.0))
        assert prefix_key(config) == prefix_key(small_config(base_population=7, congestion=2.6))
        assert prefix_key(config) != prefix_key(small_config(learning_rate=0.3))
        assert prefix_key(config) != prefix_key(small_config(explore_rate=0.3))
        assert prefix_key(config) != prefix_key(small_config(phase_lengths=(3, 3, 3, 4)))

    def test_prefix_key_shares_exactly_the_lockstep_fields(self):
        # A field added to ScenarioConfig has no entry here, so this fails until
        # it is given one: whether runs may share its rows is then decided.
        other = {
            "learning_rate": 0.3, "explore_rate": 0.3, "taste_spread": 50.0,
            "network": TwoRouteNetwork(RouteParams(6.0, 500.0, 2.0), RouteParams(15.0, 800.0, 2.0)),
            "congestion": 2.0, "cav_share": 0.4, "strategy": "Malicious",
            "phase_lengths": (3, 3, 3, 4), "base_population": 7, "seed": 8,
        }
        config = small_config()
        for name in (f.name for f in dataclasses.fields(ScenarioConfig)):
            changed = small_config(**{name: other[name]})
            assert getattr(changed, name) != getattr(config, name)
            assert (prefix_key(changed) == prefix_key(config)) == (name in LOCKSTEP_FIELDS), name


@st.composite
def lockstep_groups(draw):
    """Configs at 2 to 4 seeds and 1 to 3 taste spreads, each under the same fleets, in random order."""
    base = draw(small_configs())
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=4, unique=True))
    spreads = draw(st.lists(
        st.one_of(st.sampled_from([1e-9, 0.5, 5.0, 50.0]), st.floats(1e-3, 1e3)),
        min_size=1, max_size=3, unique=True,
    ))
    shares = st.one_of(st.sampled_from([0.0, 1.0]), _unit_interval())
    fleets = draw(st.lists(st.tuples(st.sampled_from(STRATEGY_NAMES), shares), min_size=1, max_size=4))
    configs = [
        dataclasses.replace(base, seed=seed, taste_spread=spread, strategy=s, cav_share=share)
        for seed in seeds for spread in spreads for s, share in fleets
    ]
    return draw(st.permutations(configs))


class TestLockstep:
    """The seeds and fleets of one run_branches call step as rows of one array."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(configs=lockstep_groups())
    # Every strategy at shares 0, 1 and between, at three seeds; m_day = 0 and a
    # hand-over past the last day.
    @example(configs=[dataclasses.replace(c, seed=seed) for seed in (1, 2, 9)
                      for c in _group((2, 2, 2, 2), _EVERY_FLEET)])
    @example(configs=[dataclasses.replace(c, seed=seed) for seed in (1, 2)
                      for c in _group((0, 0, 2, 3), _EVERY_FLEET)])
    @example(configs=[dataclasses.replace(c, seed=seed) for seed in (1, 2)
                      for c in _group((2, 3, 0, 0), _EVERY_FLEET)])
    # The extreme spreads at two seeds, a seed's rows next to each other: row 1
    # is seed 1 at 1e-9, while slot 1 of the draw buffer holds seed 2's draws.
    @example(configs=[dataclasses.replace(c, seed=seed, taste_spread=spread)
                      for seed in (1, 2) for spread in (50.0, 1e-9)
                      for c in _group((3, 3, 3, 3), [("Social", 0.5), ("Selfish", 0.0)], 40)])
    def test_logs_equal_each_config_run_alone(self, configs):
        logs = list(run_branches(configs))
        assert [log.config for log in logs] == configs
        for log, config in zip(logs, configs, strict=True):
            assert columns(log) == columns(run_scenario(config))

    def test_one_step_day_call_per_day(self, monkeypatch):
        configs = [dataclasses.replace(c, seed=seed) for seed in (1, 2, 3)
                   for c in _group((2, 2, 3, 3), [("Social", 0.5), ("Selfish", 0.5)])]
        calls = counted_step_days(monkeypatch)
        list(run_branches(configs))
        # Three seed rows before the hand-over, then one group of six rows.
        assert calls == [3] * 4 + [6] * 6

    def test_one_row_per_seed_and_spread_before_the_hand_over(self, monkeypatch):
        configs = [dataclasses.replace(c, seed=seed, taste_spread=spread)
                   for spread in (0.01, 5.0, 1000.0) for seed in (1, 2)
                   for c in _group((2, 2, 3, 3), [("Social", 0.5), ("Selfish", 0.5)])]
        layouts = day_layouts(monkeypatch)
        calls = counted_step_days(monkeypatch)
        list(run_branches(configs))
        # Six rows drawing from two generators, then twelve rows, one per run: the
        # rows of a seed after its first copy its draws.
        assert calls == [6] * 4 + [12] * 6
        assert layouts[0] == ([(6, 12)], 2, 4)
        assert layouts[-1] == ([(12, 6)], 2, 10)

    def test_mixed_survivor_counts_step_together_past_the_hand_over(self):
        configs = [small_config(cav_share=0.5), small_config(cav_share=0.25), small_config(cav_share=0.5, seed=8)]
        state = SimulationState(*configs)
        for _ in range(state.total_days):
            step_day(state)
        # A block per survivor count, whatever the seed: 20 drivers in two rows, then 30 in one.
        assert [(block.rows, block.n) for block in state.blocks] == [(2, 20), (1, 30)]
        assert state.width == 70
        for i, config in enumerate(configs):
            assert columns(state_log(state, i)) == stepped_log(config)

    def test_one_state_steps_its_seeds_through_the_hand_over(self):
        configs = [small_config(cav_share=0.5, seed=seed) for seed in (7, 8)]
        state = SimulationState(*configs)
        for _ in range(state.total_days):
            step_day(state)
        assert state.estimates.shape == (2, 40)
        assert [(block.rows, block.n) for block in state.blocks] == [(2, 20)]
        for i, config in enumerate(configs):
            assert columns(state_log(state, i)) == stepped_log(config)


@st.composite
def ragged_groups(draw):
    """Configs drawn from 1 to 3 populations, seeds, spreads and fleets, repeats included, in random order."""
    base = draw(small_configs())
    populations = draw(st.lists(
        st.tuples(st.integers(2, 30), st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.6])), min_size=1, max_size=3,
    ))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True))
    spreads = draw(st.lists(st.sampled_from([1e-9, 0.5, 5.0, 50.0]), min_size=1, max_size=2, unique=True))
    shares = st.one_of(st.sampled_from([0.0, 1.0]), _unit_interval())
    fleets = draw(st.lists(st.tuples(st.sampled_from(STRATEGY_NAMES), shares), min_size=1, max_size=4))
    configs = [
        dataclasses.replace(base, base_population=population, congestion=congestion, seed=seed,
                            taste_spread=spread, strategy=strategy, cav_share=share)
        for population, congestion in populations for seed in seeds for spread in spreads
        for strategy, share in fleets
    ]
    return draw(st.lists(st.sampled_from(configs), min_size=1, max_size=24))


class TestRaggedLockstep:
    """Runs of any population and survivor count step as the rows of one state."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(configs=ragged_groups())
    # Two populations whose shares leave 20 survivors each: one block after the
    # hand-over, with shares 0 and 1 besides.
    @example(configs=[
        dataclasses.replace(c, base_population=population, seed=seed)
        for population, fleets in ((40, [("Social", 0.5), ("Selfish", 1.0)]), (20, [("Selfish", 0.0), ("Malicious", 1.0)]))
        for seed in (1, 2) for c in _group((2, 2, 3, 3), fleets)
    ])
    def test_logs_equal_each_config_run_alone(self, configs):
        logs = list(run_branches(configs))
        assert [log.config for log in logs] == configs
        for log, config in zip(logs, configs, strict=True):
            assert columns(log) == columns(run_scenario(config))

    def test_one_step_day_call_per_day_whatever_the_population(self, monkeypatch):
        configs = [small_config(congestion=congestion, cav_share=share, seed=seed)
                   for congestion in (0.5, 1.0, 2.6) for share in (0.0, 0.25) for seed in (1, 2)]
        calls = counted_step_days(monkeypatch)
        layouts = day_layouts(monkeypatch)
        list(run_branches(configs))
        assert calls == [6] * 6 + [12] * 6
        # Before the hand-over a block per population, then one per survivor count.
        assert layouts[0] == ([(2, 20), (2, 40), (2, 104)], 6, 0)
        assert layouts[-1] == ([(2, 20), (2, 15), (2, 40), (2, 30), (2, 104), (2, 78)], 12, 0)

    def test_a_block_logs_the_survivor_counts_of_its_rows_configs(self):
        configs = [small_config(congestion=congestion, cav_share=share, seed=seed, strategy=strategy)
                   for congestion, share, seed, strategy in [
                       (1.0, 0.5, 7, "Selfish"), (0.5, 0.0, 7, "Selfish"), (1.0, 0.0, 7, "Selfish"),
                       (0.5, 0.5, 7, "Selfish"), (1.0, 1.0, 7, "Selfish"), (1.0, 0.25, 7, "Selfish"),
                       (0.5, 1.0, 7, "Selfish"), (1.0, 0.5, 8, "Social"), (0.5, 0.5, 8, "Selfish"),
                   ]]
        state = SimulationState(*configs)
        # Before the hand-over a block per population, logging its configs' survivor counts in first-seen order.
        assert [(b.n, b.counts) for b in state.blocks] == [(40, (20, 40, 0, 30)), (20, (20, 10, 0))]
        assert state.log_of.tolist() == [0, 8, 1, 9, 2, 3, 10, 4, 12]
        assert np.array_equal(state.divisors, [20, 40, math.nan, 30] * 2 + [20, 10, math.nan] * 2, equal_nan=True)
        state._hand_over()
        # Then a block per survivor count, each row one mean.
        assert [(b.n, b.counts) for b in state.blocks] == [(20, (20,)), (40, (40,)), (10, (10,)), (0, (0,)), (30, (30,))]
        assert state.log_of.tolist() == [0, 1, 3, 4, 6, 8, 7, 2, 5]
        assert np.array_equal(state.divisors, [20, 20, 20, 40, 10, 10, math.nan, math.nan, 30], equal_nan=True)

    def test_states_stay_within_the_driver_row_cap(self, monkeypatch):
        configs = [small_config(congestion=congestion, cav_share=0.25, seed=seed)
                   for congestion in (0.5, 1.0, 2.6) for seed in (1, 2)]
        monkeypatch.setattr(engine, "MAX_DRIVER_ROWS", 100)
        stepped = stepped_states(monkeypatch)
        logs = list(run_branches(configs))
        # Whole prefix rows, in first-seen order, as many as fit: 20 + 20 + 40, then
        # the other 40, then each row of 104, above the cap, alone.
        assert [[row[2] for row in state.rows] for state in stepped] == [[20, 20, 40], [40], [104], [104]]
        assert all(state.width <= 100 for state in stepped[:2])
        for log, config in zip(logs, configs, strict=True):
            assert columns(log) == columns(run_scenario(config))


def counted_step_days(monkeypatch):
    """A list that grows by the number of rows of each ``step_day`` call the engine makes."""
    calls = []
    real = engine.step_day

    def counting(state):
        real(state)
        calls.append(len(state.rows))  # after the day, which may hand the fleet over first

    monkeypatch.setattr(engine, "step_day", counting)
    return calls


def built_states(monkeypatch):
    """Weak references to the states ``SimulationState`` builds."""
    built = []
    real = engine.SimulationState

    def building(*configs):
        state = real(*configs)
        built.append(weakref.ref(state))
        return state

    monkeypatch.setattr(engine, "SimulationState", building)
    return built


def day_layouts(monkeypatch):
    """Per ``step_day`` call, after the day: each block's (rows, n), the generators and the copied rows."""
    layouts = []
    real = engine.step_day

    def recording(state):
        real(state)
        layouts.append(([(block.rows, block.n) for block in state.blocks], len(state.rngs), len(state.copies)))

    monkeypatch.setattr(engine, "step_day", recording)
    return layouts


def stepped_states(monkeypatch):
    """The states the engine steps, each once, in the order of their first day."""
    stepped = []
    real = engine.step_day

    def stepping(state):
        if not any(state is seen for seen in stepped):
            stepped.append(state)
        real(state)

    monkeypatch.setattr(engine, "step_day", stepping)
    return stepped


class TestOneBranchPath:
    """One state steps the whole group: its prefix rows, then a row per distinct run."""

    def test_one_state_and_one_row_per_distinct_run(self, monkeypatch):
        repeated = [("Social", 0.5), ("Selfish", 0.5), ("Social", 0.5)]
        configs = _group((2, 2, 3, 3), [(s, 0.0) for s in STRATEGY_NAMES] + repeated)
        built, stepped = built_states(monkeypatch), stepped_states(monkeypatch)
        assert len(list(run_branches(configs))) == len(configs)
        # The five share-0 configs are one run, and the second Social 0.5 repeats the first.
        assert len(built) == 1 and len(stepped) == 1
        (state,) = stepped
        assert state.rows == [
            (3, 5.0, 12, (0, None)),
            (3, 5.0, 12, (6, STRATEGY_TABLE["Social"])), (3, 5.0, 12, (6, STRATEGY_TABLE["Selfish"])),
        ]
        assert [(block.first, block.rows, block.n) for block in state.blocks] == [(0, 1, 12), (1, 2, 6)]

    def test_groups_own_their_mutable_state(self, monkeypatch):
        configs = [dataclasses.replace(c, seed=seed) for seed in (1, 2)
                   for c in _group((2, 2, 3, 3), [("Social", 0.5), ("Selfish", 0.25)])]
        stepped = stepped_states(monkeypatch)
        prefixes, generators = [], []

        def hand_over(state, real=SimulationState._hand_over):
            # The prefix's arrays, and the generators before and after the hand-over.
            prefixes.append(copy.copy(state))
            generators.append([rng.bit_generator.state for rng in state.rngs.values()])
            real(state)
            generators.append([rng.bit_generator.state for rng in state.rngs.values()])

        monkeypatch.setattr(SimulationState, "_hand_over", hand_over)
        list(run_branches(configs))
        (state,), (prefix,) = stepped, prefixes
        for a, b in itertools.product(("tastes", "estimates", "last_route", "draws"), repeat=2):
            assert not np.shares_memory(getattr(prefix, a), getattr(state, b))
        rngs = list(state.rngs.values())
        assert not {id(rng) for rng in prefix.rngs.values()} & {id(rng) for rng in rngs}
        assert len({id(rng) for rng in rngs}) == 4
        # The hand-over only re-indexes the configs' columns, which the state keeps.
        assert all(getattr(prefix, name) is getattr(state, name) for name in ("flows", "times", "perceived"))
        assert prefix.row_of.tolist() == [0, 0, 1, 1] and state.row_of.tolist() == [0, 2, 1, 3]
        # A block per survivor count, each with copies of both seeds' generators.
        assert [(block.rows, block.n) for block in state.blocks] == [(2, 6), (2, 9)]
        assert list(state.rngs) == [(1, 12, 6), (2, 12, 6), (1, 12, 9), (2, 12, 9)] and state.copies == []
        before, after = generators
        assert len(before) == 2 and after == before * 2

    def test_prefix_state_dropped_before_the_last_group(self, monkeypatch):
        configs = _group((2, 2, 3, 3), [("Social", 0.5), ("Selfish", 0.25), ("Social", 0.5)])
        built = built_states(monkeypatch)
        # The one state is dropped before its first log is yielded.
        alive = [built[0]() is not None for _ in run_branches(configs)]
        assert alive == [False, False, False]
        assert [built[1]() is not None for _ in run_branches(configs[:1])] == [False]


def naive_split(group, parts):
    """The chunks of ``engine._split``, each chunk's driver-row-days recomputed for every block."""
    block_of = engine._row_key
    if len(engine.group_by(group, block_of)) < parts:
        block_of = lambda config: (engine._row_key(config), config.survivor_count)
    blocks = engine.group_by(group, block_of)
    loads = [[] for _ in range(min(parts, len(blocks)))]
    chunk_of = {}
    for key in sorted(blocks, key=lambda key: engine.driver_row_days(blocks[key]), reverse=True):
        least = min(range(len(loads)), key=lambda i: engine.driver_row_days(loads[i]) if loads[i] else 0)
        chunk_of[key] = least
        loads[least] += blocks[key]
    return [[c for c in group if chunk_of[block_of(c)] == i] for i in range(len(loads))]


class TestPlan:
    """``plan`` decides which configs step together as one state."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(group=ragged_groups(), parts=st.integers(1, 8))
    # Two prefix rows for three parts: a chunk takes several blocks of one row,
    # whose shared days count once.
    @example(group=[small_config(congestion=congestion, cav_share=share)
                    for congestion in (0.5, 1.0) for share in (0.0, 0.1, 0.25, 0.4, 0.5)], parts=3)
    # Every day shared, and none.
    @example(group=[small_config(phase_lengths=(5, 0, 0, 0), cav_share=share, seed=seed)
                    for seed in (1, 2, 3) for share in (0.1, 0.5)], parts=2)
    @example(group=[small_config(phase_lengths=(0, 0, 5, 5), cav_share=share, congestion=congestion)
                    for congestion in (0.5, 2.6) for share in (0.1, 0.25, 0.5)], parts=5)
    def test_split_equals_the_naive_split(self, group, parts):
        assert engine._split(group, parts) == naive_split(group, parts)

    def test_states_keep_the_given_order_of_interleaved_prefix_rows(self, monkeypatch):
        # Sorted by share, then spread, as a sweep's points are: the prefix rows interleave.
        configs = [small_config(cav_share=share, taste_spread=spread)
                   for share in (0.1, 0.5) for spread in (0.5, 5.0, 50.0)]
        assert engine.plan(configs) == [configs]
        assert [log.config for log in run_branches(configs)] == configs
        # A row holds 36 + 20 survivors after the hand-over; a cap of two rows
        # cuts the third off, and each state keeps the given order.
        monkeypatch.setattr(engine, "MAX_DRIVER_ROWS", 112)
        assert engine.plan(configs) == [[c for c in configs if c.taste_spread < 50.0],
                                        [c for c in configs if c.taste_spread == 50.0]]


class TestIdenticalBranches:
    """Configs of a group with equal fleets, or none, are simulated once."""

    def test_share_zero_strategies_run_once(self, monkeypatch):
        configs = _group((2, 2, 3, 3), [(s, 0.0) for s in STRATEGY_NAMES])
        calls = counted_step_days(monkeypatch)
        logs = list(run_branches(configs))
        m_day, total_days = configs[0].m_day, configs[0].total_days
        assert sum(calls) == m_day + (total_days - m_day)
        assert [log.config for log in logs] == configs
        expected = stepped_log(configs[0])
        assert all(columns(log) == expected for log in logs)

    def test_equal_rounded_fleets_run_once(self, monkeypatch):
        configs = _group((2, 2, 3, 3), [("Selfish", 0.25), ("Selfish", 0.26), ("Social", 0.25)])
        assert configs[0].fleet_size == configs[1].fleet_size == configs[2].fleet_size == 3
        calls = counted_step_days(monkeypatch)
        selfish, rounded, social = run_branches(configs)
        # The Social fleet has other weights, so it is a run of its own.
        assert sum(calls) == 4 + 2 * 6
        assert selfish.config != rounded.config
        assert columns(selfish) == columns(rounded) == stepped_log(configs[1])
        assert columns(social) == stepped_log(configs[2])


MEMO_CONFIG = ScenarioConfig(
    base_population=200, phase_lengths=(3, 3, 20, 20), seed=5, cav_share=0.3, strategy="Social",
)


class TestFleetMemo:
    """A run asks the fleet once per distinct human count after the hand-over."""

    def test_one_call_per_distinct_human_count(self, monkeypatch):
        asked = []
        real = engine.fleet_optimize

        def counting(weights, q_hdv_a, *args):
            asked.append(q_hdv_a)
            return real(weights, q_hdv_a, *args)

        monkeypatch.setattr(engine, "fleet_optimize", counting)
        log = run_scenario(MEMO_CONFIG)
        counts = log.flows[MEMO_CONFIG.m_day:, 0].tolist()
        assert len(set(counts)) < len(counts)  # the humans come back to a count
        assert sorted(asked) == sorted(set(counts))

    def test_every_entry_equals_a_fresh_decision(self):
        state = SimulationState(MEMO_CONFIG)
        for _ in range(MEMO_CONFIG.total_days):
            step_day(state)
        (memo,) = state.memos
        assert set(memo) == set(state.flows[state.m_day:, 0, 0].tolist())
        for q_hdv_a, decision in memo.items():
            assert decision == fleet_optimize(
                STRATEGY_TABLE[MEMO_CONFIG.strategy], q_hdv_a, state.width - q_hdv_a,
                MEMO_CONFIG.fleet_size, bpr_table(MEMO_CONFIG.network, MEMO_CONFIG.total_population),
            )

    def test_seed_rows_of_a_run_share_one_empty_memo(self, monkeypatch):
        configs = [dataclasses.replace(MEMO_CONFIG, seed=seed) for seed in (5, 6)]
        asked = []
        real = engine.fleet_optimize

        def counting(weights, q_hdv_a, *args):
            asked.append(q_hdv_a)
            return real(weights, q_hdv_a, *args)

        state = SimulationState(*configs)
        for _ in range(state.m_day):
            step_day(state)
        assert state.memos is None  # no fleet, no memo before the hand-over
        monkeypatch.setattr(engine, "fleet_optimize", counting)
        step_day(state)
        first, second = state.memos
        assert first is second and sorted(first) == sorted(set(asked))
        # Each seed's run alone asks for its own counts; the shared memo asks once for both.
        counts = set(state.flows[state.m_day, :, 0].tolist())
        assert sorted(asked) == sorted(counts)

    def test_spread_rows_of_a_fleet_share_one_memo(self, monkeypatch):
        configs = [dataclasses.replace(MEMO_CONFIG, taste_spread=spread) for spread in (0.5, 5.0)]
        asked = []
        real = engine.fleet_optimize

        def counting(weights, q_hdv_a, *args):
            asked.append(q_hdv_a)
            return real(weights, q_hdv_a, *args)

        monkeypatch.setattr(engine, "fleet_optimize", counting)
        logs = list(run_branches(configs))
        together, asked[:] = list(asked), []
        for config in configs:
            list(run_branches([config]))
        # One memo for both rows: one call per human count of either run, none twice.
        counts = {q for log in logs for q in log.flows[MEMO_CONFIG.m_day:, 0].tolist()}
        assert sorted(together) == sorted(counts)
        assert len(together) <= len(asked)

    def test_every_branch_starts_from_its_own_empty_memo(self, monkeypatch):
        # The hand-over makes new memos, one per fleet and survivor count.
        configs = _group((2, 2, 3, 3), [("Social", 0.5), ("Selfish", 0.5), ("Malicious", 0.25)])
        prefixes, branches = [], []

        def hand_over(state, real=SimulationState._hand_over):
            prefixes.append(state.memos)
            real(state)
            branches.extend((memo, dict(memo)) for memo in state.memos)

        monkeypatch.setattr(SimulationState, "_hand_over", hand_over)
        list(run_branches(configs))
        assert prefixes == [None] and len(branches) == 3
        assert [contents for _, contents in branches] == [{}, {}, {}]
        memos = [memo for memo, _ in branches]
        assert all(a is not b for a, b in itertools.combinations(memos, 2))

    def test_a_non_finite_objective_fails_the_day_and_is_not_stored(self):
        # The Disruptive fleet's -9 weight overflows before any logged value does.  On day 8
        # np.argmin stops at the first non-finite candidate, 12, where 11 is the best finite one.
        network = TwoRouteNetwork(RouteParams(3.1910642561087888e+305, 500.0, 2.0),
                                  RouteParams(9.573192768326367e+305, 800.0, 2.0))
        config = ScenarioConfig(base_population=100, phase_lengths=(3, 3, 3, 3), seed=1, cav_share=0.5,
                                strategy="Disruptive", network=network)
        state = SimulationState(config)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=r"^fleet objective is -inf on day 8$"):
            while state.day <= state.total_days:
                step_day(state)
        assert state.day == 8
        (memo,) = state.memos
        assert memo and all(math.isfinite(decision.objective_value) for decision in memo.values())

    def test_a_non_finite_objective_names_its_run_through_pickle(self):
        # Two runs in one state; only the Disruptive fleet's objective overflows.
        network = TwoRouteNetwork(RouteParams(3.1910642561087888e+305, 500.0, 2.0),
                                  RouteParams(9.573192768326367e+305, 800.0, 2.0))
        selfish = ScenarioConfig(base_population=100, phase_lengths=(3, 3, 3, 3), seed=1, cav_share=0.5,
                                 network=network)
        disruptive = dataclasses.replace(selfish, strategy="Disruptive")
        with pytest.raises(engine.RunFailure) as failure:
            engine.run_state([selfish, disruptive])
        assert str(failure.value) == "fleet objective is -inf on day 8"
        assert failure.value.config == disruptive
        # A pool worker's failure reaches its parent pickled.
        copied = pickle.loads(pickle.dumps(failure.value))
        assert type(copied) is engine.RunFailure
        assert (str(copied), copied.config) == (str(failure.value), disruptive)

    def test_equal_fleets_at_other_survivor_counts_keep_their_own_memos(self, monkeypatch):
        # Four 100-vehicle Selfish fleets among 150, 400, 900 and 1900 survivors: the
        # decision depends on the survivor count, so no two of them share a memo.
        configs = [ScenarioConfig(congestion=congestion, cav_share=share, phase_lengths=(2, 2, 30, 0), seed=4)
                   for congestion, share in ((0.25, 0.4), (0.5, 0.2), (1.0, 0.1), (2.0, 0.05))]
        assert {c.fleet_size for c in configs} == {100}
        asked = []
        real = engine.fleet_optimize

        def counting(weights, q_hdv_a, q_hdv_b, *args):
            asked.append((q_hdv_a + q_hdv_b, q_hdv_a))
            return real(weights, q_hdv_a, q_hdv_b, *args)

        monkeypatch.setattr(engine, "fleet_optimize", counting)
        memos = []

        def hand_over(state, real=SimulationState._hand_over):
            real(state)
            memos.extend(state.memos)

        monkeypatch.setattr(SimulationState, "_hand_over", hand_over)
        logs = list(run_branches(configs))
        assert len({id(memo) for memo in memos}) == 4
        together, asked[:] = sorted(asked), []
        alone = [run_scenario(config) for config in configs]
        assert together == sorted(asked)
        for log, solo in zip(logs, alone, strict=True):
            assert columns(log) == columns(solo)


# The paper's congestion grid, shortened: six populations, each with five fleets.
CONGESTION_GRID = [
    ScenarioConfig(congestion=congestion, cav_share=share, phase_lengths=(5, 5, 5, 5), seed=1)
    for congestion in (0.25, 0.5, 1.0, 1.5, 2.0, 2.6) for share in (0.05, 0.1, 0.2, 0.4, 0.8)
]


class TestStateMemos:
    """A state evaluates the BPR curve once, at set-up: the fleet and every day read that one table."""

    def test_the_table_is_built_once_per_state_at_set_up(self, monkeypatch):
        built = []
        real = engine.network_travel_times

        def counting(network, q_a, q_b):
            built.append(len(q_a))
            return real(network, q_a, q_b)

        monkeypatch.setattr(engine, "network_travel_times", counting)
        state = SimulationState(*CONGESTION_GRID)
        curves = state.curves
        assert built == [2601]  # flows 0..2600, the largest population, before any day
        while state.day <= state.total_days:
            step_day(state)
        assert built == [2601] and state.curves is curves
        # Without a fleet the days read a table too, built the same way.
        engine.run_state([dataclasses.replace(config, cav_share=0.0) for config in CONGESTION_GRID[::5]])
        assert built == [2601, 2601]

    def test_every_logged_time_is_the_table_entry_at_its_flows(self):
        state = SimulationState(*CONGESTION_GRID)
        assert state.curves.tobytes() == np.array(bpr_table(CONGESTION_GRID[0].network, 2600)).tobytes()
        while state.day <= state.total_days:
            step_day(state)
        flows = state.flows[..., :2] + state.flows[..., 2:]  # (days, configs, 2): each route's flow
        for route, curve in enumerate(state.curves):
            assert state.times[..., route].tobytes() == curve[flows[..., route]].tobytes()

    def test_the_fleet_decides_on_the_times_its_day_logs(self, monkeypatch):
        # At 2,268 vehicles on A and 1,879 on B, libm's pow and numpy's square differ by 1 ULP on both routes.
        config = ScenarioConfig(base_population=4147, cav_share=0.1, phase_lengths=(0, 0, 1, 0))
        survivors, weights = config.survivor_count, STRATEGY_TABLE[config.strategy]
        curves = bpr_table(config.network, config.total_population)
        q_hdv_a = 2120  # the human count on A at which the fleet's split makes 2,268 on A
        assert fleet_optimize(weights, q_hdv_a, survivors - q_hdv_a, config.fleet_size, curves).cav_on_a == 148
        state = SimulationState(config)
        state._hand_over()  # as step_day would on day 1 = m_day + 1
        # Day 1 explores: the drivers with a route coin below 0.5 take A, here the first q_hdv_a.
        coins = np.zeros((survivors, 2))
        coins[q_hdv_a:, 1] = 0.75
        ((_, cut),) = state.draw_into
        state.draw_into = [(SimpleNamespace(random=lambda out: np.copyto(out, coins)), cut)]
        read = []
        real = engine.fleet_optimize

        def reading(weights, q_hdv_a, q_hdv_b, q_cav, curves):
            decision = real(weights, q_hdv_a, q_hdv_b, q_cav, curves)
            read.append((curves[0][q_hdv_a + decision.cav_on_a], curves[1][q_hdv_b + decision.cav_on_b]))
            return decision

        monkeypatch.setattr(engine, "fleet_optimize", reading)
        step_day(state)
        q = state.flows[0, 0].tolist()
        assert q == [q_hdv_a, survivors - q_hdv_a, 148, config.fleet_size - 148]
        assert (q[0] + q[2], q[1] + q[3]) == (2268, 1879)
        assert read == [tuple(state.times[0, 0].tolist())]


# The parent's kernels, np.where selects on float64 arrays, recompute each day.
# Every day of each group is checked: day 1 explores, m_day + 1 hands over, and
# the shared-generator group has fewer generators than rows after it.
KERNEL_GROUPS = {
    "R=1": [ScenarioConfig(base_population=20000, cav_share=0.1, seed=3, phase_lengths=(2, 1, 2, 0))],
    "R=3": [
        ScenarioConfig(base_population=20000, cav_share=0.1, strategy=strategy, seed=seed, phase_lengths=(2, 1, 2, 0))
        for seed, strategy in ((3, "Selfish"), (4, "Social"), (5, "Malicious"))
    ],
    "shared generators": [
        ScenarioConfig(base_population=20000, cav_share=0.1, strategy=strategy, seed=seed, phase_lengths=(2, 1, 2, 0))
        for seed, strategy in ((3, "Selfish"), (3, "Social"), (4, "Selfish"))
    ],
    # Two populations, two blocks before the hand-over; the same survivor count after it.
    "ragged": [
        ScenarioConfig(base_population=20000, congestion=congestion, cav_share=share, seed=seed, phase_lengths=(2, 1, 2, 0))
        for congestion, share, seed in ((1.0, 0.1, 3), (1.25, 0.28, 3), (1.0, 0.1, 4))
    ],
}

# Bit patterns a float select must carry unchanged: NaN payloads (quiet and
# signalling, either sign), +-0.0, +-inf, subnormals and the largest finite double.
SPECIAL_BITS = [
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF800000000BEEF, 0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF,
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001, 0x7FEFFFFFFFFFFFFF,
]
float_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def assert_day_equals_np_where_kernels(state):
    """Step ``state`` one day and recompute the day with the np.where kernels, byte for byte."""
    if state.day == state.m_day + 1 and state.memos is None:
        state._hand_over()  # as step_day would, so the snapshot is the day's start
    (taste_a, taste_b), (est_a, est_b) = state.tastes.copy(), state.estimates.copy()
    generators = copy.deepcopy(state.rngs)
    rate = state.explore_rate if state.day > 1 else 1.0
    step_day(state)
    day = state.day - 2

    # Each generator's draws, which every row of its (seed, population, length) takes.
    draws = {key: rng.random((key[2], 2)) for key, rng in generators.items()}
    explore, on_b = [], []
    for (seed, _, population, *_), cut in zip(state.rows, state.spans):
        coins = draws[seed, population, cut.stop - cut.start]
        explore.append(coins[:, 0] < rate)
        on_b.append(coins[:, 1] >= 0.5)
    explore, on_b = np.concatenate(explore), np.concatenate(on_b)
    on_b = np.where(explore, on_b, (taste_a - est_a) < (taste_b - est_b))
    assert np.array_equal(state.last_route, on_b)
    # Every row is some config's, and each config logs its row's counts and times.
    rows = state.row_of.tolist()
    assert sorted(set(rows)) == list(range(len(state.spans)))
    flows = {row: state.flows[day, i].tolist() for i, row in enumerate(rows)}
    assert state.flows[day].tolist() == [flows[row] for row in rows]
    times = []
    for row, cut in enumerate(state.spans):
        q_hdv_a, q_hdv_b, q_cav_a, q_cav_b = flows[row]
        on_route_b = int(np.count_nonzero(on_b[cut]))
        assert (q_hdv_a, q_hdv_b) == (cut.stop - cut.start - on_route_b, on_route_b)
        times.append((state.curves[0][q_hdv_a + q_cav_a], state.curves[1][q_hdv_b + q_cav_b]))
    assert state.times[day].tolist() == [list(times[row]) for row in rows]
    # Each row's times, repeated for each of its drivers.
    times = np.repeat(np.array(times).T, [cut.stop - cut.start for cut in state.spans], axis=1)
    alpha = state.learning_rate
    step = alpha * times
    est_a = np.where(on_b, est_a, (1 - alpha) * est_a + step[0])
    est_b = np.where(on_b, (1 - alpha) * est_b + step[1], est_b)
    assert state.estimates[0].tobytes() == est_a.tobytes()
    assert state.estimates[1].tobytes() == est_b.tobytes()
    perceived = np.where(on_b, times[1] + taste_b, times[0] + taste_a)
    # Each config's mean over its row's first survivor-count drivers.
    for i, (config, row) in enumerate(zip(state.configs, rows)):
        block = next(block for block in state.blocks if block.first <= row < block.first + block.rows)
        count = config.survivor_count
        sums = np.add.reduce(perceived[block.start:block.stop].reshape(block.rows, block.n)[:, :count], axis=1)
        expected = np.float64(sums.tolist()[row - block.first] / count)
        assert np.float64(state.perceived[day, i]).tobytes() == expected.tobytes()


class TestBranchFreeKernels:
    """The bit-pattern selects give the np.where kernels' bytes, and the select itself is np.where."""

    @pytest.mark.parametrize("group", KERNEL_GROUPS)
    def test_every_day_equals_the_np_where_kernels(self, group):
        state = SimulationState(*KERNEL_GROUPS[group])
        assert min(block.n for block in state.blocks) >= 2 * 10**4
        assert len(state.blocks) == (2 if group == "ragged" else 1)
        while state.day <= state.total_days:
            assert_day_equals_np_where_kernels(state)
        assert len(state.fleets) == (1 if group == "R=1" else 3)
        assert len(state.rngs) == (2 if group == "shared generators" else len(state.fleets))
        # The ragged group's two populations keep 18,000 survivors each: one block.
        assert len(state.blocks) == 1

    @settings(deadline=None, derandomize=True, database=None)
    @given(triples=st.lists(st.tuples(float_bits, float_bits, st.booleans()), min_size=1, max_size=64))
    @example(triples=[(x, y, m) for x in SPECIAL_BITS for y in SPECIAL_BITS[:2] for m in (False, True)])
    def test_select_is_np_where_on_any_bits(self, triples):
        x, y, mask = (np.array(column, dtype=np.uint64) for column in zip(*triples))
        x, y, mask = x.view(np.int64), y.view(np.int64), mask.astype(bool)
        expected = np.where(mask, x.view(np.float64), y.view(np.float64))
        engine._select(mask, x, y)
        assert y.tobytes() == expected.tobytes()


class TestDayScratch:
    """A day allocates no N-sized float array, and no group shares its arrays with another."""

    @pytest.mark.parametrize("population,seeds_and_strategies", [
        pytest.param(50000, [(1, "Selfish")], id="seeds_and_strategies0"),  # one row in two pieces
        # Three rows, two generators; then four rows in ranges of two whole rows each.
        pytest.param(50000, [(1, "Selfish"), (1, "Social"), (2, "Selfish")], id="seeds_and_strategies1"),
        pytest.param(12000, [(1, "Selfish"), (1, "Social"), (2, "Selfish"), (2, "Social")], id="tiles_of_rows"),
    ])
    def test_a_day_traces_under_four_bool_arrays_and_a_cast_buffer(self, population, seeds_and_strategies):
        # A fleet of 0.1 %: its curve arrays are small, as the bound leaves them no room.
        configs = [
            ScenarioConfig(base_population=population, cav_share=0.001, strategy=strategy, seed=seed,
                           phase_lengths=(1, 1, 2, 0))
            for seed, strategy in seeds_and_strategies
        ]
        state = SimulationState(*configs)
        for _ in range(state.m_day + 1):
            step_day(state)
        # Wider than the cap, so the day steps in ranges; rows of a seed share its generator.
        assert state.width > engine.MAX_DRIVER_ROWS and len(state.ranges) > 1
        assert len(state.rngs) == len({seed for seed, _ in seeds_and_strategies})
        # The day's bool arrays: the (3, width) routes taken and explorers, one byte
        # each per driver-row; rows that share a generator copy its float draws in
        # place and allocate nothing.  Then numpy's cast buffer (getbufsize() int64
        # elements) feeding the selects.  Python objects, a few kB, fit in the fourth
        # byte.  A float64 temporary, 8 bytes per driver-row, breaks the bound.
        bound = 4 * state.width + np.getbufsize() * 8
        assert bound < 8 * state.width
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            step_day(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < bound

    def test_groups_share_no_memory_with_their_prefix(self):
        fleets = [("Social", 0.5), ("Selfish", 0.25)]
        configs = [dataclasses.replace(c, seed=seed) for seed in (1, 2) for c in _group((2, 2, 3, 3), fleets, 40)]
        names = ("tastes", "estimates", "last_route", "draws")
        prefix = SimulationState(*configs)
        for _ in range(prefix.m_day):
            step_day(prefix)
        before = {name: getattr(prefix, name).copy() for name in names}
        group = copy.copy(prefix)
        group._hand_over()
        for a, b in itertools.product(names, repeat=2):
            assert not np.shares_memory(getattr(group, a), getattr(prefix, b))
        while group.day <= group.total_days:
            step_day(group)
        for i, config in enumerate(configs):
            assert columns(state_log(group, i)) == stepped_log(config)
        for name in names:  # bytes: the draw buffer ends a day holding bit patterns, not floats
            assert getattr(prefix, name).tobytes() == before[name].tobytes()

    # Before, at and after the hand-over on day 4; in one range, and wider than the cap: in
    # ranges of row pieces, then of whole rows.
    @pytest.mark.parametrize("days,population", [
        *(pytest.param(days, 40, id=f"{days}") for days in (1, 3, 4)),
        *(pytest.param(days, 40000, id=f"wide-{days}") for days in (1, 3, 4)),
    ])
    def test_a_deep_copy_steps_as_its_original(self, days, population):
        configs = [dataclasses.replace(c, seed=seed) for seed in (1, 2)
                   for c in _group((2, 1, 3, 0), [("Social", 0.5), ("Selfish", 0.5)], population)]
        state = SimulationState(*configs)
        for _ in range(days):
            step_day(state)
        # After the hand-over the Social and Selfish runs of a seed share its generator.
        assert len(state.rngs) == 2 and (len(state.ranges) > 1) == (population > engine.MAX_DRIVER_ROWS)
        twin = copy.deepcopy(state)
        assert twin.ranges == state.ranges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while state.day <= state.total_days:
                step_day(state)
                step_day(twin)
        for name in ("flows", "times", "perceived"):
            assert getattr(twin, name).tobytes() == getattr(state, name).tobytes()
        assert not np.shares_memory(twin.draws, state.draws)


def assert_ranges_tile_the_axis(state):
    """``state.ranges`` cover its flat axis end to end in ranges of at most the cap, made of tiles of its rows.

    A tile is whole consecutive rows of a block, at most ``MAX_DRIVER_ROWS // n`` of
    them, or, in a block of rows longer than the cap, one of a row's
    ``ceil(n / MAX_DRIVER_ROWS)`` pieces, which differ in length by at most one.
    """
    cap = engine.MAX_DRIVER_ROWS
    ends = [0] + [b for _, b, _ in state.ranges]
    assert [a for a, _, _ in state.ranges] == ends[:-1] and ends[-1] == state.width
    pieces: dict[int, list[int]] = {}
    for a, b, tiles in state.ranges:
        assert 0 < b - a <= cap and tiles
        assert [tile[2] for tile in tiles] == [a] + [tile[3] for tile in tiles[:-1]] and tiles[-1][3] == b
        for first, rows, start, stop, n in tiles:
            block = next(block for block in state.blocks if block.first <= first < block.first + block.rows)
            assert first + rows <= block.first + block.rows and stop - start == rows * n
            row_start = block.start + (first - block.first) * block.n
            if block.n > cap:
                assert rows == 1
                pieces.setdefault(first, []).append(n)
                assert row_start <= start and stop <= row_start + block.n
            else:
                assert n == block.n and 1 <= rows <= cap // n and start == row_start
    for row, lengths in pieces.items():
        n = state.spans[row].stop - state.spans[row].start
        assert len(lengths) == -(-n // cap) and sum(lengths) == n and max(lengths) - min(lengths) <= 1


class TestDayRanges:
    """A day steps a state wider than ``MAX_DRIVER_ROWS`` in ranges: a change of time, never of bits."""

    # Rows of 3, 40 and 300 drivers; Social and Selfish at 0.5 keep equal survivor counts, so
    # their rows share a generator; share 1.0 leaves a row of no drivers.
    CONFIGS = [
        ScenarioConfig(base_population=population, cav_share=share, strategy=strategy, seed=seed,
                       explore_rate=explore, phase_lengths=(3, 2, 3, 2))
        for explore in (0.1, 0.3)
        for population in (3, 40, 300)
        for seed in (1, 2)
        for strategy, share in (("Selfish", 0.0), ("Social", 0.5), ("Selfish", 0.5), ("Malicious", 1.0))
    ]

    def test_the_range_size_changes_no_bit(self, monkeypatch):
        groups = list(engine.group_by(self.CONFIGS, prefix_key).values())
        assert len(groups) == 2
        runs = {}
        for cap in (2**40, 1, 7, 250, 2**15):
            monkeypatch.setattr(engine, "MAX_DRIVER_ROWS", cap)
            runs[cap] = [tuple(column.view(np.int64).tolist() for column in (log.flows, log.times, log.perceived))
                         for group in groups for log in engine.run_state(group)]
        (reference, *others) = runs.values()
        assert all(logs == reference for logs in others)

    @pytest.mark.parametrize("cap", [1, 7, 250, 2**15])
    def test_ranges_cover_the_axis_in_tiles_of_rows(self, monkeypatch, cap):
        monkeypatch.setattr(engine, "MAX_DRIVER_ROWS", cap)
        state = SimulationState(*self.CONFIGS[:24])
        for handed_over in (False, True):
            if handed_over:
                state._hand_over()
            assert_ranges_tile_the_axis(state)
            assert (len(state.ranges) == 1) == (state.width <= cap)
        assert any(block.n == 0 for block in state.blocks)

    def test_a_state_no_wider_than_the_cap_has_one_range_of_its_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_DRIVER_ROWS", 1000)
        for configs in engine.plan(self.CONFIGS):
            state = SimulationState(*configs)
            for handed_over in (False, True):
                if handed_over:
                    state._hand_over()
                assert state.width <= engine.MAX_DRIVER_ROWS
                assert state.ranges == ((0, state.width, tuple(block[:5] for block in state.blocks if block.n)),)

    def test_a_row_longer_than_the_cap_is_cut_into_equal_pieces(self):
        state = SimulationState(ScenarioConfig(base_population=100_000, cav_share=0.1))
        assert [tiles for _, _, tiles in state.ranges] == [((0, 1, a, a + 25000, 25000),) for a in range(0, 10**5, 25000)]
        state._hand_over()
        assert [tiles for _, _, tiles in state.ranges] == [((0, 1, a, a + 30000, 30000),) for a in range(0, 90000, 30000)]


def _buffer_sizes_seen(monkeypatch):
    """``np.getbufsize()`` at each ``step_day`` call of the test."""
    seen = []

    def stepping(state, real=engine.step_day):
        seen.append(np.getbufsize())
        real(state)

    monkeypatch.setattr(engine, "step_day", stepping)
    return seen


class TestUfuncBuffer:
    """``run_state`` steps with numpy's buffer at ``DAY_BUFSIZE``: a change of time, never of bits."""

    # The Disruptive fleet's -9 weight overflows its objective on day 8.
    OVERFLOWING = ScenarioConfig(
        base_population=100, phase_lengths=(3, 3, 3, 3), seed=1, cav_share=0.5, strategy="Disruptive",
        network=TwoRouteNetwork(RouteParams(3.1910642561087888e+305, 500.0, 2.0),
                                RouteParams(9.573192768326367e+305, 800.0, 2.0)),
    )

    @pytest.mark.parametrize("fails", [False, True])
    def test_run_state_restores_numpy_settings(self, monkeypatch, fails):
        seen = _buffer_sizes_seen(monkeypatch)
        config = self.OVERFLOWING if fails else dataclasses.replace(self.OVERFLOWING, strategy="Selfish")
        caller = np.setbufsize(4096)
        try:
            with np.errstate(divide="raise", over="warn", under="ignore", invalid="print"):
                errors = np.geterr()
                if fails:
                    with pytest.raises(engine.RunFailure, match=r"^fleet objective is -inf on day \d+$"):
                        engine.run_state([config])
                else:
                    engine.run_state([config])
                assert np.geterr() == errors
                assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)
        assert seen and set(seen) == {engine.DAY_BUFSIZE}

    def test_the_buffer_size_changes_no_bit(self, monkeypatch):
        # Rows of 1 to 6 drivers lie below half of a 16-element buffer and rows of
        # 5,000 above half of the default 8,192; the rest lie in between.
        configs = [ScenarioConfig(congestion=congestion, cav_share=share, seed=seed, phase_lengths=(10, 10, 10, 10))
                   for congestion in (0.006, 0.25, 1.0, 5.0) for share in (0.0, 0.2, 0.8) for seed in (1, 2)]
        assert min(c.survivor_count for c in configs) == 1 and max(c.total_population for c in configs) == 5000
        seen = _buffer_sizes_seen(monkeypatch)
        runs = {}
        for size in (engine.DAY_BUFSIZE, 8192, 16):
            monkeypatch.setattr(engine, "DAY_BUFSIZE", size)
            runs[size] = [tuple(column.view(np.int64).tolist() for column in (log.flows, log.times, log.perceived))
                          for log in engine.run_state(configs)]
            assert set(seen) == {size}
            seen.clear()
        (reference, *others) = runs.values()
        assert all(logs == reference for logs in others)
