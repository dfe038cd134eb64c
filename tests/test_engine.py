import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottlesim import (
    STRATEGY_NAMES,
    STRATEGY_TABLE,
    HumanParams,
    ScenarioConfig,
    SimulationState,
    fleet_optimize,
    network_travel_times,
    run_branches,
    run_scenario,
    step_day,
)
from bottlesim.engine import prefix_key
from scalar_model import (
    ROUTE_A,
    ROUTE_B,
    EstimateVector,
    HumanAgent,
    TasteProfile,
    agent_snapshot,
    choose_route,
    sample_taste,
    update_estimate,
)


def small_config(**kwargs):
    defaults = dict(base_population=40, phase_lengths=(3, 3, 3, 3), seed=7)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


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
        ],
    )
    def test_named_field_rejections(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**kwargs)

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
        assert state.total_population == 1000 and state.day == 1
        agent = agent_snapshot(state, 0)
        assert (agent.estimates.t_a_hat, agent.estimates.t_b_hat) == (5.0, 15.0)
        assert agent.last_route is None
        assert state.fleet_size == 0

    def test_tastes_drawn_in_index_order_route_a_first(self):
        config = small_config(seed=99)
        state = SimulationState(config)
        rng = np.random.default_rng(99)
        beta = config.human_params.taste_spread
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
        record = step_day(state)
        assert record.q_hdv_a == 518  # binomial(1000, 0.5) at this seed and generator
        assert record.q_cav_a == record.q_cav_b == 0
        assert record.mean_cav_time is None
        assert record.t_a == pytest.approx(5.0 * (1.0 + (518 / 500.0) ** 2))

    def test_day_two_matches_pinned_realization(self):
        state = SimulationState(ScenarioConfig(seed=1))
        step_day(state)
        assert step_day(state).q_hdv_a == 850

    def test_greedy_limit_all_choose_faster_route(self):
        # frozen free-flow estimates plus negligible tastes: everyone picks A
        config = ScenarioConfig(
            base_population=200,
            phase_lengths=(2, 0, 0, 0),
            human_params=HumanParams(learning_rate=0.0, explore_rate=0.0, taste_spread=1e-9),
            seed=3,
        )
        log = run_scenario(config)
        assert log.records[1].q_hdv_a == 200

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
            record = step_day(state)
        assert record.day == config.m_day + 1
        assert record.q_hdv_a + record.q_hdv_b == 40
        assert record.q_cav_a == record.q_cav_b == 0
        assert record.mean_cav_time is None

    def test_highest_indices_removed_survivors_untouched(self):
        # The scalar oracle steps the survivors across the hand-over on their own.
        config = ScenarioConfig(cav_share=0.1, seed=5, phase_lengths=(1, 2, 1, 0))
        state, _ = assert_engine_replays_oracle(config)
        handover = state.records[config.m_day]
        assert handover.q_hdv_a + handover.q_hdv_b == 900
        assert handover.q_cav_a + handover.q_cav_b == 100
        # The replaced drivers stop choosing and learning.
        before = SimulationState(config)
        for _ in range(config.m_day):
            step_day(before)
        for i in range(900, 1000):
            assert agent_snapshot(state, i) == agent_snapshot(before, i)

    def test_full_share_leaves_no_humans(self):
        config = ScenarioConfig(
            base_population=50, cav_share=1.0, strategy="Social", phase_lengths=(2, 2, 2, 2), seed=11
        )
        log = run_scenario(config)
        for record in log.records[4:]:
            assert record.q_hdv_a == record.q_hdv_b == 0
            assert record.mean_hdv_time is None
            assert record.mean_cav_time is not None
        # the survivor set is empty from the start, so perceived means never exist
        assert all(record.mean_perceived_hdv_time is None for record in log.records)


class TestRunScenario:
    def test_share_zero_never_creates_a_fleet(self):
        log = run_scenario(small_config(cav_share=0.0))
        assert len(log.records) == 12
        assert all(r.q_cav_a + r.q_cav_b == 0 for r in log.records)

    def test_phase_integrity_and_conservation(self):
        config = small_config(cav_share=0.3, strategy="Social")
        log = run_scenario(config)
        m_day = config.m_day
        for record in log.records:
            total = record.q_hdv_a + record.q_hdv_b + record.q_cav_a + record.q_cav_b
            assert total == config.total_population
            fleet = record.q_cav_a + record.q_cav_b
            assert fleet == (0 if record.day <= m_day else config.fleet_size)

    def test_identical_configs_identical_logs(self):
        config = small_config(cav_share=0.2, strategy="Malicious", seed=123)
        assert run_scenario(config) == run_scenario(config)

    def test_records_are_consecutive_days_from_one(self):
        log = run_scenario(small_config())
        assert [r.day for r in log.records] == list(range(1, 13))

    def test_survivor_perceived_mean_ignores_future_fleet_members(self):
        # four drivers, two become fleet: perceived means use ids 0 and 1 only
        config = ScenarioConfig(base_population=4, cav_share=0.5, phase_lengths=(1, 0, 0, 0), seed=2)
        state = SimulationState(config)
        record = step_day(state)
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
    params = config.human_params
    rng = np.random.default_rng(config.seed)
    tastes = []
    for _ in range(total):
        eps_a = sample_taste(rng.random(), params.taste_spread)
        eps_b = sample_taste(rng.random(), params.taste_spread)
        tastes.append((eps_a, eps_b))
    estimates = {
        i: (config.network.route_a.free_flow_time, config.network.route_b.free_flow_time)
        for i in range(total)
    }

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
                routes[i] = choose_route(agent, explore_draw, route_draw, params)
        q_hdv_a = sum(1 for r in routes.values() if r == ROUTE_A)
        q_hdv_b = n_hdv - q_hdv_a
        if fleet_on:
            decision = fleet_optimize(
                STRATEGY_TABLE[config.strategy], q_hdv_a, q_hdv_b,
                config.fleet_size, config.network,
            )
            q_cav_a, q_cav_b = decision.cav_on_a, decision.cav_on_b
        else:
            q_cav_a = q_cav_b = 0
        t_a, t_b = network_travel_times(config.network, q_hdv_a + q_cav_a, q_hdv_b + q_cav_b)
        for i in range(n_hdv):
            experienced = t_a if routes[i] == ROUTE_A else t_b
            updated = update_estimate(
                EstimateVector(*estimates[i]), routes[i], experienced, params.learning_rate
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
    for expected in days:
        record = step_day(state)
        assert (record.q_hdv_a, record.q_hdv_b, record.q_cav_a, record.q_cav_b) == expected.counts
        assert (record.t_a, record.t_b) == expected.times
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
        human_params=HumanParams(
            learning_rate=draw(_unit_interval()),
            explore_rate=draw(_unit_interval()),
            taste_spread=draw(st.sampled_from([1e-9, 0.5, 5.0, 50.0])),
        ),
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
        assert log.records == state.records

        survivors = config.survivor_count
        for record, expected in zip(log.records, oracle, strict=True):
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
    """The config's records from a plain day loop on one state: the reference for run_branches."""
    state = SimulationState(config)
    for _ in range(config.total_days):
        step_day(state)
    return state.records


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
            # repr is exact for floats, so this compares every value bit for bit.
            assert repr(log.records) == repr(stepped_log(config))

    def test_run_scenario_is_the_one_branch_case(self):
        config = small_config(cav_share=0.3, strategy="Disruptive")
        assert repr(run_scenario(config).records) == repr(stepped_log(config))

    def test_branch_logs_share_no_state(self):
        configs = _group((2, 2, 2, 2), [("Social", 0.5), ("Selfish", 0.5)])
        first, second = run_branches(configs)
        assert first.records[:4] == second.records[:4]
        assert first.records is not second.records
        first.records.clear()
        assert len(second.records) == 8

    def test_rejects_configs_that_differ_before_the_hand_over(self):
        configs = [small_config(cav_share=0.1), small_config(cav_share=0.1, seed=8)]
        with pytest.raises(ValueError, match="strategy and cav_share"):
            list(run_branches(configs))

    def test_no_configs_no_logs(self):
        assert list(run_branches([])) == []

    def test_prefix_key_ignores_only_the_fleet_knobs(self):
        config = small_config(cav_share=0.4, strategy="Malicious")
        assert prefix_key(config) == prefix_key(small_config())
        assert prefix_key(config) != prefix_key(small_config(congestion=2.0))
        assert prefix_key(config) != prefix_key(small_config(phase_lengths=(3, 3, 3, 4)))

    def test_fork_owns_its_mutable_state(self):
        state = SimulationState(small_config())
        step_day(state)
        branch = state.fork(small_config(cav_share=0.5, strategy="Social"))
        for name in ("est_a", "est_b", "last_route"):
            assert not np.shares_memory(getattr(branch, name), getattr(state, name))
            assert np.array_equal(getattr(branch, name), getattr(state, name))
        assert branch.rng is not state.rng
        assert branch.rng.random() == state.rng.random()
        assert branch.records == state.records and branch.records is not state.records
        assert (branch.fleet_size, branch.survivor_count) == (20, 20)
        assert (state.fleet_size, state.survivor_count) == (0, 40)

    def test_fork_after_the_hand_over_rejected(self):
        config = small_config(cav_share=0.5)
        state = SimulationState(config)
        for _ in range(config.m_day):
            step_day(state)
        state.fork(small_config())  # the hand-over is still ahead
        step_day(state)
        with pytest.raises(RuntimeError, match="hand-over"):
            state.fork(small_config())
