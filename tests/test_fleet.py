from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bottlesim import (
    STRATEGY_TABLE,
    FleetDecision,
    RouteParams,
    TwoRouteNetwork,
    fleet_optimize,
    system_optimum,
)
from bottlesim.network import _bpr
from scalar_model import bpr_table

NET = TwoRouteNetwork.default()
README = Path(__file__).resolve().parents[1] / "README.md"


def optimize(weights, q_hdv_a, q_hdv_b, q_cav, network=NET):
    """``fleet_optimize`` on the network's BPR table up to the population q_hdv_a + q_hdv_b + q_cav."""
    return fleet_optimize(weights, q_hdv_a, q_hdv_b, q_cav, bpr_table(network, q_hdv_a + q_hdv_b + q_cav))


def reference_objective(lam_cav, lam_hdv, q_hdv_a, q_hdv_b, q_cav_a, q_cav, network):
    """Independent objective evaluation, written from the delay formula."""
    q_cav_b = q_cav - q_cav_a
    q_a = q_hdv_a + q_cav_a
    q_b = q_hdv_b + q_cav_b
    ra, rb = network.route_a, network.route_b
    t_a = ra.free_flow_time * (1 + (q_a / ra.capacity) ** ra.exponent)
    t_b = rb.free_flow_time * (1 + (q_b / rb.capacity) ** rb.exponent)
    return (
        lam_cav * (q_cav_a * t_a + q_cav_b * t_b)
        + lam_hdv * (q_hdv_a * t_a + q_hdv_b * t_b)
    )


def reference_best_split(lam_cav, lam_hdv, q_hdv_a, q_hdv_b, q_cav, network):
    """Plain-loop exhaustive minimizer with smallest-split tie-breaking."""
    best_x = 0
    best_phi = None
    for x in range(q_cav + 1):
        phi = reference_objective(lam_cav, lam_hdv, q_hdv_a, q_hdv_b, x, q_cav, network)
        if best_phi is None or phi < best_phi:
            best_phi = phi
            best_x = x
    return best_x, best_phi


def per_call_split(weights, q_hdv_a, q_hdv_b, q_cav, network):
    """(split, objective value) as each call evaluated them before BPR tables: ``_bpr`` on the call's own flows."""
    lambda_cav, lambda_hdv = weights
    x = np.arange(q_cav + 1, dtype=np.float64)
    t_a = _bpr(network.route_a, q_hdv_a + x)
    t_b = _bpr(network.route_b, q_hdv_b + (q_cav - x))
    t_cav = x * t_a + (q_cav - x) * t_b
    t_hdv = q_hdv_a * t_a + q_hdv_b * t_b
    phi = lambda_cav * t_cav + lambda_hdv * t_hdv
    best = int(np.argmin(phi))
    return best, float(phi[best])


# Integer, half-integer and any other exponents.  The overflowing routes reach inf at
# 2 to 56,000 vehicles, so a weight of 0 meets an infinite term: 0.0 * inf is NaN on both sides.
routes = st.builds(
    RouteParams,
    free_flow_time=st.floats(0.1, 100.0),
    capacity=st.floats(1.0, 5000.0),
    exponent=st.one_of(st.sampled_from([2.0, 2.5, 4.0]), st.floats(1.01, 6.0)),
)
overflowing_routes = st.builds(
    RouteParams, free_flow_time=st.floats(0.1, 100.0), capacity=st.floats(1.0, 500.0), exponent=st.floats(150.0, 2000.0),
)
# Small counts, and counts whose curves pass 32,768 flows: above 256 kB numpy computes
# the curve's ** into a reused temporary.
counts = st.one_of(st.integers(0, 200), st.integers(30000, 60000))
LONG = TwoRouteNetwork(RouteParams(5.0, 500.0, 2.5), RouteParams(15.0, 800.0, 4.0))
ODD = TwoRouteNetwork(RouteParams(5.0, 20000.0, 3.7), RouteParams(15.0, 30000.0, 1.3))
OVERFLOWING = TwoRouteNetwork(RouteParams(5.0, 500.0, 2000.0), NET.route_b)


class TestRouteCurves:
    """Slices of a state's BPR table give each decision the bits of the per-call evaluation."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        route_a=st.one_of(routes, overflowing_routes),
        route_b=st.one_of(routes, overflowing_routes),
        weights=st.sampled_from(list(STRATEGY_TABLE.values())),
        q_hdv_a=counts, q_hdv_b=counts, q_cav=counts,
        beyond=st.integers(0, 2000),
    )
    @example(route_a=LONG.route_a, route_b=LONG.route_b, weights=STRATEGY_TABLE["Social"],
             q_hdv_a=0, q_hdv_b=0, q_cav=100000, beyond=0)
    @example(route_a=ODD.route_a, route_b=ODD.route_b, weights=STRATEGY_TABLE["Disruptive"],
             q_hdv_a=40000, q_hdv_b=20000, q_cav=40000, beyond=7)
    @example(route_a=OVERFLOWING.route_a, route_b=OVERFLOWING.route_b, weights=STRATEGY_TABLE["Selfish"],
             q_hdv_a=700, q_hdv_b=0, q_cav=50, beyond=0)
    def test_slices_equal_the_per_call_evaluation_bit_for_bit(
        self, route_a, route_b, weights, q_hdv_a, q_hdv_b, q_cav, beyond,
    ):
        network = TwoRouteNetwork(route_a, route_b)
        with np.errstate(all="ignore"):
            # A state's table reaches its largest population, often beyond this call's.
            curves = bpr_table(network, q_hdv_a + q_hdv_b + q_cav + beyond)
            decision = fleet_optimize(weights, q_hdv_a, q_hdv_b, q_cav, curves)
            split, value = per_call_split(weights, q_hdv_a, q_hdv_b, q_cav, network)
        assert (decision.cav_on_a, decision.cav_on_b) == (split, q_cav - split)
        assert np.float64(decision.objective_value).tobytes() == np.float64(value).tobytes()


class TestStrategyWeights:
    """The weight pair STRATEGY_TABLE holds for each named strategy."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Selfish", (1.0, 0.0)),
            ("Altruistic", (0.0, 1.0)),
            ("Malicious", (0.0, -1.0)),
            ("Disruptive", (1.0, -9.0)),
            ("Social", (1.0, 1.0)),
        ],
    )
    def test_named_pairs(self, name, expected):
        assert STRATEGY_TABLE[name] == expected


class TestStrategyTable:
    def test_readme_table_is_the_strategy_table(self):
        """The README's | Name | w_cav | w_hdv | rows are STRATEGY_TABLE, in its order."""
        documented = []
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if line.startswith("|") and cells[0] in STRATEGY_TABLE:
                documented.append((cells[0], (float(cells[1]), float(cells[2]))))
        assert documented == list(STRATEGY_TABLE.items())


class TestFleetObjective:
    """The objective value that fleet_optimize reports at its chosen split."""

    def test_empty_fleet_selfish_objective_is_zero(self):
        weights = STRATEGY_TABLE["Selfish"]
        assert optimize(weights, 400, 600, 0).objective_value == 0.0

    def test_hand_evaluated_selfish_value(self):
        # all 100 fleet vehicles on A: q_A = 500, t_A = 10, so 100 * 10
        weights = STRATEGY_TABLE["Selfish"]
        decision = optimize(weights, 400, 500, 100)
        assert decision.cav_on_a == 100
        assert decision.objective_value == pytest.approx(1000.0)
        assert decision.objective_value == pytest.approx(
            reference_objective(1.0, 0.0, 400, 500, 100, 100, NET)
        )

    def test_social_equals_total_vehicle_minutes(self):
        weights = STRATEGY_TABLE["Social"]
        rng = np.random.default_rng(17)
        for _ in range(100):
            q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(0, 1500, size=2))
            q_cav = int(rng.integers(0, 300))
            decision = optimize(weights, q_hdv_a, q_hdv_b, q_cav)
            q_a = q_hdv_a + decision.cav_on_a
            q_b = q_hdv_b + decision.cav_on_b
            ra, rb = NET.route_a, NET.route_b
            t_a = ra.free_flow_time * (1 + (q_a / ra.capacity) ** ra.exponent)
            t_b = rb.free_flow_time * (1 + (q_b / rb.capacity) ** rb.exponent)
            total = q_a * t_a + q_b * t_b
            assert decision.objective_value == pytest.approx(total)
            assert decision.objective_value == pytest.approx(
                reference_objective(1.0, 1.0, q_hdv_a, q_hdv_b, decision.cav_on_a, q_cav, NET)
            )


class TestFleetOptimize:
    def test_empty_fleet_single_feasible_point(self):
        weights = STRATEGY_TABLE["Altruistic"]
        decision = optimize(weights, 400, 600, 0)
        assert decision == FleetDecision(
            cav_on_a=0,
            cav_on_b=0,
            objective_value=reference_objective(0.0, 1.0, 400, 600, 0, 0, NET),
        )

    def test_social_empty_roads_matches_system_optimum(self):
        weights = STRATEGY_TABLE["Social"]
        decision = optimize(weights, 0, 0, 1000)
        best_q_a, minimal_mean = system_optimum(NET, 1000)
        assert decision.cav_on_a == best_q_a
        assert 0.57 <= decision.cav_on_a / 1000 <= 0.63
        assert decision.objective_value / 1000 == pytest.approx(minimal_mean)

    def test_selfish_small_fleet_takes_the_fast_route(self):
        # against a stabilized human split the short route stays faster
        weights = STRATEGY_TABLE["Selfish"]
        decision = optimize(weights, 590, 310, 20)
        assert decision.cav_on_a == 20

    def test_global_minimality_on_random_instances(self):
        rng = np.random.default_rng(314)
        networks = [
            NET,
            TwoRouteNetwork(
                route_a=RouteParams(3.0, 120.0, 3.0),
                route_b=RouteParams(9.0, 400.0, 1.5),
            ),
        ]
        names = ("Selfish", "Altruistic", "Malicious", "Disruptive", "Social")
        for _ in range(1000):
            weights = STRATEGY_TABLE[names[int(rng.integers(len(names)))]]
            network = networks[int(rng.integers(len(networks)))]
            q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(0, 1500, size=2))
            q_cav = int(rng.integers(0, 60))
            decision = optimize(weights, q_hdv_a, q_hdv_b, q_cav, network)
            ref_x, ref_phi = reference_best_split(*weights, q_hdv_a, q_hdv_b, q_cav, network)
            assert decision.cav_on_a == ref_x
            assert decision.objective_value == pytest.approx(ref_phi, rel=1e-12)
            assert decision.cav_on_a + decision.cav_on_b == q_cav

    def test_flat_objective_ties_break_to_smallest_split(self):
        decision = optimize((0.0, 0.0), 100, 100, 40)
        assert decision.cav_on_a == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_weight_does_not_hide_an_overflowing_term(self):
        # Route A overflows beyond about 713 vehicles: the Selfish human term is 0 * inf = nan there.
        overflowing = TwoRouteNetwork(route_a=RouteParams(5.0, 500.0, 2000.0), route_b=NET.route_b)
        decision = optimize(STRATEGY_TABLE["Selfish"], 700, 0, 50, overflowing)
        assert np.isnan(decision.objective_value)

    def test_repeated_calls_identical(self):
        weights = STRATEGY_TABLE["Disruptive"]
        first = optimize(weights, 432, 381, 75)
        second = optimize(weights, 432, 381, 75)
        assert first == second

    def test_malicious_maximizes_what_altruistic_minimizes(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(50, 1200, size=2))
            q_cav = int(rng.integers(1, 80))
            hdv_term = [
                reference_objective(0.0, 1.0, q_hdv_a, q_hdv_b, x, q_cav, NET)
                for x in range(q_cav + 1)
            ]
            malicious = optimize(STRATEGY_TABLE["Malicious"], q_hdv_a, q_hdv_b, q_cav)
            altruistic = optimize(STRATEGY_TABLE["Altruistic"], q_hdv_a, q_hdv_b, q_cav)
            assert hdv_term[malicious.cav_on_a] == pytest.approx(max(hdv_term), rel=1e-12)
            assert hdv_term[altruistic.cav_on_a] == pytest.approx(min(hdv_term), rel=1e-12)

    def test_rejects_negative_inputs(self):
        weights = STRATEGY_TABLE["Selfish"]
        curves = bpr_table(NET, 20)
        with pytest.raises(ValueError):
            fleet_optimize(weights, -1, 0, 10, curves)
        with pytest.raises(ValueError):
            fleet_optimize(weights, 0, 0, -1, curves)

    def test_rejects_curves_that_end_before_a_candidate(self):
        weights = STRATEGY_TABLE["Selfish"]
        curves = bpr_table(NET, 20)
        assert fleet_optimize(weights, 10, 10, 10, curves) == optimize(weights, 10, 10, 10)  # flows up to 20
        for q_hdv_a, q_hdv_b in ((11, 0), (0, 11)):
            with pytest.raises(ValueError, match="route curves end before 21 vehicles"):
                fleet_optimize(weights, q_hdv_a, q_hdv_b, 10, curves)
