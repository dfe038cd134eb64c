import numpy as np
import pytest

from bottlesim import (
    FleetDecision,
    RouteParams,
    StrategyWeights,
    TwoRouteNetwork,
    fleet_optimize,
    strategy_weights,
    system_optimum,
)

NET = TwoRouteNetwork.default()


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


class TestStrategyWeights:
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
        weights = strategy_weights(name)
        assert (weights.lambda_cav, weights.lambda_hdv) == expected
        assert weights.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            strategy_weights("Chaotic")

    def test_named_weights_cannot_be_forged(self):
        with pytest.raises(ValueError, match="Selfish"):
            StrategyWeights(lambda_cav=2.0, lambda_hdv=0.0, name="Selfish")


class TestFleetObjective:
    """The objective value that fleet_optimize reports at its chosen split."""

    def test_empty_fleet_selfish_objective_is_zero(self):
        weights = strategy_weights("Selfish")
        assert fleet_optimize(weights, 400, 600, 0, NET).objective_value == 0.0

    def test_hand_evaluated_selfish_value(self):
        # all 100 fleet vehicles on A: q_A = 500, t_A = 10, so 100 * 10
        weights = strategy_weights("Selfish")
        decision = fleet_optimize(weights, 400, 500, 100, NET)
        assert decision.cav_on_a == 100
        assert decision.objective_value == pytest.approx(1000.0)
        assert decision.objective_value == pytest.approx(
            reference_objective(1.0, 0.0, 400, 500, 100, 100, NET)
        )

    def test_social_equals_total_vehicle_minutes(self):
        weights = strategy_weights("Social")
        rng = np.random.default_rng(17)
        for _ in range(100):
            q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(0, 1500, size=2))
            q_cav = int(rng.integers(0, 300))
            decision = fleet_optimize(weights, q_hdv_a, q_hdv_b, q_cav, NET)
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
        weights = strategy_weights("Altruistic")
        decision = fleet_optimize(weights, 400, 600, 0, NET)
        assert decision == FleetDecision(
            cav_on_a=0,
            cav_on_b=0,
            objective_value=reference_objective(0.0, 1.0, 400, 600, 0, 0, NET),
        )

    def test_social_empty_roads_matches_system_optimum(self):
        weights = strategy_weights("Social")
        decision = fleet_optimize(weights, 0, 0, 1000, NET)
        best_q_a, minimal_mean = system_optimum(NET, 1000)
        assert decision.cav_on_a == best_q_a
        assert 0.57 <= decision.cav_on_a / 1000 <= 0.63
        assert decision.objective_value / 1000 == pytest.approx(minimal_mean)

    def test_selfish_small_fleet_takes_the_fast_route(self):
        # against a stabilized human split the short route stays faster
        weights = strategy_weights("Selfish")
        decision = fleet_optimize(weights, 590, 310, 20, NET)
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
            weights = strategy_weights(names[int(rng.integers(len(names)))])
            network = networks[int(rng.integers(len(networks)))]
            q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(0, 1500, size=2))
            q_cav = int(rng.integers(0, 60))
            decision = fleet_optimize(weights, q_hdv_a, q_hdv_b, q_cav, network)
            ref_x, ref_phi = reference_best_split(
                weights.lambda_cav, weights.lambda_hdv, q_hdv_a, q_hdv_b, q_cav, network
            )
            assert decision.cav_on_a == ref_x
            assert decision.objective_value == pytest.approx(ref_phi, rel=1e-12)
            assert decision.cav_on_a + decision.cav_on_b == q_cav

    def test_flat_objective_ties_break_to_smallest_split(self):
        indifferent = StrategyWeights(lambda_cav=0.0, lambda_hdv=0.0, name="Indifferent")
        decision = fleet_optimize(indifferent, 100, 100, 40, NET)
        assert decision.cav_on_a == 0

    def test_repeated_calls_identical(self):
        weights = strategy_weights("Disruptive")
        first = fleet_optimize(weights, 432, 381, 75, NET)
        second = fleet_optimize(weights, 432, 381, 75, NET)
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
            malicious = fleet_optimize(strategy_weights("Malicious"), q_hdv_a, q_hdv_b, q_cav, NET)
            altruistic = fleet_optimize(strategy_weights("Altruistic"), q_hdv_a, q_hdv_b, q_cav, NET)
            assert hdv_term[malicious.cav_on_a] == pytest.approx(max(hdv_term), rel=1e-12)
            assert hdv_term[altruistic.cav_on_a] == pytest.approx(min(hdv_term), rel=1e-12)

    def test_rejects_negative_inputs(self):
        weights = strategy_weights("Selfish")
        with pytest.raises(ValueError):
            fleet_optimize(weights, -1, 0, 10, NET)
        with pytest.raises(ValueError):
            fleet_optimize(weights, 0, 0, -1, NET)
