import math

import numpy as np
import pytest

from bottlesim import ScenarioConfig
from scalar_model import (
    EULER_MASCHERONI,
    ROUTE_A,
    ROUTE_B,
    EstimateVector,
    HumanAgent,
    TasteProfile,
    choose_route,
    logit_probability,
    perceived_utility,
    sample_taste,
    update_estimate,
)


def make_agent(t_a=10.0, t_b=15.0, eps_a=0.0, eps_b=0.0):
    return HumanAgent(
        id=0,
        tastes=TasteProfile(eps_a=eps_a, eps_b=eps_b),
        estimates=EstimateVector(t_a_hat=t_a, t_b_hat=t_b),
    )


class TestHumanParams:
    """The human-population fields of ScenarioConfig: alpha, epsilon and beta."""

    def test_defaults(self):
        config = ScenarioConfig()
        assert (config.learning_rate, config.explore_rate, config.taste_spread) == (0.2, 0.1, 5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -0.1},
            {"learning_rate": 1.1},
            {"explore_rate": 2.0},
            {"taste_spread": 0.0},
            {"taste_spread": -3.0},
            # An infinite spread made every perceived mean nan.
            {"taste_spread": math.inf},
            {"taste_spread": math.nan},
            # An int too large for a float.
            {"taste_spread": 10**400},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ScenarioConfig(**kwargs)


class TestSampleTaste:
    def test_log_term_vanishes_at_exp_minus_one(self):
        # -ln(draw) = 1 makes the transform return the location -beta*gamma
        assert sample_taste(math.exp(-1), 5.0) == pytest.approx(-5.0 * EULER_MASCHERONI, rel=1e-12)

    def test_degenerate_at_tiny_spread(self):
        for draw in (0.1, 0.5, 0.9):
            assert abs(sample_taste(draw, 1e-12)) < 1e-10

    @pytest.mark.parametrize("draw", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_draws_outside_open_interval(self, draw):
        with pytest.raises(ValueError, match="random_draw"):
            sample_taste(draw, 5.0)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError, match="taste_spread"):
            sample_taste(0.5, 0.0)

    def test_moments_match_the_gumbel_target(self):
        beta = 5.0
        rng = np.random.default_rng(2024)
        draws = rng.random(10**6)
        tastes = -beta * EULER_MASCHERONI - beta * np.log(-np.log(draws))
        assert abs(float(np.mean(tastes))) < 0.05
        target_var = math.pi**2 * beta**2 / 6.0
        assert float(np.var(tastes)) == pytest.approx(target_var, rel=0.02)

    def test_matches_scalar_transform(self):
        # the vectorized expression above is the same arithmetic as sample_taste
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.random()
            beta = rng.uniform(0.1, 20.0)
            vector_form = -beta * EULER_MASCHERONI - beta * np.log(-np.log(u))
            assert sample_taste(u, beta) == float(vector_form)


class TestPerceivedUtility:
    def test_taste_offsets_negated_estimate(self):
        agent = make_agent(t_a=10.0, eps_a=2.0)
        assert perceived_utility(agent, ROUTE_A) == -8.0

    def test_zero_taste_gives_negated_estimate(self):
        agent = make_agent(t_a=10.0, eps_a=0.0)
        assert perceived_utility(agent, ROUTE_A) == -10.0

    def test_translation_shifts_both_utilities_equally(self):
        agent = make_agent(t_a=10.0, t_b=15.0, eps_a=1.0, eps_b=-2.0)
        before = perceived_utility(agent, ROUTE_A) - perceived_utility(agent, ROUTE_B)
        shifted = make_agent(t_a=17.0, t_b=22.0, eps_a=1.0, eps_b=-2.0)
        after = perceived_utility(shifted, ROUTE_A) - perceived_utility(shifted, ROUTE_B)
        assert before == pytest.approx(after)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="route"):
            perceived_utility(make_agent(), "C")


class TestChooseRoute:
    def test_picks_higher_utility_route(self):
        # U_A = -8 beats U_B = -12
        agent = make_agent(t_a=10.0, t_b=12.0, eps_a=2.0, eps_b=0.0)
        assert choose_route(agent, 0.9, 0.0, 0.1) == ROUTE_A

    def test_exact_tie_goes_to_a(self):
        agent = make_agent(t_a=10.0, t_b=10.0)
        assert choose_route(agent, 0.9, 0.99, 0.0) == ROUTE_A

    def test_forced_exploration_uses_route_coin(self):
        agent = make_agent(t_a=1.0, t_b=100.0)  # A hugely better
        assert choose_route(agent, 0.05, 0.7, 0.1) == ROUTE_B
        assert choose_route(agent, 0.05, 0.3, 0.1) == ROUTE_A

    def test_translation_invariance_of_greedy_choice(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t_a, t_b = rng.uniform(1.0, 40.0, size=2)
            eps_a, eps_b = rng.normal(0.0, 5.0, size=2)
            shift = rng.uniform(-30.0, 30.0)
            base = make_agent(t_a, t_b, eps_a, eps_b)
            moved = make_agent(t_a + shift, t_b + shift, eps_a, eps_b)
            assert choose_route(base, 0.9, 0.5, 0.0) == choose_route(moved, 0.9, 0.5, 0.0)

    def test_empirical_exploration_rate(self):
        # equal utilities break to A, so B happens only by exploring with
        # the route coin in its upper half: expect a fraction epsilon / 2
        agent = make_agent(t_a=10.0, t_b=10.0)
        rng = np.random.default_rng(99)
        n = 200_000
        chosen_b = sum(
            choose_route(agent, rng.random(), rng.random(), 0.1) == ROUTE_B
            for _ in range(n)
        )
        assert chosen_b / n == pytest.approx(0.05, abs=0.003)


class TestUpdateEstimate:
    def test_blends_experience_into_taken_route(self):
        updated = update_estimate(EstimateVector(10.0, 15.0), ROUTE_A, 20.0, 0.2)
        assert updated.t_a_hat == pytest.approx(12.0)

    def test_zero_learning_rate_keeps_estimates(self):
        estimates = EstimateVector(10.0, 15.0)
        assert update_estimate(estimates, ROUTE_A, 20.0, 0.0) == estimates

    def test_unused_route_unaltered(self):
        updated = update_estimate(EstimateVector(10.0, 15.0), ROUTE_A, 20.0, 0.2)
        assert updated.t_b_hat == 15.0

    def test_rejects_nonpositive_experienced_time(self):
        with pytest.raises(ValueError, match="experienced_time"):
            update_estimate(EstimateVector(10.0, 15.0), ROUTE_A, 0.0, 0.2)

    def test_update_stays_between_old_and_experienced(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            old = float(rng.uniform(1.0, 50.0))
            experienced = float(rng.uniform(0.5, 60.0))
            alpha = float(rng.uniform(0.0, 1.0))
            route = ROUTE_A if rng.random() < 0.5 else ROUTE_B
            updated = update_estimate(EstimateVector(old, old), route, experienced, alpha)
            new = updated.t_a_hat if route == ROUTE_A else updated.t_b_hat
            assert min(old, experienced) <= new <= max(old, experienced)


class TestLogitProbability:
    def test_equal_estimates_give_half(self):
        for beta in (0.01, 1.0, 50.0):
            assert logit_probability(12.0, 12.0, beta) == 0.5

    def test_reference_value(self):
        assert logit_probability(5.0, 15.0, 5.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))

    def test_deterministic_limit_for_tiny_spread(self):
        assert logit_probability(5.0, 15.0, 1e-9) == 1.0

    def test_normalization_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t_a, t_b = rng.uniform(0.0, 60.0, size=2)
            beta = float(rng.uniform(0.01, 100.0))
            p = logit_probability(t_a, t_b, beta)
            q = logit_probability(t_b, t_a, beta)
            assert p + q == 1.0
            assert logit_probability(t_a + 17.5, t_b + 17.5, beta) == pytest.approx(p, rel=1e-12)

    def test_extreme_estimates_do_not_overflow(self):
        assert logit_probability(0.0, 1e9, 0.001) == 1.0
        assert logit_probability(1e9, 0.0, 0.001) == 0.0

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError, match="taste_spread"):
            logit_probability(5.0, 15.0, -1.0)
