"""End-to-end acceptance checks of the simulator's emergent behaviour.

Every test prints one [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the same condition.  Quantitative checks run at pinned
seeds; scenario runs are cached and shared across tests.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bottlesim import (
    STRATEGY_TABLE,
    RouteParams,
    ScenarioConfig,
    TwoRouteNetwork,
    bpr_travel_time,
    compute_window_averages,
    fleet_optimize,
    paired_t_test,
    ratio_report,
    run_scenario,
    system_optimum,
)
from bottlesim.expcli import load_config, main, replicate_and_test, run_experiment
from bottlesim.metrics import flow_mean
from scalar_model import (
    EULER_MASCHERONI,
    ROUTE_A,
    EstimateVector,
    bpr_table,
    logit_probability,
    update_estimate,
)

NET = TwoRouteNetwork.default()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PAPER_CONFIGS = ("paper_strategy_share", "paper_beta", "paper_congestion")

_CACHE = {}


def results_for(**kwargs):
    config = ScenarioConfig(**kwargs)
    if config not in _CACHE:
        log = run_scenario(config)
        averages = compute_window_averages(log)
        _CACHE[config] = (log, averages, ratio_report(averages))
    return _CACHE[config]


def plain_loop_fleet_split(weights, q_hdv_a, q_hdv_b, q_cav):
    """Exhaustive plain-loop minimizer of the fleet objective, the oracle for
    ``fleet_optimize``; ``weights`` is (lambda_cav, lambda_hdv) and ties go to
    the smallest split."""
    lambda_cav, lambda_hdv = weights
    best_x, best_phi = 0, None
    for x in range(q_cav + 1):
        t_a = bpr_travel_time(NET.route_a, q_hdv_a + x)
        t_b = bpr_travel_time(NET.route_b, q_hdv_b + q_cav - x)
        phi = lambda_cav * (x * t_a + (q_cav - x) * t_b) + lambda_hdv * (
            q_hdv_a * t_a + q_hdv_b * t_b
        )
        if best_phi is None or phi < best_phi:
            best_x, best_phi = x, phi
    return best_x


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_01_baseline_stabilization():
    start = time.perf_counter()
    log = run_scenario(ScenarioConfig(seed=1))
    elapsed = time.perf_counter() - start
    flows_on_a = (log.flows[100:200, 0] + log.flows[100:200, 2]).tolist()
    spread = float(np.std(flows_on_a))
    check(
        "criterion 1 baseline stabilization",
        spread < 0.05 * 1000 and elapsed < 1.0,
        f"std(q_A days 101-200)={spread:.2f} (<50), runtime={elapsed:.3f}s (<1s)",
    )


def test_02_selfish_small_share():
    fractions, advantages, remaining = [], [], []
    for seed in (1, 2, 3):
        _, averages, ratios = results_for(cav_share=0.1, strategy="Selfish", seed=seed)
        fractions.append(averages.frac_a_cav)
        advantages.append(ratios.cav_advantage)
        remaining.append(ratios.effect_remaining_hdv)
    ok = (
        all(f >= 0.95 for f in fractions)
        and all(a > 1.0 for a in advantages)
        and all(r < 1.0 for r in remaining)
    )
    check(
        "criterion 2 selfish small share",
        ok,
        f"frac_a_cav={[f'{f:.3f}' for f in fractions]}, "
        f"tau/rho={[f'{a:.3f}' for a in advantages]}, "
        f"tau_b/tau={[f'{r:.3f}' for r in remaining]} at seeds 1-3",
    )


def test_03_selfish_large_share():
    _, averages, ratios = results_for(cav_share=0.8, strategy="Selfish", seed=1)
    change = averages.tau_b / averages.rho
    check(
        "criterion 3 selfish large share",
        ratios.effect_remaining_hdv > 1.0 and change > 1.0,
        f"tau_b/tau={ratios.effect_remaining_hdv:.4f} (>1), tau_b/rho={change:.4f} (>1)",
    )


def test_04_social_small_share():
    _, averages, _ = results_for(cav_share=0.1, strategy="Social", seed=1)
    check(
        "criterion 4 social small share",
        averages.frac_a_cav <= 0.05,
        f"frac_a_cav={averages.frac_a_cav:.4f} (<=0.05)",
    )


def test_05_social_full_share():
    log, averages, _ = results_for(cav_share=1.0, strategy="Social", seed=1)
    config = log.config
    post = log.flows[config.m_day :]
    exact_match = all(q_a == system_optimum(config.network, 1000)[0] for q_a in (post[:, 0] + post[:, 2]).tolist())
    check(
        "criterion 5 social full share",
        averages.opt_gap < 0.05 and exact_match,
        f"opt_gap={averages.opt_gap:.6f} (<0.05), split matches system optimum "
        f"on all {len(post)} post-replacement days: {exact_match}",
    )


def test_06_system_optimum_location():
    best, _ = system_optimum(NET, 1000)
    oracle = min(
        range(1001),
        key=lambda q_a: (
            q_a * bpr_travel_time(NET.route_a, q_a)
            + (1000 - q_a) * bpr_travel_time(NET.route_b, 1000 - q_a),
            q_a,
        ),
    )
    check(
        "criterion 6 system optimum location",
        0.57 <= best / 1000 <= 0.63 and best == oracle,
        f"q_A*={best} (fraction {best / 1000:.3f} in [0.57, 0.63]), independent scan agrees",
    )


def test_07_altruistic_small_share():
    log, averages, ratios = results_for(cav_share=0.2, strategy="Altruistic", seed=1)
    config = log.config
    post = log.flows[config.m_day :].tolist()
    # PAPER.md's Altruistic weights (0, 1) are written out, not looked up, so a
    # wrong strategy table cannot agree with itself.
    matched = sum(
        q_cav_a == plain_loop_fleet_split((0.0, 1.0), q_hdv_a, q_hdv_b, config.fleet_size)
        for q_hdv_a, q_hdv_b, q_cav_a, _ in post
    )
    # With 800 humans and 200 vehicles, minimizing human time sends the whole
    # fleet to B whenever q_hdv_a >= 462, and at least 95 % of it to A only when
    # q_hdv_a <= 377.  The humans keep 577-625 drivers on A in days 301-400
    # (seeds 1-10), and even a fleet pinned on A leaves 473-513 there, so the
    # objective concentrates the fleet on B.
    check(
        "criterion 7 altruistic share 0.2",
        matched == len(post) and averages.frac_a_cav <= 0.05 and ratios.effect_remaining_hdv > 1.0,
        f"split equals the human-time minimizer on {matched}/{len(post)} post-replacement days, "
        f"frac_a_cav={averages.frac_a_cav:.4f} (<=0.05), "
        f"tau_b/tau={ratios.effect_remaining_hdv:.4f} (>1)",
    )


def test_08_malicious_oscillation():
    def hdv_time_variance(strategy, seed):
        log, _, _ = results_for(cav_share=0.6, strategy=strategy, seed=seed)
        return float(np.var(flow_mean(log.flows[300:400, :2], log.times[300:400])))

    primary_ratio = hdv_time_variance("Malicious", 1) / hdv_time_variance("Selfish", 1)
    fallback = all(
        hdv_time_variance("Malicious", seed) > hdv_time_variance("Selfish", seed)
        for seed in (1, 2, 3)
    )
    check(
        "criterion 8 malicious oscillation",
        primary_ratio >= 2.0 or fallback,
        f"variance ratio at seed 1 = {primary_ratio:.1f} (>=2)",
    )


def test_09_congestion_rigidity():
    _, heavy_avg, heavy = results_for(cav_share=0.4, strategy="Selfish", congestion=2.6, seed=1)
    ratios = (
        heavy.cav_advantage,
        heavy.effect_change_to_cav,
        heavy.effect_remaining_hdv,
        heavy.perceived_effect_remaining_hdv,
    )
    _, _, light = results_for(cav_share=0.4, strategy="Selfish", congestion=0.25, seed=1)
    check(
        "criterion 9 congestion rigidity",
        all(0.95 <= r <= 1.05 for r in ratios) and light.effect_remaining_hdv < 1.0,
        f"C=2.6 ratios={[f'{r:.4f}' for r in ratios]} (all in [0.95, 1.05]), "
        f"C=0.25 tau_b/tau={light.effect_remaining_hdv:.4f} (<1)",
    )


def test_10_bias_sensitivity():
    def advantage(beta):
        _, _, ratios = results_for(
            cav_share=0.05,
            strategy="Selfish",
            taste_spread=beta,
            seed=1,
        )
        return ratios.cav_advantage

    high, low = advantage(1000.0), advantage(0.01)
    check(
        "criterion 10 bias sensitivity",
        high > low,
        f"cav_advantage beta=1000: {high:.4f} > beta=0.01: {low:.4f}",
    )


def test_11_reproducibility_ttest():
    config = ScenarioConfig(cav_share=0.1, strategy="Selfish")
    result = replicate_and_test(config, "tau_b", config, "tau", seeds=list(range(1, 11)))
    ok = (
        result.degrees_of_freedom == 9
        and not result.degenerate
        and abs(result.t_statistic) > 4.781
        and result.significant_at_0_001
    )
    check(
        "criterion 11 reproducibility t-test",
        ok,
        f"|t|={abs(result.t_statistic):.2f} (>4.781), df={result.degrees_of_freedom}",
    )


def test_12_determinism_bytes(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"cav_share": 0.1, "seeds": [1]}), encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    same = outputs[0] == outputs[1]
    daily_names = [n for n in outputs[0] if n.startswith("daily")]
    check(
        "criterion 12 determinism",
        same and "summary.csv" in outputs[0] and len(daily_names) == 1,
        f"two executions produced byte-identical {daily_names[0]} and summary.csv: {same}",
    )


def test_13_property_suites():
    net = NET
    # BPR monotonicity and capacity doubling
    for exponent in (1.5, 2.0, 4.0):
        params = RouteParams(7.0, 350.0, exponent)
        times = bpr_travel_time(params, np.linspace(0.0, 1200.0, 200))
        assert np.all(np.diff(times) > 0)
        assert bpr_travel_time(params, params.capacity) == 2 * params.free_flow_time

    # learning stays inside the convex hull, unused route untouched
    rng = np.random.default_rng(1234)
    for _ in range(200):
        old_a, old_b = rng.uniform(1.0, 50.0, size=2)
        experienced = float(rng.uniform(0.5, 80.0))
        alpha = float(rng.uniform(0.0, 1.0))
        updated = update_estimate(EstimateVector(old_a, old_b), ROUTE_A, experienced, alpha)
        assert min(old_a, experienced) <= updated.t_a_hat <= max(old_a, experienced)
        assert updated.t_b_hat == old_b

    # logit normalization, translation invariance, deterministic limit
    for _ in range(200):
        t_a, t_b = rng.uniform(0.0, 50.0, size=2)
        beta = float(rng.uniform(0.01, 200.0))
        assert logit_probability(t_a, t_b, beta) + logit_probability(t_b, t_a, beta) == 1.0
        shifted = logit_probability(t_a + 9.0, t_b + 9.0, beta)
        assert shifted == pytest.approx(logit_probability(t_a, t_b, beta), rel=1e-9)
    assert logit_probability(5.0, 15.0, 1e-12) == 1.0

    # Gumbel sampler moments at a million draws
    beta = 5.0
    draws = np.random.default_rng(77).random(10**6)
    tastes = -beta * EULER_MASCHERONI - beta * np.log(-np.log(draws))
    mean_tolerance = 0.01 * beta * math.pi / math.sqrt(6.0)
    assert abs(float(np.mean(tastes))) < mean_tolerance
    assert float(np.var(tastes)) == pytest.approx(math.pi**2 * beta**2 / 6.0, rel=0.02)

    # fleet split minimality against an exhaustive plain-loop oracle
    names = ("Selfish", "Altruistic", "Malicious", "Disruptive", "Social")
    for _ in range(1000):
        weights = STRATEGY_TABLE[names[int(rng.integers(len(names)))]]
        q_hdv_a, q_hdv_b = (int(v) for v in rng.integers(0, 1500, size=2))
        q_cav = int(rng.integers(0, 40))
        decision = fleet_optimize(weights, q_hdv_a, q_hdv_b, q_cav, bpr_table(net, q_hdv_a + q_hdv_b + q_cav))
        best_x = plain_loop_fleet_split(weights, q_hdv_a, q_hdv_b, q_cav)
        assert decision.cav_on_a == best_x

    # social objective and system optimum locate the same split
    for q_total in (100, 1000, 1300):
        social = fleet_optimize(STRATEGY_TABLE["Social"], 0, 0, q_total, bpr_table(net, q_total))
        best_q_a, minimal_mean = system_optimum(net, q_total)
        assert social.cav_on_a == best_q_a
        assert social.objective_value / q_total == pytest.approx(minimal_mean)

    # equity spread is zero exactly when the route times coincide
    from bottlesim import SimulationLog

    def spread_of(t_a, t_b, q_a=400, q_b=600):
        log = SimulationLog(ScenarioConfig(phase_lengths=(0, 0, 0, 1), network=net),
                            np.array([[q_a, q_b, 0, 0]]), np.array([[t_a, t_b]]), np.zeros(1))
        return compute_window_averages(log).equity_gap

    assert spread_of(12.0, 12.0) == 0.0
    assert spread_of(12.0, 12.5) > 0.0

    # paired t-test on the hand-worked difference series 1..10
    result = paired_t_test([float(2 * k) for k in range(1, 11)], [float(k) for k in range(1, 11)])
    assert result.t_statistic == pytest.approx(5.745, abs=1e-3)

    check("criterion 13 unit/property suites", True, "all property groups hold")


def test_14_full_sweep_runtime(tmp_path):
    # The three figure grids, as the README's "Reproducing the paper" runs them.
    start = time.perf_counter()
    total_runs = 0
    for name in PAPER_CONFIGS:
        spec = load_config(CONFIGS / f"{name}.json")
        spec.out_dir = tmp_path / name
        total_runs += len(run_experiment(spec))
    elapsed = time.perf_counter() - start
    check(
        "full sweep runtime",
        elapsed < 300.0 and total_runs == 115,
        f"{total_runs} runs in {elapsed:.1f}s (<300s)",
    )
