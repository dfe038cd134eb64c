import functools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlesim import (
    RouteParams,
    ScenarioConfig,
    SimulationLog,
    TwoRouteNetwork,
    WindowAverages,
    bpr_travel_time,
    compute_window_averages,
    day_statistics,
    fleet_optimize,
    paired_t_test,
    ratio_report,
    run_scenario,
    system_optimum,
)
from bottlesim import metrics
from bottlesim.metrics import _mean, flow_mean, sequential_sum

NET = TwoRouteNetwork.default()


def make_log(flows, phase_lengths=(100, 100, 100, 100), network=NET, times=None, perceived=None, cav_share=0.0):
    """A log of the given (q_hdv_a, q_hdv_b, q_cav_a, q_cav_b) per day.

    The times default to each route's BPR time at its day's flow, and the
    perceived means to 0.0.
    """
    if times is None:
        times = [(bpr_travel_time(network.route_a, q[0] + q[2]), bpr_travel_time(network.route_b, q[1] + q[3]))
                 for q in flows]
    config = ScenarioConfig(phase_lengths=phase_lengths, network=network, cav_share=cav_share)
    return SimulationLog(
        config, np.array(flows, dtype=np.int64).reshape(-1, 4), np.array(times, dtype=float).reshape(-1, 2),
        np.zeros(len(flows)) if perceived is None else np.array(perceived, dtype=float),
    )


def _perceived(routes, taste_a, taste_b, times):
    """The engine's perceived times of each row's drivers, by np.where from each row's (t_a, t_b)."""
    t_a, t_b = np.array(times, dtype=float).T[:, :, None]
    return np.where(routes, t_b + taste_b, t_a + taste_a)


def day_means(blocks):
    """One day's ``day_statistics`` over ``blocks`` of ((rows, n) perceived, counts): a (rows, counts) array each."""
    counts = [c for perceived, block_counts in blocks for _ in perceived for c in block_counts]
    out = np.empty(len(counts))
    means = day_statistics(blocks, np.array([c or math.nan for c in counts]), out)
    assert means is out
    cuts = np.cumsum([len(perceived) * len(block_counts) for perceived, block_counts in blocks])[:-1]
    return [m.reshape(len(p), len(c)) for m, (p, c) in zip(np.split(means, cuts), blocks)]


class TestDayStatistics:
    """A day's group means: the flow means of the counts and times, and the survivors' perceived mean."""

    def test_constant_sample(self):
        assert flow_mean(np.array([[5, 0]]), np.array([[10.0, 20.0]])).tolist() == [10.0]  # everyone on A
        routes = np.zeros((1, 5), dtype=np.int8)
        (means,) = day_means([(_perceived(routes, np.zeros((1, 5)), np.zeros((1, 5)), [(10.0, 20.0)]), [5])])
        assert means.tolist() == [[10.0]]

    def test_perceived_mean_averages_time_plus_taste(self):
        routes = np.zeros((1, 2), dtype=np.int8)
        taste_a = np.array([[2.0, -2.0]])
        taste_b = np.array([[50.0, 50.0]])  # unused, both drivers on A
        (((mean_perceived,),),) = day_means([(_perceived(routes, taste_a, taste_b, [(10.0, 20.0)]), [2])])
        assert mean_perceived == pytest.approx(10.0)

    def test_fleet_weighted_mean(self):
        assert flow_mean(np.array([[60, 40]]), np.array([[10.0, 20.0]])).tolist() == [pytest.approx(14.0)]

    def test_empty_groups_are_absent(self):
        # No flow, or no survivors: NaN, which the counts and survivor count mark as absent.
        assert np.isnan(flow_mean(np.array([[0, 0]]), np.array([[10.0, 20.0]]))).all()
        routes = np.zeros((1, 0), dtype=np.int8)
        (means,) = day_means([(_perceived(routes, np.zeros((1, 0)), np.zeros((1, 0)), [(10.0, 20.0)]), [0])])
        assert means.shape == (1, 1) and np.isnan(means).all()

    def test_flow_mean_is_the_scalar_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        q = rng.integers(0, 3000, size=(200, 2))
        t = rng.random((200, 2)) * 10.0 ** rng.integers(-3, 300, size=(200, 2))
        means = flow_mean(q, t).tolist()
        for (q_a, q_b), (t_a, t_b), mean in zip(q.tolist(), t.tolist(), means):
            expected = (q_a * t_a + q_b * t_b) / (q_a + q_b) if q_a + q_b else math.nan
            assert repr(mean) == repr(expected)
        shares = flow_mean(q, (1.0, 0.0)).tolist()
        for (q_a, q_b), share in zip(q.tolist(), shares):
            assert repr(share) == repr((q_a * 1.0 + q_b * 0.0) / (q_a + q_b) if q_a + q_b else math.nan)

    def test_rows_and_survivor_counts_each_equal_their_own_day(self):
        rng = np.random.default_rng(4)
        routes = rng.random((3, 9)) < 0.5
        taste_a, taste_b = rng.normal(size=(2, 3, 9))
        pairs = [(10.0, 20.0), (11.5, 19.25), (7.0, 30.0)]
        # A second block, of rows of another length, shares the day's one call.
        other = rng.normal(size=(2, 7))
        means, other_means = day_means([(_perceived(routes, taste_a, taste_b, pairs), [9, 4, 0]), (other, [7])])
        assert means.shape == (3, 3) and other_means.shape == (2, 1)
        for row, alone in zip(other, other_means.tolist()):
            assert alone == [float(np.add.reduce(row)) / 7]
        for row, perceived in enumerate(means.tolist()):
            t_a, t_b = pairs[row]
            one = slice(row, row + 1)
            (alone,) = day_means([(_perceived(routes[one], taste_a[one], taste_b[one], pairs[one]), [9])])
            assert perceived[0] == alone[0, 0]
            # Fewer survivors than drivers average the first ones; none is absent.
            first = np.where(routes[row, :4], t_b + taste_b[row, :4], t_a + taste_a[row, :4])
            assert perceived[1] == float(np.add.reduce(first)) / 4
            assert math.isnan(perceived[2])


# Per-row means rely on np.add.reduce(axis=1) summing each row as the 1-D
# reduce of that row alone: pairwise summation in blocks, an implementation
# detail of numpy.  A numpy that sums rows otherwise must fail here, loudly.
REDUCE_WIDTHS = [1, 7, 8, 9, 127, 128, 129, 800, 900, 1000, 2600, 90000, 100000]


class TestRowReductions:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        width=st.sampled_from(REDUCE_WIDTHS),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e4, 1e300]),
        cut=st.floats(0.0, 1.0),
    )
    def test_row_sums_equal_each_rows_own_sum(self, width, rows, seed, scale, cut):
        # Hypothesis picks the shape, the scale and a seed for the values: a
        # list of 10^5 drawn floats would make each example slow.
        values = np.random.default_rng(seed).standard_normal((rows, width)) * scale
        columns = max(1, int(width * cut))
        for array in (values, values[:, :columns]):  # contiguous rows, then column-sliced views
            sums = np.add.reduce(array, axis=1)
            assert [s.tobytes() for s in sums] == [np.add.reduce(row).tobytes() for row in array]

    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), rows=st.integers(1, 3))
    @settings(deadline=None, derandomize=True, database=None)
    def test_row_sums_of_drawn_values(self, values, rows):
        array = np.array([values] * rows) + np.arange(rows)[:, None]
        for view in (array, array[:, : max(1, len(values) // 2)]):
            sums = np.add.reduce(view, axis=1)
            assert [s.tobytes() for s in sums] == [np.add.reduce(row).tobytes() for row in view]


def even_days(times):
    """A log of 500 humans on each route, both route times ``times[d - 1]`` on day d: its human mean."""
    return make_log([(500, 500, 0, 0)] * len(times), times=[(t, t) for t in times])


class TestWindowAverage:
    def test_constant_series(self):
        assert compute_window_averages(even_days([12.5] * 400)).tau_b == 12.5

    def test_mixed_series(self):
        times = [10.0 if d <= 150 else 20.0 for d in range(1, 401)]
        assert compute_window_averages(even_days(times)).tau_b == 15.0

    def test_window_uses_exactly_the_named_days(self):
        assert compute_window_averages(even_days([float(d) for d in range(1, 401)])).tau == pytest.approx(350.5)

    def test_absent_day_makes_window_absent(self):
        # No human drives on day 350; a fleet vehicle does, so the day has traffic.
        flows = [(0, 0, 1, 0) if d == 350 else (500, 500, 0, 0) for d in range(1, 401)]
        averages = compute_window_averages(make_log(flows))
        assert averages.tau is None and averages.tau_b is not None

    def test_empty_window_is_absent(self):
        averages = compute_window_averages(make_log([(500, 500, 0, 0)] * 10, (5, 0, 5, 0)))
        assert averages.tau_b is None and averages.tau is None
        assert averages.opt_gap is None and averages.equity_gap is None

    def test_range_outside_log_rejected(self):
        # The phases reach day 11: a 10-day log is one day short, an 11-day log whole.
        with pytest.raises(ValueError, match=r"^phase windows reach day 11, outside the log \(days 1\.\.10\)$"):
            compute_window_averages(make_log([(500, 500, 0, 0)] * 10, (5, 6, 0, 0)))
        assert compute_window_averages(make_log([(500, 500, 0, 0)] * 11, (5, 6, 0, 0))).tau_b is not None

    def test_route_a_share(self):
        log = make_log([(600, 400, 0, 0)] * 10, (0, 0, 0, 10))
        assert compute_window_averages(log).frac_a_hdv == pytest.approx(0.6)


class TestSystemOptimum:
    def test_single_vehicle_takes_the_short_route(self):
        best, minimal = system_optimum(NET, 1)
        assert best == 1
        assert minimal == pytest.approx(bpr_travel_time(NET.route_a, 1))

    def test_default_network_thousand_vehicles(self):
        best, minimal = system_optimum(NET, 1000)
        assert 0.57 <= best / 1000 <= 0.63
        assert minimal == pytest.approx(14.8195, abs=1e-3)

    def test_matches_plain_loop_enumeration(self):
        for q_total in (1, 7, 300, 1000):
            expected_q_a = min(
                range(q_total + 1),
                key=lambda q_a: (
                    q_a * bpr_travel_time(NET.route_a, q_a)
                    + (q_total - q_a) * bpr_travel_time(NET.route_b, q_total - q_a),
                    q_a,
                ),
            )
            assert system_optimum(NET, q_total)[0] == expected_q_a

    def test_identical_routes_split_evenly(self):
        route = RouteParams(free_flow_time=10.0, capacity=400.0, exponent=2.0)
        twin = TwoRouteNetwork(route_a=route, route_b=route)
        assert system_optimum(twin, 600)[0] == 300

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="q_total"):
            system_optimum(NET, 0)

    def test_equal_calls_agree(self, monkeypatch):
        evaluations = []

        def counted(*args):
            evaluations.append(args[3])
            return fleet_optimize(*args)

        monkeypatch.setattr(metrics, "fleet_optimize", counted)
        assert system_optimum(NET, 777) == system_optimum(NET, 777)
        assert evaluations == [777, 777]  # each call evaluates: no cache answers for it

    def test_window_averages_consult_it_once_per_distinct_total(self, monkeypatch):
        # The evaluation window's six days carry the totals 900, 1000 and 1100, a fleet's
        # vehicles counted; the two days before it carry 700, which no statistic reads.
        flows = [(350, 350, 0, 0)] * 2 + [
            (450, 450, 0, 0), (500, 500, 0, 0), (550, 550, 0, 0), (500, 400, 50, 50), (450, 450, 0, 0), (600, 500, 0, 0),
        ]
        log = make_log(flows, (2, 0, 0, 6))
        calls = []

        def counted(network, q_total):
            calls.append(q_total)
            return system_optimum(network, q_total)

        monkeypatch.setattr(metrics, "system_optimum", counted)
        compute_window_averages(log)
        assert sorted(calls) == [900, 1000, 1100]
        # A second call asks again: nothing is kept between calls.
        compute_window_averages(log)
        assert sorted(calls) == [900, 900, 1000, 1000, 1100, 1100]


class TestOptimalityAndEquity:
    def test_day_at_exact_optimum_has_zero_gap(self):
        best, _ = system_optimum(NET, 1000)
        gap = compute_window_averages(make_log([(best, 1000 - best, 0, 0)], (0, 0, 0, 1))).opt_gap
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_equal_route_times_have_zero_spread(self):
        route = RouteParams(free_flow_time=10.0, capacity=400.0, exponent=2.0)
        twin = TwoRouteNetwork(route_a=route, route_b=route)
        t = bpr_travel_time(route, 200)
        spread = compute_window_averages(make_log([(200, 200, 0, 0)], (0, 0, 0, 1), twin, [(t, t)])).equity_gap
        assert spread == 0.0

    def test_hand_evaluated_spread(self):
        # q_a = q_b = 500, times 10 and 20.859375: spread is half the gap
        log = make_log([(500, 500, 0, 0)], (0, 0, 0, 1))
        assert log.times.tolist() == [[10.0, 20.859375]]
        spread = compute_window_averages(log).equity_gap
        assert spread == pytest.approx(5.4296875)

    def test_gap_never_negative(self):
        rng = np.random.default_rng(8)
        flows = [(int(rng.integers(0, 1200)), int(rng.integers(1, 1200)), 0, 0) for _ in range(50)]
        gap = compute_window_averages(make_log(flows, (0, 0, 0, 50))).opt_gap
        assert gap >= 0.0


class TestComputeWindowAverages:
    def test_no_fleet_run_has_absent_fleet_statistics(self):
        config = ScenarioConfig(base_population=80, phase_lengths=(5, 5, 5, 5), seed=3)
        averages = compute_window_averages(run_scenario(config))
        assert averages.rho is None
        assert averages.frac_a_cav is None
        assert averages.tau_b is not None and averages.tau is not None
        assert averages.opt_gap is not None and averages.opt_gap >= 0

    def test_full_share_run_has_absent_human_statistics(self):
        config = ScenarioConfig(
            base_population=80, cav_share=1.0, strategy="Social", phase_lengths=(5, 5, 5, 5), seed=3
        )
        averages = compute_window_averages(run_scenario(config))
        assert averages.tau is None and averages.u_b is None and averages.u is None
        assert averages.rho is not None and averages.frac_a_cav is not None

    def test_zero_taste_spread_makes_perceived_match_actual(self):
        config = ScenarioConfig(
            base_population=100,
            phase_lengths=(5, 5, 5, 5),
            taste_spread=1e-9,
            seed=13,
        )
        averages = compute_window_averages(run_scenario(config))
        assert averages.u_b == pytest.approx(averages.tau_b, abs=1e-6)
        assert averages.u == pytest.approx(averages.tau, abs=1e-6)


def reference_window_mean(days, value_of):
    """Mean of ``value_of`` over ``days``, summed left to right from 0.

    None for no days or for a day whose value is None.
    """
    if not days:
        return None
    total = 0
    for rec in days:
        value = value_of(rec)
        if value is None:
            return None
        total = total + value
    return total / len(days)


def day_records(log):
    """Each day of ``log`` as Python numbers, its group means from their definitions; None where absent."""
    days = []
    for (q_hdv_a, q_hdv_b, q_cav_a, q_cav_b), (t_a, t_b), perceived in zip(
        log.flows.tolist(), log.times.tolist(), log.perceived.tolist()
    ):
        humans, fleet = q_hdv_a + q_hdv_b, q_cav_a + q_cav_b
        days.append(SimpleNamespace(
            q_hdv_a=q_hdv_a, q_hdv_b=q_hdv_b, q_cav_a=q_cav_a, q_cav_b=q_cav_b, t_a=t_a, t_b=t_b,
            mean_hdv_time=(q_hdv_a * t_a + q_hdv_b * t_b) / humans if humans else None,
            mean_perceived_hdv_time=perceived if log.config.survivor_count else None,
            mean_cav_time=(q_cav_a * t_a + q_cav_b * t_b) / fleet if fleet else None,
        ))
    return days


def reference_window_averages(log):
    """Every WindowAverages field written out from its own definition."""
    p1, p2, p3, p4 = log.config.phase_lengths
    records = day_records(log)
    baseline = records[p1 : p1 + p2]
    evaluation = records[p1 + p2 + p3 : p1 + p2 + p3 + p4]

    def realized_mean(rec):
        q_a, q_b = rec.q_hdv_a + rec.q_cav_a, rec.q_hdv_b + rec.q_cav_b
        return (q_a * rec.t_a + q_b * rec.t_b) / (q_a + q_b)

    def optimality_gap(rec):
        total = rec.q_hdv_a + rec.q_cav_a + rec.q_hdv_b + rec.q_cav_b
        return realized_mean(rec) - system_optimum(log.config.network, total)[1]

    def equity_spread(rec):
        q_a, q_b = rec.q_hdv_a + rec.q_cav_a, rec.q_hdv_b + rec.q_cav_b
        s = realized_mean(rec)
        return math.sqrt((q_a * (rec.t_a - s) ** 2 + q_b * (rec.t_b - s) ** 2) / (q_a + q_b))

    def hdv_share(rec):
        n = rec.q_hdv_a + rec.q_hdv_b
        return rec.q_hdv_a / n if n > 0 else None

    def cav_share(rec):
        n = rec.q_cav_a + rec.q_cav_b
        return rec.q_cav_a / n if n > 0 else None

    return WindowAverages(
        tau_b=reference_window_mean(baseline, lambda rec: rec.mean_hdv_time),
        tau=reference_window_mean(evaluation, lambda rec: rec.mean_hdv_time),
        u_b=reference_window_mean(baseline, lambda rec: rec.mean_perceived_hdv_time),
        u=reference_window_mean(evaluation, lambda rec: rec.mean_perceived_hdv_time),
        rho=reference_window_mean(evaluation, lambda rec: rec.mean_cav_time),
        frac_a_hdv=reference_window_mean(evaluation, hdv_share),
        frac_a_cav=reference_window_mean(evaluation, cav_share),
        opt_gap=reference_window_mean(evaluation, optimality_gap),
        equity_gap=reference_window_mean(evaluation, equity_spread),
    )


@st.composite
def window_logs(draw):
    """Logs with zero-length phases, empty groups, absent days and runs without survivors.

    A log may run past its phases; each day carries some flow, because
    the realized mean time of a day without traffic is undefined.
    """
    phases = tuple(draw(st.lists(st.integers(0, 5), min_size=4, max_size=4)))
    n_days = sum(phases) + draw(st.integers(0, 2))
    empty = draw(st.sampled_from(["none", "hdv", "cav"]))
    group = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 40), st.integers(0, 40)))
    time = st.floats(0.0, 1e3, allow_nan=False)
    flows, times = [], []
    for _ in range(n_days):
        q_hdv = (0, 0) if empty == "hdv" else draw(group)
        q_cav = (0, 0) if empty == "cav" else draw(group)
        if sum(q_hdv) + sum(q_cav) == 0:
            q_hdv, q_cav = ((1, 0), q_cav) if empty == "cav" else (q_hdv, (0, 1))
        flows.append((*q_hdv, *q_cav))
        times.append((draw(time), draw(time)))
    perceived = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n_days, max_size=n_days))
    cav_share = draw(st.sampled_from([0.0, 0.5, 1.0]))  # at 1.0 no driver survives: u_b and u are absent
    return make_log(flows, phases, times=times, perceived=perceived, cav_share=cav_share)


class TestWindowStatisticsProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log=window_logs())
    def test_every_field_matches_its_definition_bit_for_bit(self, log):
        assert repr(compute_window_averages(log)) == repr(reference_window_averages(log))


class TestRatioReport:
    def test_no_effect_fixed_point(self):
        averages = WindowAverages(
            tau_b=11.0, tau=11.0, u_b=13.0, u=13.0, rho=11.0,
            frac_a_hdv=0.5, frac_a_cav=0.5, opt_gap=0.0, equity_gap=0.0,
        )
        ratios = ratio_report(averages)
        assert ratios.cav_advantage == 1.0
        assert ratios.effect_change_to_cav == 1.0
        assert ratios.effect_remaining_hdv == 1.0
        assert ratios.perceived_effect_remaining_hdv == 1.0

    def test_hand_divided_values(self):
        averages = WindowAverages(
            tau_b=12.0, tau=13.0, u_b=14.0, u=16.0, rho=11.0,
            frac_a_hdv=None, frac_a_cav=None, opt_gap=None, equity_gap=None,
        )
        ratios = ratio_report(averages)
        assert ratios.cav_advantage == pytest.approx(13.0 / 11.0)
        assert ratios.effect_change_to_cav == pytest.approx(12.0 / 11.0)
        assert ratios.effect_remaining_hdv == pytest.approx(12.0 / 13.0)
        assert ratios.perceived_effect_remaining_hdv == pytest.approx(14.0 / 16.0)

    def test_absent_denominators_yield_absent_ratios(self):
        averages = WindowAverages(
            tau_b=12.0, tau=13.0, u_b=14.0, u=16.0, rho=None,
            frac_a_hdv=0.6, frac_a_cav=None, opt_gap=0.1, equity_gap=0.2,
        )
        ratios = ratio_report(averages)
        assert ratios.cav_advantage is None
        assert ratios.effect_change_to_cav is None
        assert ratios.effect_remaining_hdv == pytest.approx(12.0 / 13.0)


class TestPairedTTest:
    def test_identical_samples_are_degenerate(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.degenerate
        assert result.t_statistic is None
        assert not result.significant_at_0_001

    def test_constant_differences_are_degenerate(self):
        result = paired_t_test([2.0] * 10, [1.0] * 10)
        assert result.degenerate
        assert result.degrees_of_freedom == 9

    def test_hand_computed_example(self):
        sample_a = [float(2 * k) for k in range(1, 11)]
        sample_b = [float(k) for k in range(1, 11)]  # d = 1..10
        result = paired_t_test(sample_a, sample_b)
        assert result.t_statistic == pytest.approx(5.744562646538029, abs=1e-3)
        assert result.degrees_of_freedom == 9
        assert result.significant_at_0_001

    def test_sign_is_two_tailed(self):
        sample_a = [float(k) for k in range(1, 11)]
        sample_b = [float(2 * k) for k in range(1, 11)]
        result = paired_t_test(sample_a, sample_b)
        assert result.t_statistic == pytest.approx(-5.744562646538029, abs=1e-3)
        assert result.significant_at_0_001

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            paired_t_test([1.0, 2.0], [1.0])

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test([1.0], [2.0])


# Two-tailed critical values of Student's t at p = 0.001 for df 1 to 30, to three decimals, as printed tables give them.
PRINTED_CRITICAL_T = [
    636.619, 31.599, 12.924, 8.610, 6.869, 5.959, 5.408, 5.041, 4.781, 4.587,
    4.437, 4.318, 4.221, 4.140, 4.073, 4.015, 3.965, 3.922, 3.883, 3.850,
    3.819, 3.792, 3.768, 3.745, 3.725, 3.707, 3.690, 3.674, 3.659, 3.646,
]


def samples_with_t(t, df):
    """Paired samples of df + 1 pairs whose t-statistic is ``t``: their differences are mean +1, -1, +1, ... (and 0)."""
    n = df + 1
    deviations = [(-1.0) ** k for k in range(n - n % 2)] + [0.0] * (n % 2)
    mean = t * math.sqrt((n - n % 2) / (df * n))
    return [mean + x for x in deviations], [0.0] * n


class TestExactP:
    """Significance is an exact two-tailed p below 0.001, at every df."""

    @pytest.mark.parametrize("df, critical", enumerate(PRINTED_CRITICAL_T, start=1))
    def test_decisions_agree_with_the_printed_table(self, df, critical):
        # Each printed value lies within 0.0005 of the exact one, so 0.0006 either side decides alike.
        for sign in (1.0, -1.0):
            below, above = (paired_t_test(*samples_with_t(sign * (critical + offset), df))
                            for offset in (-0.0006, 0.0006))
            assert below.t_statistic == pytest.approx(sign * (critical - 0.0006), rel=1e-12)
            assert below.degrees_of_freedom == above.degrees_of_freedom == df
            assert not below.significant_at_0_001 and above.significant_at_0_001

    def test_df_above_30_gets_its_own_p(self):
        # The exact critical value at df 40 is 3.551, below df 30's 3.646.
        result = paired_t_test(*samples_with_t(3.6, 40))
        assert result.degrees_of_freedom == 40 and result.significant_at_0_001
        assert metrics._two_tailed_p(3.6, 40) == pytest.approx(0.000868, abs=1e-6)

    def test_p_agrees_with_scipy(self):
        pytest.importorskip("scipy")
        from scipy import stats

        # No tiny t but 0: scipy's own t.sf is off by 3e-9 at df 1, t = 1e-8.
        for df in [*range(1, 61), 99, 100, 1000, 20000]:
            for t in (0.0, 0.5, 1.0, 2.0, 3.3, 3.6, 5.0, 12.0, 100.0, 1e3, 1e10, 1e300):
                expected = 2.0 * stats.t.sf(t, df)
                for signed in (t, -t):
                    assert abs(metrics._two_tailed_p(signed, df) - expected) < 1e-12, (signed, df)


def exact_t(sample_a, sample_b):
    """The paired t-statistic from the exact rational mean and n-1 variance of the differences."""
    d = [Fraction(a) - Fraction(b) for a, b in zip(sample_a, sample_b)]
    mean = sum(d) / len(d)
    t_squared = mean * mean * len(d) * (len(d) - 1) / sum((x - mean) ** 2 for x in d)
    return math.copysign(math.sqrt(t_squared), mean)


class TestOverflowingTTest:
    """Finite samples whose differences, sums or squares overflow, or whose squares underflow, still get their t."""

    @pytest.mark.parametrize("sample_a, sample_b", [
        ([1e200, 3e200, 2e200], [0.0, 0.0, 0.0]),  # (d - mean) squared overflows to inf: rescaled
        ([1e308, 1e308], [-1e308, -1e307]),  # a difference overflows, to a t of nan
        ([1.5e308, 1.5e308], [0.0, 1e308]),  # the sum of the differences overflows, to a t of nan
        ([1.3e154, -1.1e154, 1.3e154, -1.1e154], [0.0] * 4),  # the sum of the squares does, to a t of 0
        ([0.0, 3.2e-162], [0.0, 0.0]),  # the squares are subnormal, to a t of 0.7198
        ([0.0, 3.1e-162], [0.0, 0.0]),  # the squares underflow to 0, to a degenerate outcome
        ([5e-324, 0.0, 1e-323], [0.0] * 3),  # subnormal differences, to a degenerate outcome
        ([1e-160, 3e-160, 2e-160], [0.0] * 3),  # subnormal squares lose bits, to a t of 3.46326545
    ])
    def test_t_agrees_with_the_exact_value(self, sample_a, sample_b):
        result = paired_t_test(sample_a, sample_b)
        assert result.t_statistic == pytest.approx(exact_t(sample_a, sample_b), rel=1e-12)
        assert result.degrees_of_freedom == len(sample_a) - 1 and not result.degenerate

    @settings(deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                    st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=8))
    def test_finite_samples_give_a_finite_t_or_a_degenerate_outcome(self, pairs):
        result = paired_t_test(*zip(*pairs))
        assert result.degenerate or math.isfinite(result.t_statistic)

    @settings(deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(st.tuples(*[st.integers(-2**40, 2**40)] * 2), min_size=2, max_size=8),
           exponent=st.one_of(st.integers(-980, -500), st.integers(500, 980)))
    def test_t_does_not_depend_on_scale(self, pairs, exponent):
        sample_a, sample_b = ([x / 2**20 for x in sample] for sample in zip(*pairs))
        result = paired_t_test(sample_a, sample_b)
        scaled = paired_t_test(*([math.ldexp(x, exponent) for x in s] for s in (sample_a, sample_b)))
        assert scaled.degenerate == result.degenerate
        if not result.degenerate:
            assert scaled.t_statistic == pytest.approx(result.t_statistic, rel=1e-12)

    @pytest.mark.parametrize("difference", [4.3e127, 2.0**300, 1e200, 1.7e308])
    def test_equal_differences_too_large_to_rescale_are_degenerate(self, difference):
        # Equal differences have zero variance; times 2**600 their sum would overflow to a t of nan.
        result = paired_t_test([0.0, 0.0], [difference, difference])
        assert result.degenerate and result.t_statistic is None


class TestSequentialSum:
    """Means sum left to right, as Python before 3.12 does, so summaries are byte-stable on 3.12."""

    def test_cancellation_is_not_compensated(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum (Python 3.12) gives 1.0.
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
        assert _mean(np.array([1e16, 1.0, -1e16])) == 0.0

    @given(values=st.lists(st.one_of(st.floats(allow_nan=False), st.integers(-10, 10)), max_size=50))
    @settings(deadline=None, derandomize=True, database=None)
    def test_adds_left_to_right_from_zero(self, values):
        total = sequential_sum(iter(values))
        expected = functools.reduce(operator.add, values, 0)
        assert repr(total) == repr(expected)

    def test_t_statistic_sums_left_to_right(self):
        sample_a = [1e16, 1.0, -1e16, 3.0]
        d = [a - 0.0 for a in sample_a]
        mean_d = functools.reduce(operator.add, d, 0) / 4
        var_d = functools.reduce(operator.add, [(x - mean_d) ** 2 for x in d], 0) / 3
        assert mean_d == 0.75  # a compensated sum gives 4.0 / 4
        result = paired_t_test(sample_a, [0.0] * 4)
        assert result.t_statistic == mean_d / math.sqrt(var_d / 4)
