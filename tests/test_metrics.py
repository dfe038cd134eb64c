import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bottlesim import (
    DayRecord,
    RouteParams,
    ScenarioConfig,
    SimulationLog,
    TwoRouteNetwork,
    WindowAverages,
    bpr_travel_time,
    compute_window_averages,
    day_statistics,
    paired_t_test,
    ratio_report,
    run_scenario,
    system_optimum,
)
from bottlesim.metrics import _mean, sequential_sum

NET = TwoRouteNetwork.default()


def make_record(day, q_hdv_a, q_hdv_b, q_cav_a=0, q_cav_b=0, mean_hdv=None, mean_perceived=None, mean_cav=None):
    t_a = bpr_travel_time(NET.route_a, q_hdv_a + q_cav_a)
    t_b = bpr_travel_time(NET.route_b, q_hdv_b + q_cav_b)
    return DayRecord(
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


def make_log(records, phase_lengths=(100, 100, 100, 100), network=NET):
    config = ScenarioConfig(phase_lengths=phase_lengths, network=network)
    return SimulationLog(config=config, records=records)


def _perceived(routes, taste_a, taste_b, days):
    """The engine's perceived times of each row's drivers, by np.where from each row's day."""
    t_a, t_b = np.array([day[4:] for day in days], dtype=float).T[:, :, None]
    return np.where(routes, t_b + taste_b, t_a + taste_a)


class TestDayStatistics:
    def test_constant_sample(self):
        routes = np.zeros((1, 5), dtype=np.int8)  # everyone on A
        days = [(5, 0, 0, 0, 10.0, 20.0)]
        ((mean_hdv, _, _),) = day_statistics(_perceived(routes, np.zeros((1, 5)), np.zeros((1, 5)), days), [0], days)
        assert mean_hdv == 10.0

    def test_perceived_mean_averages_time_plus_taste(self):
        routes = np.zeros((1, 2), dtype=np.int8)
        taste_a = np.array([[2.0, -2.0]])
        taste_b = np.array([[50.0, 50.0]])  # unused, both drivers on A
        days = [(2, 0, 0, 0, 10.0, 20.0)]
        ((_, (mean_perceived,), _),) = day_statistics(_perceived(routes, taste_a, taste_b, days), [2], days)
        assert mean_perceived == pytest.approx(10.0)

    def test_fleet_weighted_mean(self):
        routes = np.zeros((1, 0), dtype=np.int8)
        days = [(0, 0, 60, 40, 10.0, 20.0)]
        ((_, _, mean_cav),) = day_statistics(_perceived(routes, np.zeros((1, 0)), np.zeros((1, 0)), days), [0], days)
        assert mean_cav == pytest.approx(14.0)

    def test_empty_groups_are_absent(self):
        routes = np.zeros((1, 0), dtype=np.int8)
        days = [(0, 0, 0, 0, 10.0, 20.0)]
        ((mean_hdv, (mean_perceived,), mean_cav),) = day_statistics(
            _perceived(routes, np.zeros((1, 0)), np.zeros((1, 0)), days), [0], days
        )
        assert mean_hdv is None and mean_perceived is None and mean_cav is None

    def test_rows_and_survivor_counts_each_equal_their_own_day(self):
        rng = np.random.default_rng(4)
        routes = rng.random((3, 9)) < 0.5
        taste_a, taste_b = rng.normal(size=(2, 3, 9))
        pairs = [(10.0, 20.0), (11.5, 19.25), (7.0, 30.0)]
        days = [(9 - int(np.count_nonzero(r)), int(np.count_nonzero(r)), 2, 1, *p) for r, p in zip(routes, pairs)]
        stats = day_statistics(_perceived(routes, taste_a, taste_b, days), [9, 4, 0, 12], days)
        for row, (mean_hdv, perceived, mean_cav) in enumerate(stats):
            t_a, t_b = pairs[row]
            one = slice(row, row + 1)
            alone = day_statistics(_perceived(routes[one], taste_a[one], taste_b[one], days[one]), [9], days[one])
            assert (mean_hdv, perceived[0], mean_cav) == (alone[0][0], alone[0][1][0], alone[0][2])
            # Fewer survivors than drivers average the first ones; none, or more than there are, is absent.
            first = np.where(routes[row, :4], t_b + taste_b[row, :4], t_a + taste_a[row, :4])
            assert perceived[1:] == [float(np.add.reduce(first)) / 4, None, None]


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


class TestWindowAverage:
    def test_constant_series(self):
        records = [make_record(d, 500, 500, mean_hdv=12.5) for d in range(1, 401)]
        assert compute_window_averages(make_log(records)).tau_b == 12.5

    def test_mixed_series(self):
        records = [
            make_record(d, 500, 500, mean_hdv=10.0 if d <= 150 else 20.0) for d in range(1, 401)
        ]
        assert compute_window_averages(make_log(records)).tau_b == 15.0

    def test_window_uses_exactly_the_named_days(self):
        records = [make_record(d, 500, 500, mean_hdv=float(d)) for d in range(1, 401)]
        assert compute_window_averages(make_log(records)).tau == pytest.approx(350.5)

    def test_absent_day_makes_window_absent(self):
        records = [
            make_record(d, 500, 500, mean_hdv=None if d == 350 else 1.0) for d in range(1, 401)
        ]
        assert compute_window_averages(make_log(records)).tau is None

    def test_empty_window_is_absent(self):
        records = [make_record(d, 500, 500, mean_hdv=1.0) for d in range(1, 11)]
        averages = compute_window_averages(make_log(records, (5, 0, 5, 0)))
        assert averages.tau_b is None and averages.tau is None
        assert averages.opt_gap is None and averages.equity_gap is None

    def test_range_outside_log_rejected(self):
        records = [make_record(d, 500, 500, mean_hdv=1.0) for d in range(1, 11)]
        with pytest.raises(ValueError, match="outside"):
            compute_window_averages(make_log(records, (5, 6, 0, 0)))

    def test_route_a_share(self):
        records = [make_record(d, 600, 400, mean_hdv=1.0) for d in range(1, 11)]
        log = make_log(records, (0, 0, 0, 10))
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

    def test_cached_calls_agree(self):
        assert system_optimum(NET, 777) == system_optimum(NET, 777)


class TestOptimalityAndEquity:
    def test_day_at_exact_optimum_has_zero_gap(self):
        best, _ = system_optimum(NET, 1000)
        records = [make_record(1, best, 1000 - best)]
        gap = compute_window_averages(make_log(records, (0, 0, 0, 1))).opt_gap
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_equal_route_times_have_zero_spread(self):
        route = RouteParams(free_flow_time=10.0, capacity=400.0, exponent=2.0)
        twin = TwoRouteNetwork(route_a=route, route_b=route)
        t = bpr_travel_time(route, 200)
        record = DayRecord(1, 200, 200, 0, 0, t, t, None, None, None)
        spread = compute_window_averages(make_log([record], (0, 0, 0, 1), twin)).equity_gap
        assert spread == 0.0

    def test_hand_evaluated_spread(self):
        # q_a = q_b = 500, times 10 and 20.859375: spread is half the gap
        record = make_record(1, 500, 500)
        assert record.t_b == 20.859375
        spread = compute_window_averages(make_log([record], (0, 0, 0, 1))).equity_gap
        assert spread == pytest.approx(5.4296875)

    def test_gap_never_negative(self):
        rng = np.random.default_rng(8)
        records = [
            make_record(day, int(rng.integers(0, 1200)), int(rng.integers(1, 1200)))
            for day in range(1, 51)
        ]
        gap = compute_window_averages(make_log(records, (0, 0, 0, 50))).opt_gap
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


def reference_window_averages(log):
    """Every WindowAverages field written out from its own definition."""
    p1, p2, p3, p4 = log.config.phase_lengths
    baseline = log.records[p1 : p1 + p2]
    evaluation = log.records[p1 + p2 + p3 : p1 + p2 + p3 + p4]

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
    """Logs with zero-length phases, empty groups and absent days.

    A log may run past its phases; each day carries some flow, because
    the realized mean time of a day without traffic is undefined.
    """
    phases = tuple(draw(st.lists(st.integers(0, 5), min_size=4, max_size=4)))
    n_days = sum(phases) + draw(st.integers(0, 2))
    empty = draw(st.sampled_from(["none", "hdv", "cav"]))
    group = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 40), st.integers(0, 40)))
    time = st.floats(0.0, 1e3, allow_nan=False)
    mean = st.floats(-1e3, 1e3, allow_nan=False)
    if draw(st.booleans()):
        mean = st.one_of(st.none(), mean)
    records = []
    for day in range(1, n_days + 1):
        q_hdv = (0, 0) if empty == "hdv" else draw(group)
        q_cav = (0, 0) if empty == "cav" else draw(group)
        if sum(q_hdv) + sum(q_cav) == 0:
            q_hdv, q_cav = ((1, 0), q_cav) if empty == "cav" else (q_hdv, (0, 1))
        records.append(DayRecord(
            day, q_hdv[0], q_hdv[1], q_cav[0], q_cav[1], draw(time), draw(time),
            draw(mean), draw(mean), draw(mean),
        ))
    return make_log(records, phases)


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


class TestSequentialSum:
    """Means sum left to right, as Python before 3.12 does, so summaries are byte-stable on 3.12."""

    def test_cancellation_is_not_compensated(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum (Python 3.12) gives 1.0.
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
        assert _mean([1e16, 1.0, -1e16]) == 0.0

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
