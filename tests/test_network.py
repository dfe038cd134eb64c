import math
import warnings

import numpy as np
import pytest

from bottlesim import RouteParams, TwoRouteNetwork, bpr_travel_time, network_travel_times
from bottlesim.network import quoted


@pytest.fixture
def route_a():
    return RouteParams(free_flow_time=5.0, capacity=500.0, exponent=2.0)


class TestRouteParams:
    def test_rejects_nonpositive_free_flow_time(self):
        with pytest.raises(ValueError, match="free_flow_time"):
            RouteParams(free_flow_time=0.0, capacity=500.0, exponent=2.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RouteParams(free_flow_time=5.0, capacity=-1.0, exponent=2.0)

    def test_rejects_exponent_not_above_one(self):
        with pytest.raises(ValueError, match="exponent"):
            RouteParams(free_flow_time=5.0, capacity=500.0, exponent=1.0)

    # 10**400 is an int too large for a float: a ValueError, not an OverflowError.
    # A bool is not a number, though Python counts it as an int.
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, True, False])
    @pytest.mark.parametrize("field", ["free_flow_time", "capacity", "exponent"])
    def test_rejects_non_finite_values(self, field, value):
        kwargs = dict(free_flow_time=5.0, capacity=500.0, exponent=2.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            RouteParams(**kwargs)

    @pytest.mark.parametrize("field", ["route_a", "route_b"])
    def test_network_rejects_a_route_that_is_not_route_params(self, field):
        routes = vars(TwoRouteNetwork.default()) | {field: (5.0, 500.0, 2.0)}
        with pytest.raises(ValueError, match=field):
            TwoRouteNetwork(**routes)

    def test_default_network(self):
        net = TwoRouteNetwork.default()
        assert net.route_a == RouteParams(5.0, 500.0, 2.0)
        assert net.route_b == RouteParams(15.0, 800.0, 2.0)


def _nested(depth):
    """``None`` inside ``depth`` one-item lists."""
    value = None
    for _ in range(depth):
        value = [value]
    return value


class TestQuoted:
    @pytest.mark.parametrize("value", [0.2, -0.0, 2**64, "0.2", "Selfishh", [1, 2, 3], (100, 100, 100), None, True])
    def test_an_ordinary_value_prints_as_its_repr(self, value):
        assert quoted(value) == repr(value)

    @pytest.mark.parametrize("value, text", [
        (10**5000, "<int too long to print>"),
        (-(10**5000), "<int too long to print>"),
        ([1, 10**5000], "<list too long to print>"),
        (_nested(900), "[[[[[[[...]]]]]]]"),
        ("x" * 100_000, "'" + "x" * 12 + "..." + "x" * 13 + "'"),
        (list(range(100_000)), "[0, 1, 2, 3, 4, 5, ...]"),
    ], ids=["huge_int", "huge_negative_int", "huge_int_in_a_list", "nested_900_deep", "long_string", "long_list"])
    def test_a_value_too_large_to_print_prints_short(self, value, text):
        assert quoted(value) == text

    def test_no_quote_is_longer_than_200_characters(self):
        wide = [[[[[list(range(10**6, 10**6 + 6))] * 6] * 6] * 6] * 6] * 6
        text = quoted(wide)
        assert len(text) == 200 and text.startswith("[[[[[[1000000, 1000001") and text.endswith("...")
        assert quoted(10**199) == str(10**199) and quoted(10**200) == str(10**200)[:197] + "..."


class TestBprTravelTime:
    def test_zero_flow_is_free_flow_time(self, route_a):
        assert bpr_travel_time(route_a, 0) == 5.0

    def test_flow_at_capacity_short_route(self, route_a):
        # 5 * (1 + (500/500)^2) = 10
        assert bpr_travel_time(route_a, 500) == 10.0

    def test_half_capacity_long_route(self):
        # 15 * (1 + (400/800)^2) = 15 * 1.25 = 18.75
        route_b = RouteParams(15.0, 800.0, 2.0)
        assert bpr_travel_time(route_b, 400) == 18.75

    @pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0, 7.0])
    def test_capacity_doubles_free_flow_time_for_any_exponent(self, exponent):
        params = RouteParams(free_flow_time=15.0, capacity=800.0, exponent=exponent)
        assert bpr_travel_time(params, 800) == 30.0

    def test_rejects_negative_flow(self, route_a):
        with pytest.raises(ValueError, match="nonnegative"):
            bpr_travel_time(route_a, -1)

    def test_overflowing_scalar_gives_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bpr_travel_time(RouteParams(5.0, 500.0, 400.0), 5000) == math.inf

    def test_strictly_increasing(self, route_a):
        rng = np.random.default_rng(42)
        for _ in range(200):
            f1, f2 = sorted(rng.uniform(0.0, 2000.0, size=2))
            if f1 == f2:
                continue
            assert bpr_travel_time(route_a, f1) < bpr_travel_time(route_a, f2)

    def test_relative_delay_depends_only_on_saturation_and_exponent(self):
        small = RouteParams(free_flow_time=5.0, capacity=100.0, exponent=2.0)
        large = RouteParams(free_flow_time=17.0, capacity=900.0, exponent=2.0)
        for saturation in (0.0, 0.3, 1.0, 2.5):
            ratio_small = bpr_travel_time(small, saturation * small.capacity) / small.free_flow_time
            ratio_large = bpr_travel_time(large, saturation * large.capacity) / large.free_flow_time
            assert ratio_small == pytest.approx(ratio_large, rel=1e-12)

    def test_accepts_real_valued_and_array_flows(self, route_a):
        assert bpr_travel_time(route_a, 250.5) == pytest.approx(
            5.0 * (1.0 + (250.5 / 500.0) ** 2)
        )
        flows = np.array([0.0, 500.0])
        np.testing.assert_allclose(bpr_travel_time(route_a, flows), [5.0, 10.0])

    def test_evaluates_beyond_capacity(self, route_a):
        # no cap: demand above capacity just delays steeply
        assert bpr_travel_time(route_a, 1300) == 5.0 * (1.0 + 2.6**2)


class TestNetworkTravelTimes:
    def test_free_flow_pair(self):
        assert network_travel_times(TwoRouteNetwork.default(), 0, 0) == (5.0, 15.0)

    def test_even_split(self):
        t_a, t_b = network_travel_times(TwoRouteNetwork.default(), 500, 500)
        assert t_a == 10.0
        assert t_b == 20.859375  # 15 * (1 + (500/800)^2)

    def test_everything_on_a(self):
        assert network_travel_times(TwoRouteNetwork.default(), 1000, 0) == (25.0, 15.0)

    def test_propagates_negative_flow_rejection(self):
        with pytest.raises(ValueError):
            network_travel_times(TwoRouteNetwork.default(), -5, 10)


def table(params, flows):
    """Each route's time at ``flows`` as one float64 array: the entries of a state's BPR table."""
    x = np.asarray(flows, dtype=np.float64)
    return network_travel_times(TwoRouteNetwork(params, params), x, x)[0].tolist()


class TestScalarBprPath:
    """A scalar flow's time has the bits of its entry in the BPR table.

    numpy's vectorized power differs from its 0-d one in the last bit on
    some flows: with numpy 2.4.6 on an AVX-512 CPU, 136 (route A) and 144
    (route B) of the 200,001 default-route flows 0..200000 differ, the
    first at 2,268 and 1,879.  So ``bpr_travel_time`` evaluates a scalar
    as a one-element array, and a config check or library caller gets the
    time that a state's table (``SimulationState.curves``), the fleet's
    candidates and each day's times read (``tests/test_engine.py::TestStateMemos``).
    """

    @pytest.mark.parametrize("route", ["route_a", "route_b"])
    def test_every_integer_flow_on_the_default_routes(self, route):
        params = getattr(TwoRouteNetwork.default(), route)
        times = table(params, np.arange(200_001.0))
        mismatches = [q for q, t in enumerate(times) if bpr_travel_time(params, q) != t]
        assert mismatches == []

    @pytest.mark.parametrize("exponent", [1.5, 2.5, 4.0])
    def test_sampled_flows_at_other_exponents(self, exponent):
        rng = np.random.default_rng(int(exponent * 10))
        ints = [int(q) for q in rng.integers(0, 5000, size=5000)]
        floats = [float(q) for q in rng.uniform(0.0, 5000.0, size=5000)]
        for t0, capacity in ((5.0, 500.0), (15.0, 800.0)):
            params = RouteParams(free_flow_time=t0, capacity=capacity, exponent=exponent)
            for q, t in zip(ints + floats, table(params, ints + floats)):
                assert bpr_travel_time(params, q) == t, q

    @pytest.mark.parametrize("flow", [-1, -0.5])
    def test_negative_scalars_still_rejected(self, route_a, flow):
        with pytest.raises(ValueError, match="nonnegative"):
            bpr_travel_time(route_a, flow)

    @pytest.mark.parametrize("flow", [np.float64(317.25), np.int64(317), np.asarray(317.25)])
    def test_numpy_scalar_flows_still_work(self, route_a, flow):
        result = bpr_travel_time(route_a, flow)
        assert type(result) is float
        assert [result] == table(route_a, [flow])

    def test_python_scalar_flows_return_floats(self, route_a):
        assert type(bpr_travel_time(route_a, 317)) is float
        assert type(bpr_travel_time(route_a, 317.25)) is float

    def test_overflowing_scalar_gives_inf_like_the_array_path(self):
        steep = RouteParams(free_flow_time=5.0, capacity=500.0, exponent=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bpr_travel_time(steep, 5000) == np.inf
            assert bpr_travel_time(steep, 5000.0) == np.inf
            assert bpr_travel_time(steep, np.array([5000.0, 500.0])).tolist() == [np.inf, 10.0]

    def test_int_beyond_the_float_range_raises(self, route_a):
        # ScenarioConfig bounds the population by MAX_POPULATION first, so no run passes one.
        with pytest.raises(OverflowError):
            bpr_travel_time(route_a, 10**400)
