"""The names the benchmark in ``bench/`` looks up in bottlesim must exist.

``bench/spans.py`` only warns when an attribute it wraps is missing, so a
renamed or deleted function would silently drop its per-layer metric.
"""

import importlib.util
from pathlib import Path

import bottlesim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in bottlesim.__all__ if not hasattr(bottlesim, name)]
    assert missing == []


def test_every_wrapped_attribute_exists():
    spans = load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.WRAPPED
        if not hasattr(getattr(bottlesim, module), attr)
    ]
    assert missing == []
    # The tracer also patches these two directly.
    assert hasattr(bottlesim.engine, "SimulationState")
    assert hasattr(bottlesim.expcli, "ProcessPoolExecutor")


def test_system_optimum_cache_is_visible():
    fn = bottlesim.metrics.system_optimum
    assert callable(fn.cache_clear) and callable(fn.cache_info)
