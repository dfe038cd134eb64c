"""The names the benchmark in ``bench/`` looks up in bottlesim must exist.

``bench/spans.py`` only warns when an attribute it wraps is missing, so a
renamed or deleted function would silently drop its per-layer metric.  The
paper's configs in ``configs/`` must describe the runs the benchmark times.
"""

import importlib.util
import json
from pathlib import Path

import bottlesim

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in bottlesim.__all__ if not hasattr(bottlesim, name)]
    assert missing == []


def test_every_wrapped_attribute_exists():
    spans = load_bench("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.WRAPPED
        if not hasattr(getattr(bottlesim, module), attr)
    ]
    assert missing == []
    # The tracer also patches these two directly.
    assert hasattr(bottlesim.engine, "SimulationState")
    assert hasattr(bottlesim.expcli, "ProcessPoolExecutor")


def read_config(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def test_paper_configs_are_the_benchmark_grids_apart_from_the_seeds():
    workloads = load_bench("workloads")
    names = ("paper_strategy_share", "paper_beta", "paper_congestion")
    grids = [{key: value for key, value in read_config(name).items() if key != "seeds"} for name in names]
    assert grids == list(workloads.PAPER_GRIDS)
    # The protocol's seeds are the benchmark's at its default seed, whose t-statistic the README quotes.
    seeds = list(range(workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + workloads.PROTOCOL_SEEDS))
    assert read_config("seed_protocol") == {"strategy": "Selfish", "cav_share": workloads.PROTOCOL_SHARE, "seeds": seeds}
