"""Experiment harness: JSON configs, sweep grids, CSV output, CLI.

A config file describes a grid of scenario runs: the axes ``strategy``,
``cav_share``, ``beta`` and ``congestion`` accept a scalar or a list,
and the cartesian product of the axes with ``seeds`` defines the run
set.  Every run writes one per-day CSV, and the whole experiment writes
a single ``summary.csv`` with one row per run, sorted by
(strategy, cav_share, beta, congestion, seed) regardless of execution
order.  Reruns of the same config reproduce the output files byte for
byte; ``summary.csv`` is written last and marks a complete experiment.

Absent statistics (empty group) are written as the literal token NA.
The environment variable BOTTLESIM_SEED, when set, overrides the
configured seeds with that single seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .engine import DayRecord, HumanParams, ScenarioConfig, SimulationLog, run_scenario
from .fleet import STRATEGY_NAMES
from .metrics import (
    RatioReport,
    TTestResult,
    WindowAverages,
    compute_window_averages,
    paired_t_test,
    ratio_report,
)
from .network import RouteParams, TwoRouteNetwork

DAILY_HEADER = (
    "day,q_hdv_a,q_hdv_b,q_cav_a,q_cav_b,t_a,t_b,"
    "mean_hdv_time,mean_perceived_hdv_time,mean_cav_time"
)
SUMMARY_HEADER = (
    "strategy,cav_share,beta,congestion,seed,tau_b,tau,u_b,u,rho,"
    "frac_a_hdv,frac_a_cav,opt_gap,equity_gap,cav_advantage,"
    "effect_change_to_cav,effect_remaining_hdv,perceived_effect_remaining_hdv"
)

WINDOW_METRICS = tuple(f.name for f in dataclasses.fields(WindowAverages))

_KNOWN_KEYS = {
    "schema", "strategy", "cav_share", "beta", "congestion", "alpha", "epsilon",
    "seeds", "seed", "phase_lengths", "base_population", "network", "out_dir",
}


class ConfigError(ValueError):
    """Config validation failure, carrying the offending field name."""

    def __init__(self, fieldname: str, message: str) -> None:
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


@dataclass
class ExperimentSpec:
    """A validated grid of scenario runs plus the output location."""

    strategies: tuple[str, ...]
    cav_shares: tuple[float, ...]
    betas: tuple[float, ...]
    congestions: tuple[float, ...]
    seeds: tuple[int, ...]
    learning_rate: float
    explore_rate: float
    phase_lengths: tuple[int, int, int, int]
    base_population: int
    network: TwoRouteNetwork
    out_dir: Path

    def run_points(self) -> list[ScenarioConfig]:
        """One config per run of the grid, in canonical order."""
        configs = []
        grid = itertools.product(self.strategies, self.cav_shares, self.betas, self.congestions)
        for strategy, share, beta, congestion in grid:
            for seed in self.seeds:
                configs.append(
                    ScenarioConfig(
                        human_params=HumanParams(
                            learning_rate=self.learning_rate,
                            explore_rate=self.explore_rate,
                            taste_spread=beta,
                        ),
                        network=self.network,
                        congestion=congestion,
                        cav_share=share,
                        strategy=strategy,
                        phase_lengths=self.phase_lengths,
                        base_population=self.base_population,
                        seed=seed,
                    )
                )
        configs.sort(key=_canonical_key)
        return configs


def _canonical_key(config: ScenarioConfig):
    return (
        config.strategy,
        config.cav_share,
        config.human_params.taste_spread,
        config.congestion,
        config.seed,
    )


def _network_as_dict(network: TwoRouteNetwork) -> dict:
    def route(params: RouteParams) -> dict:
        return {
            "free_flow_time": params.free_flow_time,
            "capacity": params.capacity,
            "exponent": params.exponent,
        }

    return {"route_a": route(network.route_a), "route_b": route(network.route_b)}


def _point_descriptor(config: ScenarioConfig) -> dict:
    """Every knob of a config except the seed, as plain JSON data."""
    return {
        "strategy": config.strategy,
        "cav_share": config.cav_share,
        "beta": config.human_params.taste_spread,
        "congestion": config.congestion,
        "alpha": config.human_params.learning_rate,
        "epsilon": config.human_params.explore_rate,
        "phase_lengths": list(config.phase_lengths),
        "base_population": config.base_population,
        "network": _network_as_dict(config.network),
    }


def _point_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(_point_descriptor(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]


def _as_number(fieldname: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fieldname, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf  # an int too large for a float; the validators reject it


def _as_axis(fieldname: str, value) -> tuple[float, ...]:
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(fieldname, "axis list must not be empty")
    return tuple(_as_number(fieldname, v) for v in values)


def _as_int(fieldname: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(fieldname, f"expected an integer, got {value!r}")
    return value


def _checked(fieldname: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, reporting a ValueError as a ConfigError on ``fieldname``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(fieldname, str(exc)) from None


def _canon_strategy(value) -> str:
    if isinstance(value, str):
        for name in STRATEGY_NAMES:
            if value.lower() == name.lower():
                return name
    raise ConfigError(
        "strategy", f"expected one of {', '.join(STRATEGY_NAMES)}, got {value!r}"
    )


def _parse_network(doc) -> TwoRouteNetwork:
    if not isinstance(doc, dict) or set(doc) != {"route_a", "route_b"}:
        raise ConfigError("network", "expected an object with route_a and route_b")
    # Each field is checked alone on a valid route, so an error names that field.
    valid = TwoRouteNetwork.default().route_a
    routes = {}
    for key in ("route_a", "route_b"):
        sub = doc[key]
        expected = ("free_flow_time", "capacity", "exponent")
        if not isinstance(sub, dict) or set(sub) != set(expected):
            raise ConfigError(
                f"network.{key}", f"expected an object with {', '.join(sorted(expected))}"
            )
        values = {name: _as_number(f"network.{key}.{name}", sub[name]) for name in expected}
        for name, value in values.items():
            _checked(f"network.{key}.{name}", dataclasses.replace, valid, **{name: value})
        routes[key] = RouteParams(**values)
    return TwoRouteNetwork(route_a=routes["route_a"], route_b=routes["route_b"])


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and fully validate a JSON experiment config.

    Omitted fields take the defaults: Selfish strategy, share 0.0,
    beta 5.0, congestion 1.0, alpha 0.2, epsilon 0.1, phases
    100/100/100/100, population 1000, seed 0, baseline network.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"malformed JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    for key in doc:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown field")
    if _as_int("schema", doc.get("schema", 1)) != 1:
        raise ConfigError("schema", f"unsupported schema version {doc['schema']!r}")

    raw_strategies = doc.get("strategy", "Selfish")
    if not isinstance(raw_strategies, list):
        raw_strategies = [raw_strategies]
    if not raw_strategies:
        raise ConfigError("strategy", "axis list must not be empty")
    strategies = tuple(_canon_strategy(s) for s in raw_strategies)

    base_population = _as_int("base_population", doc.get("base_population", 1000))
    _checked("base_population", ScenarioConfig, base_population=base_population)

    # Every value is built through the validator of the dataclass that holds it.
    shares = _as_axis("cav_share", doc.get("cav_share", 0.0))
    for share in shares:
        _checked("cav_share", ScenarioConfig, cav_share=share)
    betas = _as_axis("beta", doc.get("beta", 5.0))
    for beta in betas:
        _checked("beta", HumanParams, taste_spread=beta)
    congestions = _as_axis("congestion", doc.get("congestion", 1.0))
    for congestion in congestions:
        _checked("congestion", ScenarioConfig, congestion=congestion, base_population=base_population)

    if "seed" in doc and "seeds" in doc:
        raise ConfigError("seeds", "give either seed or seeds, not both")
    raw_seeds = doc.get("seeds", [doc.get("seed", 0)])
    if not isinstance(raw_seeds, list) or not raw_seeds:
        raise ConfigError("seeds", "expected a nonempty list of integers")
    seeds = tuple(_as_int("seeds", s) for s in raw_seeds)
    env_seed = os.environ.get("BOTTLESIM_SEED")
    if env_seed is not None:
        try:
            seeds = (int(env_seed),)
        except ValueError:
            raise ConfigError("BOTTLESIM_SEED", f"expected an integer, got {env_seed!r}") from None

    alpha = _as_number("alpha", doc.get("alpha", 0.2))
    _checked("alpha", HumanParams, learning_rate=alpha)
    epsilon = _as_number("epsilon", doc.get("epsilon", 0.1))
    _checked("epsilon", HumanParams, explore_rate=epsilon)

    raw_phases = doc.get("phase_lengths", [100, 100, 100, 100])
    if not isinstance(raw_phases, list):
        raise ConfigError("phase_lengths", f"expected four integers, got {raw_phases!r}")
    phases = tuple(_as_int("phase_lengths", p) for p in raw_phases)
    _checked("phase_lengths", ScenarioConfig, phase_lengths=phases)

    if "network" in doc:
        network = _parse_network(doc["network"])
    else:
        network = TwoRouteNetwork.default()

    spec = ExperimentSpec(
        strategies=strategies,
        cav_shares=shares,
        betas=betas,
        congestions=congestions,
        seeds=seeds,
        learning_rate=alpha,
        explore_rate=epsilon,
        phase_lengths=phases,  # type: ignore[arg-type]
        base_population=base_population,
        network=network,
        out_dir=Path(doc.get("out_dir", "results")),
    )
    _checked("config", spec.run_points)  # surfaces what no single field shows (seed range)
    return spec


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _daily_rows(records: list[DayRecord]) -> list[str]:
    return [
        ",".join(
            _fmt(v)
            for v in (
                rec.day, rec.q_hdv_a, rec.q_hdv_b, rec.q_cav_a, rec.q_cav_b,
                rec.t_a, rec.t_b, rec.mean_hdv_time, rec.mean_perceived_hdv_time,
                rec.mean_cav_time,
            )
        )
        for rec in records
    ]


def _summary_row(config: ScenarioConfig, averages: WindowAverages, ratios: RatioReport) -> dict:
    return {
        "strategy": config.strategy,
        "cav_share": config.cav_share,
        "beta": config.human_params.taste_spread,
        "congestion": config.congestion,
        "seed": config.seed,
        "tau_b": averages.tau_b,
        "tau": averages.tau,
        "u_b": averages.u_b,
        "u": averages.u,
        "rho": averages.rho,
        "frac_a_hdv": averages.frac_a_hdv,
        "frac_a_cav": averages.frac_a_cav,
        "opt_gap": averages.opt_gap,
        "equity_gap": averages.equity_gap,
        "cav_advantage": ratios.cav_advantage,
        "effect_change_to_cav": ratios.effect_change_to_cav,
        "effect_remaining_hdv": ratios.effect_remaining_hdv,
        "perceived_effect_remaining_hdv": ratios.perceived_effect_remaining_hdv,
    }


def _execute_run(config: ScenarioConfig) -> tuple[SimulationLog, WindowAverages, RatioReport]:
    log = run_scenario(config)
    averages = compute_window_averages(log)
    return log, averages, ratio_report(averages)


def write_outputs(
    results: list[tuple[SimulationLog, WindowAverages, RatioReport]],
    out_dir: str | Path,
) -> list[dict]:
    """Write one daily CSV per run plus a consolidated summary.csv.

    Files are UTF-8 with LF line endings and a leading header row; each
    daily file is named by the hash of its config point and the seed.
    Rows are sorted by (strategy, cav_share, beta, congestion, seed), so
    the output is independent of the runs' completion order, and the
    summary is written last: its presence marks a complete experiment.
    Returns the summary rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    summary_path.unlink(missing_ok=True)
    for stale in out_dir.glob("daily_*.csv"):
        stale.unlink()

    results = sorted(results, key=lambda item: _canonical_key(item[0].config))
    summary_rows = []
    for log, averages, ratios in results:
        config = log.config
        daily_path = out_dir / f"daily_{_point_digest(config)}_{config.seed}.csv"
        _write_csv(daily_path, DAILY_HEADER, _daily_rows(log.records))
        summary_rows.append(_summary_row(config, averages, ratios))

    lines = [
        ",".join(_fmt(row[col]) for col in SUMMARY_HEADER.split(","))
        for row in summary_rows
    ]
    _write_csv(summary_path, SUMMARY_HEADER, lines)
    return summary_rows


def run_experiment(spec: ExperimentSpec, jobs: int | None = None) -> list[dict]:
    """Execute every run of the spec and write its output files.

    Independent runs execute concurrently when jobs > 1 (default: the
    machine's CPU count); outputs do not depend on the execution order.
    Returns the summary rows.
    """
    configs = spec.run_points()
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            results = list(pool.map(_execute_run, configs))
    else:
        results = [_execute_run(config) for config in configs]
    return write_outputs(results, spec.out_dir)


def replicate_and_test(
    config_a: ScenarioConfig,
    metric_a: str,
    config_b: ScenarioConfig,
    metric_b: str,
    seeds: list[int] | tuple[int, ...],
) -> TTestResult:
    """Paired t-test of two windowed metrics across seed-matched runs.

    Each seed produces one paired observation: ``metric_a`` of
    ``config_a`` against ``metric_b`` of ``config_b`` at that seed.
    The two configs may be equal (the runs are then shared), which
    compares two statistics of the same scenario, e.g. the baseline
    window against the evaluation window.
    """
    for metric in (metric_a, metric_b):
        if metric not in WINDOW_METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {WINDOW_METRICS}")
    if not seeds:
        raise ValueError("need at least one seed")
    cache: dict[ScenarioConfig, WindowAverages] = {}

    def averages_for(config: ScenarioConfig, seed: int) -> WindowAverages:
        seeded = dataclasses.replace(config, seed=seed)
        if seeded not in cache:
            cache[seeded] = compute_window_averages(run_scenario(seeded))
        return cache[seeded]

    values_a = []
    values_b = []
    for seed in seeds:
        va = getattr(averages_for(config_a, seed), metric_a)
        vb = getattr(averages_for(config_b, seed), metric_b)
        if va is None or vb is None:
            raise ValueError(f"metric absent at seed {seed}; cannot pair")
        values_a.append(va)
        values_b.append(vb)
    return paired_t_test(values_a, values_b)


def _read_summary(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != SUMMARY_HEADER.split(","):
                raise ConfigError("summary", f"{path} does not look like a summary.csv")
            return list(reader)
    except OSError as exc:
        raise ConfigError("summary", f"cannot read {path}: {exc}") from None


def _column_values(rows: list[dict], column: str) -> list[float]:
    if column not in SUMMARY_HEADER.split(","):
        raise ConfigError("column", f"unknown summary column {column!r}")
    values = []
    for i, row in enumerate(rows, start=2):
        raw = row[column]
        if raw == "NA":
            raise ConfigError("column", f"{column} is NA on line {i}; cannot pair")
        values.append(float(raw))
    return values


def _ttest_metric(rows: list[dict], metric: str) -> TTestResult:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["strategy"], row["cav_share"], row["beta"], row["congestion"])
        groups.setdefault(key, []).append(row)
    if len(groups) != 2:
        raise ConfigError(
            "metric", f"summary must contain exactly two config points, found {len(groups)}"
        )
    (_, rows_a), (_, rows_b) = sorted(groups.items())
    seeds_a = sorted(int(r["seed"]) for r in rows_a)
    seeds_b = sorted(int(r["seed"]) for r in rows_b)
    if seeds_a != seeds_b:
        raise ConfigError("metric", "the two config points carry different seed sets")
    rows_a.sort(key=lambda r: int(r["seed"]))
    rows_b.sort(key=lambda r: int(r["seed"]))
    return paired_t_test(_column_values(rows_a, metric), _column_values(rows_b, metric))


def _print_ttest(result: TTestResult) -> None:
    if result.degenerate:
        print(
            f"degenerate: zero variance of paired differences "
            f"(df={result.degrees_of_freedom})"
        )
    else:
        flag = "true" if result.significant_at_0_001 else "false"
        print(
            f"t={result.t_statistic:.6f} df={result.degrees_of_freedom} "
            f"significant_at_0.001={flag}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottlesim",
        description="Two-route bottleneck day-to-day route choice experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single-run config")
    sweep_p = sub.add_parser("sweep", help="execute a full sweep grid")
    for p in (run_p, sweep_p):
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--jobs", type=int, default=None, help="parallel runs (default: CPU count)")

    ttest_p = sub.add_parser("ttest", help="paired t-test over a summary.csv")
    ttest_p.add_argument("summary", help="path to a summary.csv")
    ttest_p.add_argument("--metric", help="summary column compared across exactly two config points")
    ttest_p.add_argument("--pair", help="two summary columns colA,colB paired within runs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            spec = load_config(args.config)
            if args.out is not None:
                spec.out_dir = Path(args.out)
            n_runs = len(spec.run_points())
            if args.command == "run" and n_runs > 1:
                raise ConfigError(
                    "config", f"defines {n_runs} runs; use the sweep command for grids"
                )
            run_experiment(spec, jobs=args.jobs)
            print(f"wrote {n_runs} run(s) to {spec.out_dir}")
        else:
            rows = _read_summary(Path(args.summary))
            if (args.metric is None) == (args.pair is None):
                raise ConfigError("ttest", "give exactly one of --metric or --pair")
            if args.pair is not None:
                parts = args.pair.split(",")
                if len(parts) != 2:
                    raise ConfigError("pair", f"expected colA,colB, got {args.pair!r}")
                col_a, col_b = (part.strip() for part in parts)
                result = paired_t_test(_column_values(rows, col_a), _column_values(rows, col_b))
            else:
                result = _ttest_metric(rows, args.metric)
            _print_ttest(result)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
