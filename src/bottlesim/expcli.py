"""Experiment harness: JSON configs, sweep grids, CSV output, CLI.

A config file describes a grid of scenario runs: the axes ``strategy``,
``cav_share``, ``beta`` and ``congestion`` accept a scalar or a list of
distinct values, and the cartesian product of the axes with the
distinct ``seeds`` defines the run set.  Every run writes one per-day
CSV, and the whole experiment writes a single ``summary.csv`` with one
row per run, sorted by (strategy, cav_share, beta, congestion, seed)
regardless of execution order.  Reruns of the same config reproduce the
output files byte for byte; ``summary.csv`` is written last and marks a
complete experiment.

Absent statistics (empty group) are written as the literal token NA.
The environment variable BOTTLESIM_SEED, when set, overrides the
configured seeds with that single seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .engine import (
    DayRecord,
    ScenarioConfig,
    SimulationLog,
    _is_int,
    prefix_key,
    run_branches,
    run_scenario,  # not called here; bench/spans.py wraps expcli.run_scenario
)
from .fleet import STRATEGY_NAMES
from .metrics import (
    RatioReport,
    TTestResult,
    WindowAverages,
    compute_window_averages,
    paired_t_test,
    ratio_report,
)
from .network import TwoRouteNetwork

if TYPE_CHECKING:
    import argparse

def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


# The columns that name a config point; _point_key gives their values.
POINT_COLUMNS = ("strategy", "cav_share", "beta", "congestion", "seed")
WINDOW_METRICS = _field_names(WindowAverages)
SUMMARY_COLUMNS = POINT_COLUMNS + WINDOW_METRICS + _field_names(RatioReport)
SUMMARY_HEADER = ",".join(SUMMARY_COLUMNS)
DAILY_HEADER = ",".join(_field_names(DayRecord))
_day_values = operator.attrgetter(*_field_names(DayRecord))


class ConfigError(ValueError):
    """Config validation failure, carrying the offending field name."""

    def __init__(self, fieldname: str, message: str) -> None:
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


@dataclass
class ExperimentSpec:
    """A validated grid of scenario runs plus the output location."""

    points: tuple[ScenarioConfig, ...]  # one per run, sorted by _point_key
    out_dir: Path

    def run_points(self) -> list[ScenarioConfig]:
        """One config per run of the grid, in canonical order."""
        return list(self.points)


def _checked(fieldname: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError or OverflowError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(fieldname, str(exc)) from None


# The parsers of JSON values: each takes (fieldname, value) and names the field in its error.


def _as_number(fieldname: str, value) -> float:
    """A JSON number as a float, as the point digests need: they tell 1 from 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fieldname, f"expected a number, got {value!r}")
    return _checked(fieldname, float, value)


def _as_int(fieldname: str, value) -> int:
    if not _is_int(value):
        raise ConfigError(fieldname, f"expected an integer, got {value!r}")
    return value


def _as_phases(fieldname: str, value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(fieldname, f"expected four integers, got {value!r}")
    return tuple(_as_int(fieldname, p) for p in value)


def _canon_strategy(fieldname: str, value) -> str:
    if isinstance(value, str):
        for name in STRATEGY_NAMES:
            if value.lower() == name.lower():
                return name
    raise ConfigError(fieldname, f"expected one of {', '.join(STRATEGY_NAMES)}, got {value!r}")


def _parse_network(fieldname: str, doc) -> TwoRouteNetwork:
    if not isinstance(doc, dict) or set(doc) != {"route_a", "route_b"}:
        raise ConfigError(fieldname, "expected an object with route_a and route_b")
    expected = ("free_flow_time", "capacity", "exponent")
    routes = {}
    for key in ("route_a", "route_b"):
        sub = doc[key]
        if not isinstance(sub, dict) or set(sub) != set(expected):
            raise ConfigError(
                f"{fieldname}.{key}", f"expected an object with {', '.join(sorted(expected))}"
            )
        # Each field is set on a route whose other fields are valid, so an error names it.
        route = TwoRouteNetwork.default().route_a
        for name in expected:
            subfield = f"{fieldname}.{key}.{name}"
            route = _checked(
                subfield, dataclasses.replace, route, **{name: _as_number(subfield, sub[name])}
            )
        routes[key] = route
    return TwoRouteNetwork(**routes)


# The config format: each JSON field's parser and the path of the ScenarioConfig
# attribute it sets.  An absent field keeps the ScenarioConfig default.
# Single-valued fields, in the order they are checked:
_FIELDS = {
    "base_population": (_as_int, ("base_population",)),
    "alpha": (_as_number, ("human_params", "learning_rate")),
    "epsilon": (_as_number, ("human_params", "explore_rate")),
    "phase_lengths": (_as_phases, ("phase_lengths",)),
    "network": (_parse_network, ("network",)),
}
# Sweep axes, in POINT_COLUMNS order; the parser reads one value of the axis.
_AXES = {
    "strategy": (_canon_strategy, ("strategy",)),
    "cav_share": (_as_number, ("cav_share",)),
    "beta": (_as_number, ("human_params", "taste_spread")),
    "congestion": (_as_number, ("congestion",)),
    "seeds": (_as_int, ("seed",)),
}


def _get(config: ScenarioConfig, path: tuple[str, ...]):
    return functools.reduce(getattr, path, config)


def _set(obj, path: tuple[str, ...], value):
    """``obj`` with the attribute at ``path`` replaced, its validators run on the way up."""
    name, *rest = path
    return dataclasses.replace(obj, **{name: _set(getattr(obj, name), rest, value) if rest else value})


def _point_key(config: ScenarioConfig) -> tuple:
    """The values of POINT_COLUMNS for ``config``; runs are sorted by it."""
    return tuple(_get(config, path) for _, path in _AXES.values())


def _point_digest(config: ScenarioConfig) -> str:
    """Hash of every config field but the seed, as JSON; it names the daily files."""
    knobs = {name: _get(config, path) for name, (_, path) in (*_FIELDS.items(), *_AXES.items())}
    del knobs["seeds"]
    canonical = json.dumps(knobs, sort_keys=True, default=dataclasses.asdict)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]


def _axis_values(fieldname: str, path: tuple[str, ...], base: ScenarioConfig, values: list) -> tuple:
    """``values``, each accepted at ``path`` on ``base`` and none repeated.

    A repeated value would run the same point twice.
    """
    for i, value in enumerate(values):
        _checked(fieldname, _set, base, path, value)
        if value in values[:i]:
            raise ConfigError(fieldname, f"value {value!r} repeats; axis values must be distinct")
    return tuple(values)


def _grid(base: ScenarioConfig, axes: dict[str, tuple]) -> tuple[ScenarioConfig, ...]:
    """Every combination of the given axes' values set on ``base``, sorted by _point_key."""
    points = [base]
    # Longest axis last: the fewest partial configs are built on the way.
    for name in sorted(axes, key=lambda name: len(axes[name])):
        path = _AXES[name][1]
        points = [_set(point, path, value) for point in points for value in axes[name]]
    return tuple(sorted(points, key=_point_key))


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and fully validate a JSON experiment config.

    An omitted field keeps the ``ScenarioConfig`` default; ``out_dir``
    defaults to ``results``.
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
    known = {*_FIELDS, *_AXES, "schema", "seed", "out_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    if _as_int("schema", doc.get("schema", 1)) != 1:
        raise ConfigError("schema", f"unsupported schema version {doc['schema']!r}")

    # Every value is set on one base config, so its dataclass validators check it.
    base = ScenarioConfig()
    for name, (parse, attr) in _FIELDS.items():
        if name in doc:
            base = _checked(name, _set, base, attr, parse(name, doc[name]))

    axes = {}
    for name, (parse, attr) in _AXES.items():
        raw = doc.get(name)
        if name == "seeds" and "seed" in doc:  # "seed" is the single-value form of "seeds"
            if "seeds" in doc:
                raise ConfigError("seeds", "give either seed or seeds, not both")
            raw = [doc["seed"]]
        elif name not in doc:
            continue
        if name == "seeds" and (not isinstance(raw, list) or not raw):
            raise ConfigError("seeds", "expected a nonempty list of integers")
        values = raw if isinstance(raw, list) else [raw]
        if not values:
            raise ConfigError(name, "axis list must not be empty")
        axes[name] = _axis_values(name, attr, base, [parse(name, value) for value in values])
    env_seed = os.environ.get("BOTTLESIM_SEED")
    if env_seed is not None:
        try:
            seeds = [int(env_seed)]
        except ValueError:
            raise ConfigError("BOTTLESIM_SEED", f"expected an integer, got {env_seed!r}") from None
        axes["seeds"] = _axis_values("BOTTLESIM_SEED", _AXES["seeds"][1], base, seeds)

    out_dir = doc.get("out_dir", "results")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir", f"expected a string, got {out_dir!r}")
    # Building the points surfaces what no single value shows.
    return ExperimentSpec(points=_checked("config", _grid, base, axes), out_dir=Path(out_dir))


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows, ""])


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _daily_rows(records: list[DayRecord]) -> list[str]:
    return [",".join(map(_fmt, _day_values(rec))) for rec in records]


def _summary_row(config: ScenarioConfig, averages: WindowAverages, ratios: RatioReport) -> dict:
    return {
        **dict(zip(POINT_COLUMNS, _point_key(config))),
        **dataclasses.asdict(averages),
        **dataclasses.asdict(ratios),
    }


def _point_label(config: ScenarioConfig) -> str:
    return " ".join(f"{column}={value}" for column, value in zip(POINT_COLUMNS, _point_key(config)))


def _check_finite(*stats) -> None:
    """Raise RuntimeError unless every field of the window ``stats`` is finite or absent."""
    for stat in stats:
        for name, value in vars(stat).items():
            if value is not None and not math.isfinite(value):
                raise RuntimeError(f"{name} is {value}")


def _check_finite_rows(rows: list[str]) -> None:
    """Raise RuntimeError if a formatted daily row holds a non-finite number.

    ``_fmt`` writes a non-finite float as inf, -inf or nan, and nothing
    else in a row as a lowercase letter but the e of an exponent, so this
    scans the text the run writes instead of every record field again.
    """
    for row in rows:
        if "inf" in row or "nan" in row:
            raise RuntimeError(f"non-finite value on day {row.split(',', 1)[0]}: {row}")


@contextlib.contextmanager
def _failing_point(config: ScenarioConfig):
    """Re-raise a failure of ``config``'s run as a RuntimeError naming its config point.

    The name survives a pool worker, where the traceback alone would not show it.
    """
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"run {_point_label(config)} failed: {exc}") from exc


def _checked_averages(log: SimulationLog) -> WindowAverages:
    """The window averages of ``log``, which must all be finite or absent."""
    averages = compute_window_averages(log)
    _check_finite(averages)
    return averages


Result = tuple[ScenarioConfig, str, WindowAverages, RatioReport]


def _run_group(configs: list[ScenarioConfig]) -> list[Result]:
    """Run configs that share their human-only days: (config, daily CSV, averages, ratios) each."""
    results = []
    logs = run_branches(configs)
    for config in configs:
        with _failing_point(config):
            log = next(logs)
            rows = _daily_rows(log.records)
            _check_finite_rows(rows)
            averages = _checked_averages(log)
            ratios = ratio_report(averages)
            _check_finite(ratios)
        results.append((config, _csv_text(DAILY_HEADER, rows), averages, ratios))
    return results


def _groups(configs: list[ScenarioConfig]) -> list[list[ScenarioConfig]]:
    """The configs grouped by shared human-only days, in first-seen order."""
    groups: dict[ScenarioConfig, list[ScenarioConfig]] = {}
    for config in configs:
        groups.setdefault(prefix_key(config), []).append(config)
    return list(groups.values())


def _tasks(configs: list[ScenarioConfig], jobs: int) -> list[list[ScenarioConfig]]:
    """The configs grouped by shared human-only days, one task per group.

    With fewer groups than jobs, each group is dealt round-robin into
    enough chunks to occupy every job; each chunk repeats the shared days.
    """
    tasks = _groups(configs)
    if 0 < len(tasks) < jobs:
        parts = -(-jobs // len(tasks))
        tasks = [group[i::parts] for group in tasks for i in range(min(parts, len(group)))]
    return tasks


def write_outputs(results: list[Result], out_dir: str | Path) -> list[dict]:
    """Write one daily CSV per run plus a consolidated summary.csv.

    ``results`` holds (config, daily CSV text, window averages, ratios)
    per run.  Files are UTF-8 with LF line endings and a leading header
    row; each daily file is named by the hash of its config point and the
    seed.  Rows are sorted by (strategy, cav_share, beta, congestion,
    seed), so the output is independent of the runs' completion order,
    and the summary is written last: its presence marks a complete
    experiment.  Returns the summary rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    summary_path.unlink(missing_ok=True)
    for stale in out_dir.glob("daily_*.csv"):
        stale.unlink()

    results = sorted(results, key=lambda item: _point_key(item[0]))
    summary_rows = []
    for config, daily, averages, ratios in results:
        _write_text(out_dir / f"daily_{_point_digest(config)}_{config.seed}.csv", daily)
        summary_rows.append(_summary_row(config, averages, ratios))

    lines = [",".join(_fmt(row[col]) for col in SUMMARY_COLUMNS) for row in summary_rows]
    _write_text(summary_path, _csv_text(SUMMARY_HEADER, lines))
    return summary_rows


def run_experiment(spec: ExperimentSpec, jobs: int | None = None) -> list[dict]:
    """Execute every run of the spec and write its output files.

    Runs that differ only in strategy and cav_share share their
    human-only days (see ``engine.run_branches``).  With jobs > 1
    (default: the machine's CPU count) a process pool hands out those
    groups, and its workers also format the daily CSVs; outputs do not
    depend on the execution order.  Returns the summary rows.
    """
    configs = spec.run_points()
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = _tasks(configs, jobs)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_run_group, tasks))
    else:
        chunks = [_run_group(task) for task in tasks]
    return write_outputs([result for chunk in chunks for result in chunk], spec.out_dir)


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
    window against the evaluation window.  At each seed the two runs
    share their human-only days as a sweep's runs do (see
    ``run_experiment``).  Seeds must be distinct.
    """
    for metric in (metric_a, metric_b):
        if metric not in WINDOW_METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {WINDOW_METRICS}")
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")
    pairs = [
        (dataclasses.replace(config_a, seed=seed), dataclasses.replace(config_b, seed=seed))
        for seed in seeds
    ]
    # The t-test reads only the window averages, so no daily CSV is formatted.
    averages: dict[ScenarioConfig, WindowAverages] = {}
    for group in _groups(list(dict.fromkeys(config for pair in pairs for config in pair))):
        logs = run_branches(group)
        for config in group:
            with _failing_point(config):
                averages[config] = _checked_averages(next(logs))

    values_a = []
    values_b = []
    for seed, (run_a, run_b) in zip(seeds, pairs):
        va = getattr(averages[run_a], metric_a)
        vb = getattr(averages[run_b], metric_b)
        if va is None or vb is None:
            raise ValueError(f"metric absent at seed {seed}; cannot pair")
        values_a.append(va)
        values_b.append(vb)
    return paired_t_test(values_a, values_b)


def _read_summary(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(SUMMARY_COLUMNS):
                raise ConfigError("summary", f"{path} does not look like a summary.csv")
            return list(reader)
    except OSError as exc:
        raise ConfigError("summary", f"cannot read {path}: {exc}") from None


def _column_values(rows: list[dict], column: str) -> list[float]:
    if column not in SUMMARY_COLUMNS:
        raise ConfigError("column", f"unknown summary column {column!r}")
    values = []
    for i, row in enumerate(rows, start=2):
        raw = row[column]
        if raw == "NA":
            raise ConfigError("column", f"{column} is NA on line {i}; cannot pair")
        values.append(float(raw))
    return values


def _ttest_metric(rows: list[dict], metric: str) -> TTestResult:
    *point_columns, seed_column = POINT_COLUMNS
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[column] for column in point_columns), []).append(row)
    if len(groups) != 2:
        raise ConfigError(
            "metric", f"summary must contain exactly two config points, found {len(groups)}"
        )
    (_, rows_a), (_, rows_b) = sorted(groups.items())
    seeds_a = sorted(int(r[seed_column]) for r in rows_a)
    seeds_b = sorted(int(r[seed_column]) for r in rows_b)
    if seeds_a != seeds_b:
        raise ConfigError("metric", "the two config points carry different seed sets")
    rows_a.sort(key=lambda r: int(r[seed_column]))
    rows_b.sort(key=lambda r: int(r[seed_column]))
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
    # Imported here, so that a library import of bottlesim does not pay
    # for argparse and gettext (about 3 ms).
    import argparse

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
            if args.jobs is not None and args.jobs < 1:
                raise ConfigError("--jobs", f"must be at least 1, got {args.jobs}")
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
