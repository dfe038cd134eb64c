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
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .engine import (
    RunFailure,
    ScenarioConfig,
    SimulationLog,
    _is_int,
    plan,
    run_scenario,  # noqa: F401 -- unused here, but the benchmark's tracer wraps expcli.run_scenario
    run_state,
)
from .fleet import STRATEGY_NAMES
from .metrics import (
    RatioReport,
    TTestResult,
    WindowAverages,
    compute_window_averages,
    daily_means,
    paired_t_test,
    ratio_report,
)
from .network import TwoRouteNetwork, quoted

if TYPE_CHECKING:
    import argparse


def __getattr__(name: str):
    """Import ``ProcessPoolExecutor`` on first use (PEP 562), then keep it as a module global.

    The pool pulls in multiprocessing, logging, socket and subprocess, which
    only a sweep at jobs > 1 needs.  ``run_experiment`` reads the class
    through this module's attribute, so assigning ``ProcessPoolExecutor``
    here replaces the pool a sweep uses.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {quoted(__name__)} has no attribute {quoted(name)}")


def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


# The columns that name a config point; _point_key gives their values.
POINT_COLUMNS = ("strategy", "cav_share", "beta", "congestion", "seed")
WINDOW_METRICS = _field_names(WindowAverages)
SUMMARY_COLUMNS = POINT_COLUMNS + WINDOW_METRICS + _field_names(RatioReport)
SUMMARY_HEADER = ",".join(SUMMARY_COLUMNS)
DAILY_HEADER = "day,q_hdv_a,q_hdv_b,q_cav_a,q_cav_b,t_a,t_b,mean_hdv_time,mean_perceived_hdv_time,mean_cav_time"


class ConfigError(ValueError):
    """Config validation failure; its message starts with the offending field name."""

    def __init__(self, fieldname: str, message: str) -> None:
        super().__init__(f"{fieldname}: {message}")


@dataclass
class ExperimentSpec:
    """A validated grid of scenario runs plus the output location."""

    points: tuple[ScenarioConfig, ...]  # one per run, sorted by _point_key
    out_dir: Path

    def run_points(self) -> list[ScenarioConfig]:
        """One config per run of the grid, in canonical order."""
        return list(self.points)


def _checked(fieldname: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(fieldname, str(exc)) from None


# The parsers of JSON values that the dataclasses do not take as given: each
# takes (fieldname, value) and names the field in its error.


def _canon_strategy(fieldname: str, value) -> str:
    if isinstance(value, str):
        for name in STRATEGY_NAMES:
            if value.lower() == name.lower():
                return name
    raise ConfigError(fieldname, f"expected one of {', '.join(STRATEGY_NAMES)}, got {quoted(value)}")


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
            route = _checked(subfield, dataclasses.replace, route, **{name: sub[name]})
        routes[key] = route
    return TwoRouteNetwork(**routes)


# The config format: each JSON field's parser and the ScenarioConfig attribute
# it sets.  A parser of None passes the JSON value as given, and the
# ScenarioConfig validators check and normalise it.  An absent field keeps the
# ScenarioConfig default.
# Single-valued fields, in the order they are checked:
_FIELDS = {
    "base_population": (None, "base_population"),
    "alpha": (None, "learning_rate"),
    "epsilon": (None, "explore_rate"),
    "phase_lengths": (None, "phase_lengths"),
    "network": (_parse_network, "network"),
}
# Sweep axes, in POINT_COLUMNS order; the parser reads one value of the axis.
_AXES = {
    "strategy": (_canon_strategy, "strategy"),
    "cav_share": (None, "cav_share"),
    "beta": (None, "taste_spread"),
    "congestion": (None, "congestion"),
    "seeds": (None, "seed"),
}


def _point_key(config: ScenarioConfig) -> tuple:
    """The values of POINT_COLUMNS for ``config``; runs are sorted by it."""
    return tuple(getattr(config, attr) for _, attr in _AXES.values())


def _point_digest(config: ScenarioConfig) -> str:
    """Hash of every config field but the seed, as JSON; it names the daily files."""
    import hashlib  # here, not at the top: only a sweep that writes daily files loads OpenSSL

    knobs = {name: getattr(config, attr) for name, (_, attr) in (*_FIELDS.items(), *_AXES.items())}
    del knobs["seeds"]
    canonical = json.dumps(knobs, sort_keys=True, default=vars)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]


def _at_congestion(base: ScenarioConfig, congestions: list, **changes) -> ScenarioConfig:
    """``base`` with ``changes``, at the first of the file's ``congestions`` that holds them.

    The population couples base_population with congestion, so
    base_population is checked at the file's own congestion values, and the
    congestion axis then names each value that does not hold it.  Where none
    does, ``base``'s own congestion decides, and the error quotes it.
    """
    for congestion in congestions:
        with contextlib.suppress(ValueError):
            return dataclasses.replace(base, congestion=congestion, **changes)
    return dataclasses.replace(base, **changes)


def _axis_values(fieldname: str, attr: str, base: ScenarioConfig, values: list) -> tuple:
    """``values`` as ``base`` holds each as ``attr``, none repeated.

    A repeated value would run the same point twice.
    """
    held: dict = {}  # a dict keeps the values' order and finds a repeat at once
    for value in values:
        value = getattr(_checked(fieldname, dataclasses.replace, base, **{attr: value}), attr)
        if value in held:
            raise ConfigError(fieldname, f"value {quoted(value)} repeats; axis values must be distinct")
        held[value] = None
    return tuple(held)


def _grid(base: ScenarioConfig, axes: dict[str, tuple]) -> tuple[ScenarioConfig, ...]:
    """Every combination of the given axes' values set on ``base``, sorted by _point_key."""
    points = [base]
    # Longest axis last: the fewest partial configs are built on the way.
    for name in sorted(axes, key=lambda name: len(axes[name])):
        attr = _AXES[name][1]
        points = [dataclasses.replace(p, **{attr: v}) for p in points for v in axes[name]]
    return tuple(sorted(points, key=_point_key))


def _cannot_read(name: str, exc: Exception) -> str:
    """``cannot read NAME: REASON``, NAME cut to 200 characters; REASON is ``strerror`` where the error has one."""
    return f"cannot read {name if len(name) <= 200 else name[:197] + '...'}: {getattr(exc, 'strerror', None) or exc}"


def load_config(path: str | Path) -> ExperimentSpec:
    """Parse and fully validate a JSON experiment config.

    An omitted field keeps the ``ScenarioConfig`` default; ``out_dir``
    defaults to ``results``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", _cannot_read(str(path), exc)) from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, a too-long integer, deep nesting
        raise ConfigError("config", f"malformed JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    known = {*_FIELDS, *_AXES, "schema", "seed", "out_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    schema = doc.get("schema", 1)
    if not _is_int(schema) or schema != 1:
        raise ConfigError("schema", f"unsupported schema version {quoted(schema)}")

    values = {}
    for name, (parse, _) in _AXES.items():
        raw = doc.get(name)
        if name == "seeds" and "seed" in doc:  # "seed" is the single-value form of "seeds"
            if "seeds" in doc:
                raise ConfigError("seeds", "give either seed or seeds, not both")
            raw = [doc["seed"]]
        elif name not in doc:
            continue
        if name == "seeds" and (not isinstance(raw, list) or not raw):
            raise ConfigError("seeds", "expected a nonempty list of integers")
        raw = raw if isinstance(raw, list) else [raw]
        if not raw:
            raise ConfigError(name, "axis list must not be empty")
        values[name] = raw if parse is None else [parse(name, value) for value in raw]

    # Every value is set on one base config, so its dataclass validators check it.
    congestions = values.get("congestion", [])
    # Start at the file's first valid congestion, so that an error quotes a value of the file.
    base = _at_congestion(ScenarioConfig(), congestions)
    for name, (parse, attr) in _FIELDS.items():
        if name in doc:
            value = doc[name] if parse is None else parse(name, doc[name])
            base = _checked(name, _at_congestion, base, congestions, **{attr: value})
    axes = {name: _axis_values(name, _AXES[name][1], base, axis) for name, axis in values.items()}
    env_seed = os.environ.get("BOTTLESIM_SEED")
    if env_seed is not None:
        try:
            seeds = [int(env_seed)]
        except ValueError:
            raise ConfigError("BOTTLESIM_SEED", f"expected an integer, got {quoted(env_seed)}") from None
        axes["seeds"] = _axis_values("BOTTLESIM_SEED", "seed", base, seeds)

    out_dir = doc.get("out_dir", "results")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir", f"expected a string, got {quoted(out_dir)}")
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


def _write_daily(path: Path, rows: list[str]) -> None:
    """Write a run's daily CSV, DAILY_HEADER and then ``rows``, to ``path``."""
    path.write_text(_csv_text(DAILY_HEADER, rows), encoding="utf-8", newline="\n")


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by way of ``path.tmp``, so ``path`` is never half written."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _daily_rows(log: SimulationLog) -> list[str]:
    """The CSV rows of ``log``: each cell is ``_fmt`` of its value.

    A mean that ``daily_means`` marks absent is NA.  Any other value must be
    finite, or a RuntimeError names the first day that is not.  Each
    distinct bit pattern of the run's float columns is formatted once, so
    0.0 and -0.0 keep their own text.
    """
    flows, means = log.flows, daily_means(log)
    values = np.stack([*log.times.T, *(mean for mean, _ in means)])  # (5, days)
    present = np.stack([np.ones(len(flows), bool)] * 2 + [days for _, days in means])
    finite = (np.isfinite(values) | ~present).all(axis=0)
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(value) for value in patterns.view(np.float64).tolist()], dtype=object)
    cells = texts[inverse.reshape(values.shape)]
    cells[~present] = "NA"
    days = map(str, range(1, len(flows) + 1))
    rows = list(map(",".join, zip(days, *[map(str, column) for column in flows.T.tolist()], *cells.tolist())))
    if not finite.all():
        day = int(np.argmin(finite))
        raise RuntimeError(f"non-finite value on day {day + 1}: {rows[day]}")
    return rows


def _summary_row(config: ScenarioConfig, averages: WindowAverages, ratios: RatioReport) -> dict:
    return {
        **dict(zip(POINT_COLUMNS, _point_key(config))),
        **vars(averages),
        **vars(ratios),
    }


def _point_label(config: ScenarioConfig) -> str:
    return " ".join(f"{column}={value}" for column, value in zip(POINT_COLUMNS, _point_key(config)))


def _check_finite(*stats) -> None:
    """Raise RuntimeError unless every field of the window ``stats`` is finite or absent."""
    for stat in stats:
        for name, value in vars(stat).items():
            if value is not None and not math.isfinite(value):
                raise RuntimeError(f"{name} is {value}")


@contextlib.contextmanager
def _failing_point(config: ScenarioConfig):
    """Re-raise a failure of ``config``'s run as a RuntimeError naming its config point.

    The name survives a pool worker, where the traceback alone would not show it.
    An exception without a message is named by its type.
    """
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"run {_point_label(config)} failed: {str(exc) or type(exc).__name__}") from exc


def _checked_averages(log: SimulationLog) -> WindowAverages:
    """The window averages of ``log``, which must all be finite or absent."""
    averages = compute_window_averages(log)
    _check_finite(averages)
    return averages


def _checked_runs(state: list[ScenarioConfig], check) -> Iterator[tuple[ScenarioConfig, object]]:
    """``(config, check(log))`` for each config of one lockstep state, in order, under its ``_failing_point``.

    The state is stepped once.  If that fails, the failure is raised again
    under the point of the config a ``RunFailure`` carries, or of the
    state's first config for any other failure of the state.
    """
    try:
        logs = run_state(state)
    except Exception as exc:
        failed = exc.config if isinstance(exc, RunFailure) else state[0]
        with _failing_point(failed):
            raise
    for config, log in zip(state, logs):
        with _failing_point(config):
            result = check(log)
        yield config, result


# A run's summary inputs: (config, window averages, ratios).  Its daily CSV
# is on disk by then, so no CSV text is held or crosses the pool's pipe.
Result = tuple[ScenarioConfig, WindowAverages, RatioReport]


def _daily_path(out_dir: Path, config: ScenarioConfig) -> Path:
    """The daily CSV of ``config``'s run: named by the hash of its config point and the seed."""
    return out_dir / f"daily_{_point_digest(config)}_{config.seed}.csv"


def _run_group(configs: list[ScenarioConfig], staging: Path) -> list[Result]:
    """Run the configs of one lockstep state (see ``engine.plan``): (config, averages, ratios) each.

    Each run's daily CSV is written into the directory ``staging`` under its
    final name (``_daily_path``) as soon as its log passes its checks;
    ``run_experiment`` moves it into place once every run is done.
    """
    def check(log: SimulationLog) -> tuple[list[str], WindowAverages, RatioReport]:
        rows = _daily_rows(log)
        averages = _checked_averages(log)
        ratios = ratio_report(averages)
        _check_finite(ratios)
        return rows, averages, ratios

    results = []
    for config, (rows, averages, ratios) in _checked_runs(configs, check):
        _write_daily(_daily_path(staging, config), rows)
        results.append((config, averages, ratios))
    return results


def write_outputs(results: list[Result], out_dir: str | Path) -> list[dict]:
    """Write summary.csv into ``out_dir``, one row per run; return the rows.

    ``results`` holds (config, window averages, ratios) per run.  The file
    is UTF-8 with LF line endings and a leading header row.  Rows are
    sorted by (strategy, cav_share, beta, congestion, seed), so the output
    is independent of the runs' completion order.  ``run_experiment``
    calls it once the runs' daily CSVs are in place: the summary is
    written last, and its presence marks a complete experiment.
    """
    results = sorted(results, key=lambda item: _point_key(item[0]))
    summary_rows = [_summary_row(*result) for result in results]
    lines = [",".join(_fmt(row[col]) for col in SUMMARY_COLUMNS) for row in summary_rows]
    _write_text(Path(out_dir) / "summary.csv", _csv_text(SUMMARY_HEADER, lines))
    return summary_rows


def run_experiment(spec: ExperimentSpec, jobs: int | None = None) -> list[dict]:
    """Execute every run of the spec and write its output files.

    Runs that differ only in seed, beta (taste_spread), congestion,
    strategy and cav_share share their human-only days and step in
    lockstep states, cut into chunks when there are fewer groups than
    jobs (see ``engine.plan``).  Each state is a task.  With jobs > 1
    (default: the machine's CPU count) a process pool hands out the tasks.
    A task writes each run's daily CSV into one staging directory
    (``.staging-*``, made in ``out_dir``; see ``_run_group``).  Once every
    task has returned, the previous experiment's summary.csv and daily
    CSVs are removed, the new daily CSVs moved into place, the staging
    directory removed and summary.csv written last; outputs do not depend
    on the execution order.  If a run fails, the pool finishes, the
    staging directory is removed and ``out_dir`` is left as it was: a
    previous experiment stays whole, and the directories this call made
    are removed.  Returns the summary rows.
    """
    configs = spec.run_points()
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {quoted(jobs)}")
    out_dir = Path(spec.out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # In out_dir, so that moving a file out of it is an atomic rename.  Leaving the
        # block removes it, once the pool's block has waited for its workers.
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir, ignore_cleanup_errors=True) as name:
            staging = Path(name)
            tasks = plan(configs, jobs)
            if jobs > 1 and len(tasks) > 1:
                pool_class = sys.modules[__name__].ProcessPoolExecutor  # see __getattr__
                with pool_class(max_workers=min(jobs, len(tasks))) as pool:
                    chunks = list(pool.map(_run_group, tasks, itertools.repeat(staging)))
            else:
                chunks = [_run_group(task, staging) for task in tasks]
            (out_dir / "summary.csv").unlink(missing_ok=True)
            for stale in out_dir.glob("daily_*.csv"):
                stale.unlink()
            for path in staging.iterdir():
                os.replace(path, out_dir / path.name)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):  # not empty: the failure came after the commit began
                path.rmdir()
        raise
    return write_outputs([result for chunk in chunks for result in chunk], out_dir)


def _paired(field: str, a: dict, b: dict) -> TTestResult:
    """Paired t-test of ``a``'s values against ``b``'s, in the order of their keys (seeds, or summary lines)."""
    if list(a) != list(b):
        raise ConfigError(field, "the two config points carry different seed sets")
    for key in (key for key in a if a[key] is None or b[key] is None):
        raise ValueError(f"metric absent at seed {quoted(key)}; cannot pair")
    return _checked(field, paired_t_test, list(a.values()), list(b.values()))


def replicate_and_test(
    config_a: ScenarioConfig,
    metric_a: str,
    config_b: ScenarioConfig,
    metric_b: str,
    seeds: Iterable[int],
) -> TTestResult:
    """Paired t-test of two windowed metrics across seed-matched runs.

    Each seed produces one paired observation: ``metric_a`` of
    ``config_a`` against ``metric_b`` of ``config_b`` at that seed.
    The two configs may be equal (the runs are then shared), which
    compares two statistics of the same scenario, e.g. the baseline
    window against the evaluation window.  All the runs share their
    human-only days and step in lockstep, as a sweep's runs do (see
    ``run_experiment``).  At least two seeds are needed, all distinct.
    """
    for metric in (metric_a, metric_b):
        if metric not in WINDOW_METRICS:
            raise ValueError(f"unknown metric {quoted(metric)}; expected one of {WINDOW_METRICS}")
    seeds = list(seeds)
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise ValueError(f"need at least 2 distinct seeds, got {quoted(seeds)}")
    pairs = {seed: (dataclasses.replace(config_a, seed=seed), dataclasses.replace(config_b, seed=seed)) for seed in seeds}
    # The t-test reads only the window averages, so no daily CSV is formatted.
    states = plan(dict.fromkeys(config for pair in pairs.values() for config in pair))
    averages = dict(item for state in states for item in _checked_runs(state, _checked_averages))
    return _paired("metric", *({seed: getattr(averages[pair[side]], metric) for seed, pair in pairs.items()}
                               for side, metric in enumerate((metric_a, metric_b))))


def _read_summary(path: Path) -> dict[int, dict]:
    """The rows of a summary.csv, keyed by the line each ends on."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(SUMMARY_COLUMNS):
                raise ConfigError("summary", f"{path} does not look like a summary.csv")
            return {reader.line_num: row for row in reader}
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # not ValueError: ConfigError is one
        raise ConfigError("summary", _cannot_read(str(path), exc)) from None


def _column_values(rows: dict[int, dict], column: str, parse=float) -> dict:
    """``parse`` of each row's ``column`` cell, by line; the cell must be present, parsable and finite."""
    if column not in SUMMARY_COLUMNS:
        raise ConfigError("column", f"unknown summary column {quoted(column)}")
    values = {}
    for line, row in rows.items():
        raw = row[column]  # a short row holds None
        try:
            value = parse(raw)
            if not math.isfinite(value):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            cell = quoted(raw) if raw else "missing"
            raise ConfigError("column", f"{column} is {cell} on line {line}; cannot pair") from None
        values[line] = value
    return values


def _ttest_metric(rows: dict[int, dict], metric: str) -> TTestResult:
    *point_columns, seed_column = POINT_COLUMNS
    # A row with a seed cell has every point column, which comes before it.
    seeds = _column_values(rows, seed_column, int)
    groups: dict[tuple, dict[int, int]] = {}  # each point's lines by seed, in ascending seed order
    for line in sorted(rows, key=seeds.get):
        group = groups.setdefault(tuple(rows[line][column] for column in point_columns), {})
        if seeds[line] in group:
            raise ConfigError("metric", f"seed {quoted(seeds[line])} repeats at a config point, on line {line}")
        group[seeds[line]] = line
    if len(groups) != 2:
        raise ConfigError("metric", f"summary must contain exactly two config points, found {len(groups)}")
    values = _column_values(rows, metric)
    return _paired("metric", *({seed: values[line] for seed, line in group.items()} for _, group in sorted(groups.items())))


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
                raise ConfigError("--jobs", f"must be at least 1, got {quoted(args.jobs)}")
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
                columns = [part.strip() for part in args.pair.split(",")]
                if len(columns) != 2:
                    raise ConfigError("pair", f"expected colA,colB, got {quoted(args.pair)}")
                result = _paired("pair", *(_column_values(rows, column) for column in columns))
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
