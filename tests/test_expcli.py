import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bottlesim
from bottlesim import (
    RouteParams,
    ScenarioConfig,
    TwoRouteNetwork,
    compute_window_averages,
    paired_t_test,
    run_scenario,
    system_optimum,
)
from bottlesim.engine import _row_key, driver_row_days, group_by, plan
from bottlesim.metrics import RatioReport, WindowAverages, daily_means, sequential_sum
from bottlesim.expcli import (
    DAILY_HEADER,
    POINT_COLUMNS,
    SUMMARY_COLUMNS,
    SUMMARY_HEADER,
    ConfigError,
    ExperimentSpec,
    _AXES,
    _FIELDS,
    _daily_rows,
    _fmt,
    _run_group,
    load_config,
    main,
    replicate_and_test,
    run_experiment,
)

FAST = {"base_population": 60, "phase_lengths": [5, 5, 5, 5]}
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        spec = load_config(write_config(tmp_path, {}))
        (point,) = spec.run_points()
        assert point.strategy == "Selfish"
        assert point.cav_share == 0.0
        assert point.taste_spread == 5.0
        assert point.congestion == 1.0
        assert point.learning_rate == 0.2
        assert point.explore_rate == 0.1
        assert point.seed == 0
        assert point.base_population == 1000
        assert point.phase_lengths == (100, 100, 100, 100)
        assert point.network == TwoRouteNetwork.default()
        assert spec.out_dir == Path("results")
        assert point == ScenarioConfig()

    def test_readme_example_config_loads(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(example, encoding="utf-8")
        assert len(load_config(path).run_points()) == 18  # 2 strategies x 3 shares x 3 seeds

    def test_axes_and_seeds_multiply(self, tmp_path):
        spec = load_config(write_config(tmp_path, {"cav_share": [0.1, 0.4], "seeds": [1, 2]}))
        assert len(spec.run_points()) == 4

    def test_points_are_exactly_the_hand_built_configs(self, tmp_path):
        network = {
            "route_a": {"free_flow_time": 3, "capacity": 100, "exponent": 2},
            "route_b": {"free_flow_time": 9.5, "capacity": 300, "exponent": 3},
        }
        doc = {
            "strategy": ["social", "Altruistic"], "cav_share": [0.4, 0], "beta": [2, 7.5],
            "congestion": [1.5, 1], "seeds": [9, 3], "alpha": 0.35, "epsilon": 0.05,
            "phase_lengths": [3, 4, 5, 6], "base_population": 70, "network": network,
        }
        points = load_config(write_config(tmp_path, doc)).run_points()
        routes = {key: RouteParams(**{k: float(v) for k, v in route.items()})
                  for key, route in network.items()}
        expected = [
            ScenarioConfig(
                learning_rate=0.35, explore_rate=0.05, taste_spread=float(beta),
                network=TwoRouteNetwork(**routes),
                congestion=float(congestion),
                cav_share=float(share),
                strategy=strategy,
                phase_lengths=(3, 4, 5, 6),
                base_population=70,
                seed=seed,
            )
            for strategy in ("Social", "Altruistic") for share in (0.4, 0) for beta in (2, 7.5)
            for congestion in (1.5, 1) for seed in (9, 3)
        ]
        expected.sort(key=lambda c: (c.strategy, c.cav_share, c.taste_spread,
                                     c.congestion, c.seed))
        assert points == expected
        # JSON ints on an axis become floats, as the point digests need.
        assert [repr(p) for p in points] == [repr(c) for c in expected]

    def test_negative_beta_rejected_with_field_name(self, tmp_path):
        with pytest.raises(ConfigError, match="beta"):
            load_config(write_config(tmp_path, {"beta": -1}))

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"cav_share": 1.5}, "cav_share"),
            ({"congestion": 0}, "congestion"),
            ({"alpha": -0.2}, "alpha"),
            ({"epsilon": 7}, "epsilon"),
            ({"strategy": "Greedy"}, "strategy"),
            ({"seeds": []}, "seeds"),
            ({"seeds": [1.5]}, "seeds"),
            ({"phase_lengths": [100, 100]}, "phase_lengths"),
            ({"base_population": 0}, "base_population"),
            ({"schema": 2}, "schema"),
            ({"typo_field": 1}, "typo_field"),
            ({"network": {"route_a": {}}}, "network"),
            # A repeated axis value would run the same point twice.
            ({"cav_share": [0.1, 0.1]}, "cav_share: value 0.1 repeats"),
            ({"strategy": ["Selfish", "selfish"]}, "strategy: value 'Selfish' repeats"),
            ({"beta": [5, 5.0]}, "beta: value 5.0 repeats"),
            ({"congestion": [1.0, 2.0, 1]}, "congestion: value 1.0 repeats"),
            ({"seeds": [1, 2, 1]}, "seeds: value 1 repeats"),
            ({"seed": -1}, "seeds: seed must be an unsigned 64-bit integer"),
            ({"seeds": [2**64]}, "seeds: seed must be an unsigned 64-bit integer"),
            ({"out_dir": None}, "out_dir: expected a string"),
            ({"out_dir": 5}, "out_dir: expected a string"),
            ({"seeds": 3}, "seeds: expected a nonempty list of integers"),
            ({"seed": 1, "seeds": [1]}, "seeds: give either seed or seeds, not both"),
        ],
    )
    def test_field_level_rejections(self, tmp_path, doc, field):
        with pytest.raises(ConfigError, match=field):
            load_config(write_config(tmp_path, doc))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="config"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_integer_too_long_to_parse_is_a_config_error(self, tmp_path, capsys):
        # Python 3.11 refuses to convert an integer of more than 4300 digits.
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_strategy_names_are_case_insensitive(self, tmp_path):
        spec = load_config(write_config(tmp_path, {"strategy": ["selfish", "SOCIAL"]}))
        assert [point.strategy for point in spec.run_points()] == ["Selfish", "Social"]

    def test_custom_network_parsed(self, tmp_path):
        doc = {
            "network": {
                "route_a": {"free_flow_time": 3, "capacity": 100, "exponent": 2},
                "route_b": {"free_flow_time": 9, "capacity": 300, "exponent": 2},
            }
        }
        spec = load_config(write_config(tmp_path, doc))
        assert spec.run_points()[0].network.route_a.capacity == 100

    def test_each_config_field_has_exactly_one_file_key(self):
        attrs = [attr for _, attr in (*_FIELDS.values(), *_AXES.values())]
        assert sorted(attrs) == sorted(field.name for field in dataclasses.fields(ScenarioConfig))

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTTLESIM_SEED", "77")
        spec = load_config(write_config(tmp_path, {"seeds": [1, 2, 3]}))
        assert [point.seed for point in spec.run_points()] == [77]

    def test_invalid_env_seed_rejected(self, tmp_path, monkeypatch):
        for value in ("not-a-number", "-1", str(2**64)):
            monkeypatch.setenv("BOTTLESIM_SEED", value)
            with pytest.raises(ConfigError, match="^BOTTLESIM_SEED: "):
                load_config(write_config(tmp_path, {}))


class TestRunExperiment:
    def test_single_run_outputs(self, tmp_path):
        spec = load_config(write_config(tmp_path, dict(FAST)))
        spec.out_dir = tmp_path / "out"
        rows = run_experiment(spec, jobs=1)
        assert len(rows) == 1
        summary = (spec.out_dir / "summary.csv").read_text(encoding="utf-8")
        lines = summary.splitlines()
        assert lines[0] == (
            "strategy,cav_share,beta,congestion,seed,tau_b,tau,u_b,u,rho,frac_a_hdv,frac_a_cav,"
            "opt_gap,equity_gap,cav_advantage,effect_change_to_cav,effect_remaining_hdv,"
            "perceived_effect_remaining_hdv"
        )
        assert len(lines) == 2
        daily_files = sorted(spec.out_dir.glob("daily_*.csv"))
        assert len(daily_files) == 1
        daily = daily_files[0].read_text(encoding="utf-8").splitlines()
        assert daily[0] == (
            "day,q_hdv_a,q_hdv_b,q_cav_a,q_cav_b,t_a,t_b,mean_hdv_time,mean_perceived_hdv_time,"
            "mean_cav_time"
        )
        assert len(daily) == 21  # header + one row per day

    def test_absent_statistics_written_as_na(self, tmp_path):
        spec = load_config(write_config(tmp_path, dict(FAST)))  # share 0: no fleet
        spec.out_dir = tmp_path / "out"
        run_experiment(spec, jobs=1)
        header, row = (spec.out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["rho"] == "NA"
        assert values["frac_a_cav"] == "NA"
        assert values["cav_advantage"] == "NA"
        assert values["effect_change_to_cav"] == "NA"
        assert values["tau_b"] != "NA"
        assert values["effect_remaining_hdv"] != "NA"

    def test_numpy_scalars_write_as_python_floats(self, tmp_path):
        def outputs(name, number):
            config = ScenarioConfig(cav_share=number(0.1), congestion=number(0.05),
                                    phase_lengths=(2, 2, 2, 2))
            out = tmp_path / name
            run_experiment(ExperimentSpec(points=(config,), out_dir=out), jobs=1)
            return sorted(p.name for p in out.iterdir()), (out / "summary.csv").read_text(encoding="utf-8")

        assert outputs("numpy", np.float64) == outputs("python", float)

    def test_rerun_is_byte_identical(self, tmp_path):
        doc = dict(FAST, cav_share=[0.0, 0.5], seeds=[1, 2], strategy="Social")
        spec = load_config(write_config(tmp_path, doc))
        spec.out_dir = tmp_path / "out"
        run_experiment(spec, jobs=1)
        first = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        run_experiment(spec, jobs=1)
        second = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        assert first == second

    def test_parallel_execution_matches_sequential(self, tmp_path):
        doc = dict(FAST, cav_share=[0.0, 0.3, 0.6], strategy=["Selfish", "Social"])
        spec = load_config(write_config(tmp_path, doc))
        spec.out_dir = tmp_path / "seq"
        run_experiment(spec, jobs=1)
        sequential = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        spec.out_dir = tmp_path / "par"
        run_experiment(spec, jobs=3)
        parallel = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        assert sequential == parallel
        # summary.csv and a daily CSV per run, and nothing else: the staging directory is gone.
        names = sorted(sequential)
        assert names[-1] == "summary.csv" and len(names) == 7
        assert all(re.fullmatch(r"daily_[0-9a-f]{10}_\d+\.csv", name) for name in names[:-1])

    def test_failure_before_any_task_leaves_no_staging_directory(self, tmp_path, monkeypatch):
        def no_plan(configs, parts=1):
            raise RuntimeError("no plan")

        monkeypatch.setattr(bottlesim.expcli, "plan", no_plan)
        spec = load_config(write_config(tmp_path, dict(FAST)))
        previous = tmp_path / "previous"
        previous.mkdir()
        (previous / "summary.csv").write_text("previous experiment", encoding="utf-8")
        for out_dir in (previous, tmp_path / "fresh" / "out"):
            spec.out_dir = out_dir
            with pytest.raises(RuntimeError, match="no plan"):
                run_experiment(spec, jobs=1)
        assert [p.name for p in previous.iterdir()] == ["summary.csv"]
        assert (previous / "summary.csv").read_text(encoding="utf-8") == "previous experiment"
        assert not (tmp_path / "fresh").exists()

    def test_rerun_with_other_seeds_leaves_no_stale_daily_files(self, tmp_path):
        out = tmp_path / "out"
        for seeds in ([1, 2], [3]):
            spec = load_config(write_config(tmp_path, dict(FAST, seeds=seeds)))
            spec.out_dir = out
            run_experiment(spec, jobs=1)
        daily = sorted(p.name for p in out.glob("daily_*.csv"))
        assert len(daily) == 1 and daily[0].endswith("_3.csv")
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert len(summary) == 2

    def test_group_split_across_workers_matches_serial(self, tmp_path):
        doc = dict(FAST, strategy=list(bottlesim.STRATEGY_NAMES), cav_share=[0.0, 0.3, 1.0], seeds=[4])
        spec = load_config(write_config(tmp_path, doc))
        tasks = plan(spec.run_points(), 2)
        assert len(tasks) == 2  # one group of 15 runs, dealt to two workers
        spec.out_dir = tmp_path / "seq"
        run_experiment(spec, jobs=1)
        sequential = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        spec.out_dir = tmp_path / "par"
        run_experiment(spec, jobs=2)
        parallel = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        assert len(sequential) == 16
        assert sequential == parallel

    def test_a_pooled_sweep_builds_the_pool_through_the_module_attribute(self, tmp_path, monkeypatch):
        # Replacing expcli.ProcessPoolExecutor is how a caller times or swaps the pool.
        built = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bottlesim.expcli, "ProcessPoolExecutor", RecordingPool)
        spec = load_config(write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.3], seeds=[1, 2])))
        assert len(plan(spec.run_points(), 2)) == 2
        spec.out_dir = tmp_path / "serial"
        run_experiment(spec, jobs=1)
        assert built == []
        spec.out_dir = tmp_path / "pooled"
        run_experiment(spec, jobs=2)
        assert built == [2]
        assert [p.read_bytes() for p in sorted((tmp_path / "pooled").iterdir())] == [
            p.read_bytes() for p in sorted((tmp_path / "serial").iterdir())
        ]

    def test_tasks_group_runs_by_shared_days(self, tmp_path):
        doc = dict(FAST, cav_share=[0.1, 0.5], strategy=["Selfish", "Social"],
                   congestion=[0.5, 1.0], seeds=[1, 2])
        configs = load_config(write_config(tmp_path, doc)).run_points()
        # One group: both populations, seeds and fleets share a task.
        assert plan(configs, 1) == [configs]
        # Fewer groups than jobs: the group is cut by prefix row (seed, spread,
        # population), each row's runs together; the two rows of 60 drivers are
        # dealt first, one to each chunk, and then the two rows of 30.
        tasks = plan(configs, 2)
        assert [[c.seed for c in task] for task in tasks] == [[1] * 8, [2] * 8]
        assert sorted(map(repr, sum(tasks, []))) == sorted(map(repr, configs))
        assert sum(map(driver_row_days, tasks)) == driver_row_days(configs)
        # Fewer prefix rows than jobs: cut by prefix row and survivor count, so
        # the fleets of one row at one share stay together.
        one_group = [c for c in configs if c.congestion == 0.5]
        assert plan(one_group, 2) == [[c for c in one_group if c.seed == seed] for seed in (1, 2)]
        blocks = [[c for c in one_group if (c.seed, c.cav_share) == key]
                  for key in ((1, 0.1), (2, 0.1), (1, 0.5), (2, 0.5))]
        assert plan(one_group, 8) == blocks
        # Blocks are dealt by driver-row-days, largest first, each to the least loaded
        # chunk; each chunk of the one prefix row steps its 60 drivers through the 10 shared days.
        shares = [0.0, 0.1, 0.2, 0.3, 0.4]
        configs = load_config(write_config(tmp_path, dict(FAST, cav_share=shares, seeds=[1]))).run_points()
        tasks = plan(configs, 2)
        assert [[c.cav_share for c in task] for task in tasks] == [[0.0, 0.3, 0.4], [0.1, 0.2]]
        assert [driver_row_days(task) for task in tasks] == [600 + 10 * (60 + 42 + 36), 600 + 10 * (54 + 48)]
        # With a row per seed, each chunk steps only its own seed's human-only days.
        configs = load_config(write_config(tmp_path, dict(FAST, cav_share=shares, seeds=[1, 2]))).run_points()
        tasks = plan(configs, 2)
        assert [[c.seed for c in task] for task in tasks] == [[1] * 5, [2] * 5]
        assert [driver_row_days(task) for task in tasks] == [600 + 10 * (60 + 54 + 48 + 42 + 36)] * 2

    def test_taste_spreads_share_a_task(self, tmp_path):
        doc = dict(FAST, beta=[0.5, 2.0, 50.0], cav_share=[0.1, 0.4], congestion=[0.5, 1.0], seeds=[1, 2])
        configs = load_config(write_config(tmp_path, doc)).run_points()
        assert plan(configs, 1) == [configs]
        # One group of 12 prefix rows, four jobs: it is cut by prefix row, each
        # (seed, spread, population) with all its shares in one chunk.
        tasks = plan(configs, 4)
        assert len(tasks) == 4
        rows = group_by(configs, _row_key)
        for task in tasks:
            for key, members in group_by(task, _row_key).items():
                assert members == rows[key]

    @pytest.mark.parametrize("jobs", [2, 3, 5, 12])
    def test_chunks_step_each_prefix_row_once(self, tmp_path, jobs):
        # 2 seeds x 3 spreads x 2 populations: 12 prefix rows, at least one per chunk.
        doc = dict(FAST, cav_share=[0.05, 0.2, 0.8], beta=[0.1, 5.0, 50.0], congestion=[0.5, 1.0],
                   seeds=[1, 2])
        configs = load_config(write_config(tmp_path, doc)).run_points()
        tasks = plan(configs, jobs)
        assert len(tasks) == jobs
        assert sorted(map(repr, sum(tasks, []))) == sorted(map(repr, configs))
        assert sum(map(driver_row_days, tasks)) == driver_row_days(configs)

    def test_each_run_of_a_sweep_computes_its_window_averages_once(self, tmp_path, monkeypatch):
        # The public function is the one window path, so a patch of it (as the benchmark's spans
        # make) sees every run of a sweep.
        # Every day of a run carries its whole population, so each run evaluates one system optimum.
        calls, optima = [], []

        def counted(log):
            calls.append(log.config)
            return compute_window_averages(log)

        def counted_optimum(network, q_total):
            optima.append(q_total)
            return system_optimum(network, q_total)

        monkeypatch.setattr(bottlesim.expcli, "compute_window_averages", counted)
        monkeypatch.setattr(bottlesim.metrics, "system_optimum", counted_optimum)
        config = write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.3], strategy=["Selfish", "Social"], seeds=[1, 2]))
        assert main(["sweep", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
        runs = load_config(config).run_points()
        assert len(runs) == 8
        assert sorted(map(repr, calls)) == sorted(map(repr, runs))
        assert optima == [run.total_population for run in calls]

    def test_run_group_writes_temporaries_and_returns_no_csv_text(self, tmp_path):
        spec = load_config(write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.3], seeds=[1, 2])))
        spec.out_dir = tmp_path / "out"
        run_experiment(spec, jobs=1)
        staging = tmp_path / "staging"
        staging.mkdir()
        results = _run_group(spec.run_points(), staging)
        # Only (config, averages, ratios) come back: no CSV text rides the pool's pipe.
        assert [config for config, *_ in results] == spec.run_points()
        for result in results:
            assert [type(value) for value in result] == [ScenarioConfig, WindowAverages, RatioReport]
            assert not any(isinstance(value, str) for value in result)
        # Each daily CSV is staged under its final name, with the bytes run_experiment moves into place.
        staged = sorted(p.name for p in staging.iterdir())
        assert staged == sorted(p.name for p in spec.out_dir.glob("daily_*.csv"))
        for name in staged:
            assert (staging / name).read_bytes() == (spec.out_dir / name).read_bytes()

    def test_daily_file_names_hash_every_field_but_the_seed(self, tmp_path):
        network = {
            "route_a": {"free_flow_time": 3, "capacity": 100, "exponent": 2},
            "route_b": {"free_flow_time": 9.5, "capacity": 300, "exponent": 3},
        }
        spec = load_config(write_config(tmp_path, dict(FAST, alpha=0.35, seeds=[1, 2], network=network)))
        spec.out_dir = tmp_path / "out"
        run_experiment(spec, jobs=1)
        knobs = (
            '{"alpha": 0.35, "base_population": 60, "beta": 5.0, "cav_share": 0.0, "congestion": 1.0, '
            '"epsilon": 0.1, "network": {"route_a": {"capacity": 100.0, "exponent": 2.0, '
            '"free_flow_time": 3.0}, "route_b": {"capacity": 300.0, "exponent": 3.0, '
            '"free_flow_time": 9.5}}, "phase_lengths": [5, 5, 5, 5], "strategy": "Selfish"}'
        )
        digest = hashlib.sha256(knobs.encode("utf-8")).hexdigest()[:10]
        assert digest == "f4f823dcf3"
        daily = sorted(p.name for p in spec.out_dir.glob("daily_*.csv"))
        assert daily == [f"daily_{digest}_1.csv", f"daily_{digest}_2.csv"]

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        spec = load_config(write_config(tmp_path, dict(FAST, seeds=[1, 2])))
        spec.out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            run_experiment(spec, jobs=jobs)
        assert not spec.out_dir.exists()

    def test_rows_sorted_by_canonical_key(self, tmp_path):
        doc = dict(FAST, cav_share=[0.4, 0.1], strategy=["Social", "Altruistic"], seeds=[2, 1])
        spec = load_config(write_config(tmp_path, doc))
        spec.out_dir = tmp_path / "out"
        rows = run_experiment(spec, jobs=1)
        keys = [(r["strategy"], r["cav_share"], r["beta"], r["congestion"], r["seed"]) for r in rows]
        assert keys == sorted(keys)
        assert keys[0][0] == "Altruistic"


# Finite floats a daily column may repeat, including the keys a dict cannot tell apart.
CELL_FLOATS = [0.0, -0.0, 1.0, 1e-300, 5e-324, 1.5, -1.5, 12.345678901234567, 1e300]


def column_log(days, survivors=True):
    """A log of (q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b, perceived) per day; at share 1 if not ``survivors``."""
    config = ScenarioConfig(cav_share=0.0 if survivors else 1.0)
    flows = np.array([day[:4] for day in days], dtype=np.int64).reshape(-1, 4)
    floats = np.array([day[4:] for day in days], dtype=float).reshape(-1, 3)
    return bottlesim.SimulationLog(config, flows, floats[:, :2], floats[:, 2])


def scalar_row(day, q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b, perceived, survivors=True):
    """A daily CSV row written from the scalar definitions: a mean of an empty group is NA."""
    humans, fleet = q_hdv_a + q_hdv_b, q_cav_a + q_cav_b
    cells = [
        day, q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b,
        (q_hdv_a * t_a + q_hdv_b * t_b) / humans if humans else None,
        perceived if survivors else None,
        (q_cav_a * t_a + q_cav_b * t_b) / fleet if fleet else None,
    ]
    return ",".join(map(_fmt, cells))


class TestDailyRows:
    """Each distinct bit pattern of a run is formatted once, to the bytes of formatting every cell."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        days=st.lists(
            st.tuples(*[st.one_of(st.just(0), st.integers(0, 3000))] * 4,
                      *[st.one_of(st.sampled_from(CELL_FLOATS), st.floats(-1e300, 1e300))] * 3),
            max_size=30,
        ),
        survivors=st.booleans(),
    )
    def test_rows_equal_every_cell_formatted(self, days, survivors):
        expected = [scalar_row(d, *day, survivors=survivors) for d, day in enumerate(days, start=1)]
        # A mean of finite values may still overflow: such a day fails, as the next test shows.
        if not any(cell in row for row in expected for cell in ("inf", "nan")):
            assert _daily_rows(column_log(days, survivors)) == expected

    def test_zeros_of_either_sign_keep_their_text(self):
        # The human mean is -0.0 only when both weighted times are: -0.0 + 0.0 is 0.0.
        days = [(1, 0, 0, 0, -0.0, 0.0, -0.0)] * 2 + [(1, 1, 0, 0, -0.0, -0.0, 0.0)]
        assert _daily_rows(column_log(days)) == [
            "1,1,0,0,0,-0.0,0.0,0.0,-0.0,NA", "2,1,0,0,0,-0.0,0.0,0.0,-0.0,NA", "3,1,1,0,0,-0.0,-0.0,-0.0,0.0,NA",
        ]

    @pytest.mark.parametrize("days, survivors", [
        # One value repeated down a column and across the columns, times and means alike.
        ([(2, 0, 0, 1, 7.25, 7.25, 7.25)] * 3 + [(0, 3, 1, 0, 7.25, 9.5, 9.5), (1, 1, 0, 0, 9.5, 7.25, 7.25)], True),
        # 0.0 and -0.0 alternate down every float column.
        ([(1, 0, 1, 0, -0.0, 0.0, -0.0), (1, 0, 1, 0, 0.0, -0.0, 0.0)] * 2, True),
        # Absent means whose stored value is NaN: no humans and no fleet on a day give 0/0.
        ([(0, 0, 0, 0, 4.0, 6.0, 4.0), (1, 0, 0, 0, 4.0, 6.0, 4.0), (0, 0, 0, 2, 4.0, 6.0, 4.0)], True),
        # Absent perceived means whose stored value is finite, or not: no driver stays human.
        ([(1, 1, 0, 0, 4.0, 6.0, 4.0), (1, 1, 0, 0, 4.0, 6.0, -0.0), (1, 1, 0, 0, 4.0, 6.0, math.inf)], False),
    ])
    def test_repeated_signed_and_absent_values_keep_their_cell_text(self, days, survivors):
        expected = [scalar_row(d, *day, survivors=survivors) for d, day in enumerate(days, start=1)]
        assert _daily_rows(column_log(days, survivors)) == expected

    @pytest.mark.parametrize("cav_share", [0.0, 0.3, 1.0])
    def test_na_marks_exactly_the_empty_groups(self, cav_share):
        config = ScenarioConfig(base_population=40, cav_share=cav_share, phase_lengths=(3, 2, 2, 3), seed=3)
        log = run_scenario(config)
        rows = [row.split(",") for row in _daily_rows(log)]
        header = DAILY_HEADER.split(",")
        na = {(int(row[0]), header[k]) for row in rows for k, cell in enumerate(row) if cell == "NA"}
        # daily_means gives the three mean columns, in the file's order, and the days each is present on.
        absent = {(day, column) for column, (_, present) in zip(header[-3:], daily_means(log))
                  for day in (np.flatnonzero(~present) + 1).tolist()}
        expected = {(day, "mean_cav_time") for day in range(1, config.m_day + 1)}
        if cav_share == 0.0:  # no fleet on any day
            expected |= {(day, "mean_cav_time") for day in range(1, config.total_days + 1)}
        if cav_share == 1.0:  # no survivors: no perceived mean, and no humans after the hand-over
            expected |= {(day, "mean_perceived_hdv_time") for day in range(1, config.total_days + 1)}
            expected |= {(day, "mean_hdv_time") for day in range(config.m_day + 1, config.total_days + 1)}
        assert na == expected and absent == expected

    @pytest.mark.parametrize("column", ["t_a", "t_b", "mean_hdv_time", "mean_perceived_hdv_time", "mean_cav_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_present_value_fails_the_run(self, column, value):
        day = [3, 2, 1, 1, 10.0, 20.0, 12.0]  # humans, fleet vehicles and survivors: every mean is present
        if column in ("t_a", "t_b"):
            day[4 + (column == "t_b")] = value
        elif column == "mean_perceived_hdv_time":
            day[6] = value
        else:
            # Finite times whose mean over one present group is not: 2e308 overflows,
            # and 1e308 against -1e308 overflows both ways, to nan.  The other group is empty.
            day[:4] = (2, 2, 0, 0) if column == "mean_hdv_time" else (0, 0, 2, 2)
            day[4:6] = (1e308, 1e308 if value == math.inf else -1e308)
        days = [(3, 2, 1, 1, 10.0, 20.0, 12.0), tuple(day), (3, 2, 1, 1, 10.0, 20.0, 12.0)]
        with pytest.raises(RuntimeError, match=r"^non-finite value on day 2: 2,"):
            _daily_rows(column_log(days))


class TestReplicateAndTest:
    def test_metric_against_itself_is_degenerate(self):
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        result = replicate_and_test(config, "tau", config, "tau", seeds=[1, 2, 3])
        assert result.degenerate

    def test_two_windows_of_the_same_runs(self):
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        result = replicate_and_test(config, "tau_b", config, "tau", seeds=[1, 2, 3, 4])
        assert result.degrees_of_freedom == 3
        assert result.t_statistic is not None

    def test_unknown_metric_rejected(self):
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        with pytest.raises(ValueError, match="unknown metric"):
            replicate_and_test(config, "velocity", config, "tau", seeds=[1, 2])

    def test_repeated_seed_rejected(self):
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        with pytest.raises(ValueError, match="distinct"):
            replicate_and_test(config, "tau_b", config, "tau", seeds=[1, 2, 1])

    @pytest.mark.parametrize("seeds", [[1], [], [2, 2]])
    def test_fewer_than_two_distinct_seeds_refused_before_any_run(self, monkeypatch, seeds):
        def no_run(configs):
            raise AssertionError("a run started")

        monkeypatch.setattr(bottlesim.expcli, "run_state", no_run)
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        with pytest.raises(ValueError, match="at least 2 distinct seeds"):
            replicate_and_test(config, "tau_b", config, "tau", seeds=seeds)

    def test_seeds_may_come_from_a_generator(self):
        config = ScenarioConfig(base_population=60, phase_lengths=(5, 5, 5, 5))
        expected = replicate_and_test(config, "tau_b", config, "tau", seeds=[1, 2, 3])
        assert replicate_and_test(config, "tau_b", config, "tau", seeds=(seed for seed in (1, 2, 3))) == expected

    def test_configs_share_their_human_only_days_at_each_seed(self, monkeypatch):
        selfish = ScenarioConfig(base_population=100, cav_share=0.1, strategy="Selfish")
        social = dataclasses.replace(selfish, strategy="Social")
        step_day = bottlesim.engine.step_day
        calls = []

        def counted(state):
            step_day(state)
            calls.append(len(state.rows))

        monkeypatch.setattr(bottlesim.engine, "step_day", counted)
        result = replicate_and_test(selfish, "tau_b", social, "tau", seeds=[1, 2])
        # Both seeds step as rows of one state: 200 shared days, then 200 days for each
        # of the two fleets at each seed.
        assert calls == [2] * 200 + [4] * 200
        monkeypatch.undo()

        def alone(config, metric):
            runs = [run_scenario(dataclasses.replace(config, seed=seed)) for seed in (1, 2)]
            return [getattr(compute_window_averages(log), metric) for log in runs]

        expected = paired_t_test(alone(selfish, "tau_b"), alone(social, "tau"))
        assert expected.t_statistic is not None
        assert result == expected

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=4, unique=True),
        fleets=st.lists(st.tuples(st.sampled_from(bottlesim.STRATEGY_NAMES),
                                  st.sampled_from([0.0, 0.2, 0.5, 1.0])), min_size=2, max_size=2),
        metrics=st.tuples(st.sampled_from(["tau_b", "tau", "frac_a_hdv"]),
                          st.sampled_from(["tau_b", "tau", "opt_gap"])),
        phases=st.sampled_from([(2, 3, 2, 3), (0, 3, 1, 2), (3, 3, 3, 3)]),
    )
    def test_equals_the_t_test_over_solo_runs(self, seeds, fleets, metrics, phases):
        base = ScenarioConfig(base_population=30, phase_lengths=phases)
        (s_a, share_a), (s_b, share_b) = fleets
        config_a = dataclasses.replace(base, strategy=s_a, cav_share=share_a)
        config_b = dataclasses.replace(base, strategy=s_b, cav_share=share_b)
        try:
            result = replicate_and_test(config_a, metrics[0], config_b, metrics[1], seeds=seeds)
        except ValueError as exc:  # an absent metric, e.g. no humans left at share 1
            assert "absent" in str(exc)
            return

        def alone(config, metric):
            return [
                getattr(compute_window_averages(run_scenario(dataclasses.replace(config, seed=seed))), metric)
                for seed in seeds
            ]

        assert result == paired_t_test(alone(config_a, metrics[0]), alone(config_b, metrics[1]))


class TestCli:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(FAST))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert "wrote 1 run(s)" in capsys.readouterr().out

    def test_run_refuses_a_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(FAST, seeds=[1, 2]))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_sweep_accepts_a_grid(self, tmp_path):
        config = write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.5]))
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out), "--jobs", "1"]) == 0
        summary = (out / "summary.csv").read_text(encoding="utf-8")
        assert len(summary.splitlines()) == 3

    def test_missing_config_is_a_validation_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_invalid_field_is_a_validation_error(self, tmp_path):
        config = write_config(tmp_path, {"beta": -2})
        assert main(["run", str(config)]) == 1

    @pytest.mark.parametrize(
        "doc,field",
        [
            # 2**62 drivers: numpy refuses their taste array as too big.
            ({"base_population": 2**62}, "base_population"),
            ({"base_population": 2**58, "congestion": [1.0, 2.0]}, "congestion"),
            # 2**60 fits at congestion 0.25 (2**58 drivers), so 1.0 is the value at fault.
            ({"base_population": 2**60, "congestion": [0.25, 1.0]}, "congestion"),
            ({"base_population": 2**60, "congestion": [1.0, 0.25]}, "congestion"),
            # No congestion value of the file holds 2**62.
            ({"base_population": 2**62, "congestion": 0.5}, "base_population"),
        ],
    )
    def test_population_beyond_array_limit_is_a_validation_error(self, tmp_path, capsys, doc, field):
        out = tmp_path / "out"
        config = write_config(tmp_path, dict(FAST, **doc))
        assert main(["sweep", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: congestion ")
        assert not out.exists()

    def test_population_is_checked_at_the_files_own_congestion(self, tmp_path):
        config = write_config(tmp_path, {"base_population": 2**60, "congestion": 0.25})
        (point,) = load_config(config).run_points()
        assert point.total_population == 2**58

    @staticmethod
    def run_python(args, cwd):
        """Run ``python -W error::RuntimeWarning ARGS`` in a fresh interpreter."""
        src = str(Path(bottlesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", *args],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )

    @classmethod
    def run_cli(cls, args, cwd):
        """Run ``python -W error::RuntimeWarning -m bottlesim ARGS`` in a fresh interpreter."""
        return cls.run_python(["-m", "bottlesim", *args], cwd)

    def test_library_import_leaves_argparse_unloaded(self, tmp_path):
        # Only the CLI needs argparse; a library import (and the benchmark's setup time) skips it.
        script = "import sys, bottlesim; sys.exit('argparse' in sys.modules)"
        proc = self.run_python(["-c", script], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_library_use_leaves_the_process_pool_unloaded(self, tmp_path):
        # Only a sweep at jobs > 1 imports concurrent.futures and multiprocessing.  Nor does
        # the import or a config load hashlib: the daily file names and numpy.random do.
        config = write_config(tmp_path, dict(FAST, seeds=[1, 2]))
        script = "\n".join([
            "import sys",
            "import bottlesim",
            "def loaded(*names): return [name for name in ('concurrent.futures', 'multiprocessing', *names)"
            " if name in sys.modules]",
            "assert loaded('hashlib') == [], loaded('hashlib')",
            f"spec = bottlesim.load_config({str(config)!r})",
            "assert loaded('hashlib') == [], loaded('hashlib')",
            "spec.out_dir = 'out'",
            "bottlesim.run_experiment(spec, jobs=1)",
            "assert loaded() == [], loaded()",
            "config = spec.run_points()[0]",
            "bottlesim.replicate_and_test(config, 'tau', config, 'tau_b', seeds=[1, 2])",
            "assert loaded() == [], loaded()",
            "import concurrent.futures",
            "assert bottlesim.expcli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor",
        ])
        proc = self.run_python(["-c", script], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_non_string_out_dir_exits_one_without_traceback(self, tmp_path):
        config = write_config(tmp_path, dict(FAST, out_dir=None))
        proc = self.run_cli(["run", str(config)], tmp_path)
        assert proc.returncode == 1
        assert "out_dir" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [config]

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        proc = self.run_cli(["ttest", "--help"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: bottlesim ttest")

    @pytest.mark.parametrize("jobs", ["0", "-1", "-3"])
    def test_jobs_below_one_is_a_validation_error(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, dict(FAST))
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_directory_is_a_runtime_failure(self, tmp_path):
        config = write_config(tmp_path, dict(FAST))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main(["run", str(config), "--out", str(blocker / "out")]) == 2

    def test_ttest_pair_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(FAST, seeds=[1, 2, 3, 4, 5]))
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out), "--jobs", "1"]) == 0
        capsys.readouterr()
        code = main(["ttest", str(out / "summary.csv"), "--pair", "tau_b,tau"])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.startswith("t=") or printed.startswith("degenerate")

    def test_ttest_metric_mode_needs_two_points(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.5], seeds=[1, 2, 3]))
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out), "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["ttest", str(out / "summary.csv"), "--metric", "tau_b"]) == 0
        assert "df=2" in capsys.readouterr().out

    def test_ttest_degenerate_pair_reported(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(FAST, seeds=[1, 2, 3]))
        out = tmp_path / "out"
        main(["sweep", str(config), "--out", str(out), "--jobs", "1"])
        capsys.readouterr()
        assert main(["ttest", str(out / "summary.csv"), "--pair", "tau,tau"]) == 0
        assert "degenerate" in capsys.readouterr().out

    @pytest.mark.parametrize("args, column, cell, line", [
        (["--pair", "tau_b,tau"], "tau_b", "inf", 2),
        (["--pair", "tau_b,tau"], "tau_b", "nan", 3),
        (["--pair", "tau,tau_b"], "tau_b", "abc", 4),
        (["--pair", "tau_b,tau"], "tau_b", None, 5),  # a short row, cut before tau_b
        (["--metric", "tau"], "seed", "x", 3),
    ])
    def test_ttest_broken_cell_exits_one_naming_column_and_line(
        self, tmp_path, args, column, cell, line,
    ):
        config = write_config(tmp_path, dict(FAST, cav_share=[0.0, 0.5], seeds=[1, 2]))
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out), "--jobs", "1"]) == 0
        lines = (out / "summary.csv").read_text(encoding="utf-8").split("\n")
        cells = lines[line - 1].split(",")
        at = SUMMARY_COLUMNS.index(column)
        cells[at:] = [] if cell is None else [cell, *cells[at + 1:]]
        lines[line - 1] = ",".join(cells)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines), encoding="utf-8")
        proc = self.run_cli(["ttest", str(broken), *args], tmp_path)
        assert proc.returncode == 1
        assert f"{column} is " in proc.stderr and f"on line {line};" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("points, args, message", [
        ([(0.0, 1)], ["--pair", "tau_b,tau"], "pair: need at least 2 pairs, got 1"),
        ([(0.0, 1), (0.5, 1)], ["--metric", "tau"], "metric: need at least 2 pairs, got 1"),
        ([(0.0, 1), (0.5, 1), (1.0, 1)], ["--metric", "tau"],
         "metric: summary must contain exactly two config points, found 3"),
        ([(0.0, 1), (0.0, 2), (0.5, 1), (0.5, 3)], ["--metric", "tau"],
         "metric: the two config points carry different seed sets"),
        ([(0.0, 1), (0.0, 2)], ["--pair", "tau_b,taub"], "column: unknown summary column 'taub'"),
    ])
    def test_ttest_summary_of_the_wrong_shape_exits_one(self, tmp_path, points, args, message):
        # One row per (cav_share, seed) point; every statistic differs by seed.
        n_stats = len(SUMMARY_COLUMNS) - len(POINT_COLUMNS)
        rows = [["Selfish", share, 5.0, 1.0, seed, *(10.0 + seed / k for k in range(1, n_stats + 1))]
                for share, seed in points]
        summary = tmp_path / "summary.csv"
        summary.write_text("\n".join([SUMMARY_HEADER, *(",".join(map(str, row)) for row in rows), ""]), encoding="utf-8")
        proc = self.run_cli(["ttest", str(summary), *args], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    def test_ttest_requires_exactly_one_mode(self, tmp_path):
        config = write_config(tmp_path, dict(FAST))
        out = tmp_path / "out"
        main(["run", str(config), "--out", str(out)])
        assert main(["ttest", str(out / "summary.csv")]) == 1
        assert (
            main(["ttest", str(out / "summary.csv"), "--metric", "tau", "--pair", "tau,tau_b"]) == 1
        )


class TestNonFiniteNumbers:
    """Python's json accepts Infinity and NaN; the CLI must reject them as config errors."""

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"congestion": float("inf")}, "congestion"),
            ({"cav_share": float("nan")}, "cav_share"),
            ({"alpha": float("-inf")}, "alpha"),
            ({"beta": [5.0, float("inf")]}, "beta"),
            ({"congestion": 10**400}, "congestion"),
            ({"base_population": 10**400}, "base_population"),
            ({"alpha": 10**400}, "alpha"),
            (
                {
                    "network": {
                        "route_a": {"free_flow_time": 5, "capacity": 500, "exponent": 2},
                        "route_b": {"free_flow_time": 15, "capacity": 10**400, "exponent": 2},
                    }
                },
                "network.route_b.capacity",
            ),
        ],
    )
    def test_load_config_names_the_field(self, tmp_path, doc, field):
        with pytest.raises(ConfigError, match=field):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"congestion": float("inf")}, "congestion"),
            (
                {
                    "network": {
                        "route_a": {"free_flow_time": float("inf"), "capacity": 500, "exponent": 2},
                        "route_b": {"free_flow_time": 15, "capacity": 800, "exponent": 2},
                    }
                },
                "network.route_a.free_flow_time",
            ),
        ],
    )
    def test_cli_exits_one_without_traceback(self, tmp_path, doc, field):
        config = write_config(tmp_path, dict(FAST, **doc))
        assert "Infinity" in config.read_text(encoding="utf-8")
        src = str(Path(bottlesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out"
        entry = "import sys; from bottlesim.expcli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", entry, "run", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "summary.csv").exists()


def _tiny_route_a(**changes):
    route_a = dict({"free_flow_time": 1e-300, "capacity": 1e-300, "exponent": 2}, **changes)
    return {"route_a": route_a, "route_b": {"free_flow_time": 15, "capacity": 800, "exponent": 2}}


class TestTinyCapacity:
    """A route whose travel time overflows with every driver on it is a config error."""

    def test_config_names_the_route(self):
        network = TwoRouteNetwork(
            route_a=RouteParams(free_flow_time=1e-300, capacity=1e-300, exponent=2.0),
            route_b=RouteParams(free_flow_time=15.0, capacity=800.0, exponent=2.0),
        )
        with pytest.raises(ValueError, match="route_a travel time is not finite at 10 drivers"):
            ScenarioConfig(base_population=10, network=network)
        # A huge but finite time is not this check's business.
        ScenarioConfig(base_population=10, network=dataclasses.replace(
            network, route_a=RouteParams(free_flow_time=5.0, capacity=500.0, exponent=400.0),
        ))

    def test_run_exits_one_naming_network_without_a_warning(self, tmp_path):
        doc = {"base_population": 10, "phase_lengths": [5, 5, 5, 5], "network": _tiny_route_a()}
        proc = TestCli.run_cli(["run", str(write_config(tmp_path, doc)), "--out", "out"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: network: route_a travel time is not finite at 10 drivers")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_congestion_that_overflows_a_route_is_named(self, tmp_path):
        # Finite at 500 drivers, (1000 / 500) ** 1100 overflows at 1000.
        doc = dict(FAST, base_population=500, congestion=[1.0, 2.0],
                   network=_tiny_route_a(free_flow_time=5, capacity=500, exponent=1100))
        with pytest.raises(ConfigError, match="congestion: route_a travel time is not finite at 1000 drivers"):
            load_config(write_config(tmp_path, doc))


# Tastes near 1e307 overflow the survivors' perceived-time sum on day 1, in
# the second prefix row of the one lockstep group; --jobs 2 deals each prefix
# row, one per spread, to its own worker.  (A network whose travel time
# overflows is a config error: see TestTinyCapacity.)
OVERFLOWING = {
    "base_population": 1000,
    "phase_lengths": [5, 5, 5, 5],
    "cav_share": [0.2, 0.4],
    "beta": [5.0, 1e307],
    "seeds": [1],
}
FAILING_POINT = "strategy=Selfish cav_share=0.2 beta=1e+307 congestion=1.0 seed=1"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteOutputs:
    """A run with a non-finite output fails with its config point instead of writing nan."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_experiment_names_the_failing_point(self, tmp_path, jobs):
        spec = load_config(write_config(tmp_path, OVERFLOWING))
        spec.out_dir = tmp_path / "out"
        assert len(plan(spec.run_points(), jobs)) == jobs  # with jobs=2 the failure is in a worker
        with pytest.raises(RuntimeError, match=re.escape(f"{FAILING_POINT} failed: non-finite value on day 1")):
            run_experiment(spec, jobs=jobs)
        assert not (spec.out_dir / "summary.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_leaves_the_output_directory_as_it_was(self, tmp_path, jobs):
        # The previous experiment is the sweep's finite half, so the failing sweep
        # writes the temporaries of files that the previous one holds under their names.
        out = tmp_path / "out"
        previous = load_config(write_config(tmp_path, dict(OVERFLOWING, beta=5.0), "previous.json"))
        previous.out_dir = out
        run_experiment(previous, jobs=1)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 3
        spec = load_config(write_config(tmp_path, OVERFLOWING))
        for out_dir in (out, tmp_path / "fresh" / "out"):
            spec.out_dir = out_dir
            with pytest.raises(RuntimeError, match=re.escape(f"{FAILING_POINT} failed")):
                run_experiment(spec, jobs=jobs)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # and no *.tmp
        assert not (tmp_path / "fresh").exists()

    def test_non_finite_daily_value_fails_the_run(self, tmp_path):
        # Tastes near 1e307 overflow the survivors' perceived-time sum on day 2.
        spec = load_config(write_config(tmp_path, dict(FAST, beta=1e307, seeds=[1])))
        spec.out_dir = tmp_path / "out"
        point = "strategy=Selfish cav_share=0.0 beta=1e+307 congestion=1.0 seed=1"
        with pytest.raises(RuntimeError, match=re.escape(f"{point} failed: non-finite value on day 2: 2,")):
            run_experiment(spec, jobs=1)
        assert not (spec.out_dir / "summary.csv").exists()

    def test_replicate_and_test_names_the_failing_point(self, tmp_path):
        config = load_config(write_config(tmp_path, dict(OVERFLOWING, beta=1e307))).run_points()[0]
        with pytest.raises(RuntimeError, match=re.escape(f"{FAILING_POINT} failed: u_b is inf")):
            replicate_and_test(config, "tau", config, "tau_b", seeds=[1, 2])

    def sweep_overflowing(self, tmp_path, warnings, jobs):
        """Exit status and standard error of the OVERFLOWING sweep run by the CLI."""
        config = write_config(tmp_path, OVERFLOWING)
        src = str(Path(bottlesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out"
        entry = "import sys; from bottlesim.expcli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-W", warnings, "-c", entry, "sweep", str(config), "--out", str(out),
             "--jobs", str(jobs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert not (out / "summary.csv").exists()
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stderr

    def test_cli_exits_two_naming_the_point(self, tmp_path):
        # The overflow makes an inf that the failing run's output check finds;
        # the workers print no numpy warning before the error line.
        status, stderr = self.sweep_overflowing(tmp_path, "default", 2)
        assert status == 2
        assert FAILING_POINT in stderr
        assert "Warning" not in stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cli_names_the_point_when_warnings_are_errors(self, tmp_path, jobs):
        # numpy's warnings are off while a state steps, so an error filter makes
        # no exception: the output check names the failing run, in a worker at --jobs 2.
        status, stderr = self.sweep_overflowing(tmp_path, "error::RuntimeWarning", jobs)
        assert status == 2
        assert f"{FAILING_POINT} failed: non-finite value on day 1: " in stderr
        assert "beta=5.0" not in stderr

    def test_sweep_error_does_not_depend_on_the_warning_filters(self, tmp_path, capsys):
        config = write_config(tmp_path, OVERFLOWING)
        errors = []
        for action in ("default", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert main(["sweep", str(config), "--out", str(tmp_path / action), "--jobs", "1"]) == 2
            assert caught == []
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: run {FAILING_POINT} failed: non-finite value on day 1: ")
        assert errors[0].count("\n") == 1


# A Disruptive fleet whose objective overflows to -inf on day 8 of seed 1, while
# every logged value stays finite; seed 2 makes two prefix rows, one per worker.
NON_FINITE_OBJECTIVE = {
    "base_population": 100, "phase_lengths": [3, 3, 3, 3], "seeds": [1, 2], "cav_share": 0.5,
    "strategy": "Disruptive",
    "network": {"route_a": {"free_flow_time": 3.1910642561087888e+305, "capacity": 500, "exponent": 2},
                "route_b": {"free_flow_time": 9.573192768326367e+305, "capacity": 800, "exponent": 2}},
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_non_finite_fleet_objective_fails_the_sweep(tmp_path, capsys, jobs):
    config = write_config(tmp_path, NON_FINITE_OBJECTIVE)
    assert len(plan(load_config(config).run_points(), jobs)) == jobs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", str(config), "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 2
    point = "strategy=Disruptive cav_share=0.5 beta=5.0 congestion=1.0 seed=1"
    assert capsys.readouterr().err == f"error: run {point} failed: fleet objective is -inf on day 8\n"
    assert not (tmp_path / "out").exists()


class TestFailingState:
    """A failing state is stepped once, and the error names the point of the run that failed first."""

    def test_each_planned_state_is_set_up_once(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, NON_FINITE_OBJECTIVE)
        points = load_config(config).run_points()
        built = []

        class Counted(bottlesim.engine.SimulationState):
            def __init__(self, *configs):
                built.append(list(configs))
                super().__init__(*configs)

        monkeypatch.setattr(bottlesim.engine, "SimulationState", Counted)
        assert main(["sweep", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 2
        assert "fleet objective is -inf on day 8" in capsys.readouterr().err
        assert built == plan(points, 1)  # no run is made again on its own
        built.clear()
        with pytest.raises(RuntimeError, match="seed=1 failed: fleet objective is -inf on day 8$"):
            replicate_and_test(points[0], "tau", points[0], "tau_b", seeds=[1, 2])
        assert built == [points]

    def test_a_later_run_that_fails_on_an_earlier_day_is_named(self, tmp_path, monkeypatch, capsys):
        # Selfish comes first in state order, but Social's objective fails from day 11,
        # the fleet's first, and Selfish's only from day 12.
        fail_from = {bottlesim.STRATEGY_TABLE["Selfish"]: 12, bottlesim.STRATEGY_TABLE["Social"]: 11}
        step_day, fleet_optimize = bottlesim.engine.step_day, bottlesim.engine.fleet_optimize
        today = []

        def stepping(state):
            today[:] = [state.day]
            step_day(state)

        def optimize(weights, *args):
            decision = fleet_optimize(weights, *args)
            if today[0] >= fail_from[weights]:
                return dataclasses.replace(decision, objective_value=-math.inf)
            return decision

        monkeypatch.setattr(bottlesim.engine, "step_day", stepping)
        monkeypatch.setattr(bottlesim.engine, "fleet_optimize", optimize)
        config = write_config(tmp_path, dict(FAST, strategy=["Selfish", "Social"], cav_share=0.5, seeds=[1]))
        selfish, social = points = load_config(config).run_points()
        assert plan(points, 1) == [[selfish, social]]
        with pytest.raises(RuntimeError, match="^fleet objective is -inf on day 12$"):
            run_scenario(selfish)  # alone, Selfish fails too
        assert main(["sweep", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 2
        point = "strategy=Social cav_share=0.5 beta=5.0 congestion=1.0 seed=1"
        assert capsys.readouterr().err == f"error: run {point} failed: fleet objective is -inf on day 11\n"

    def test_a_state_wide_failure_names_the_first_point_of_the_state(self, tmp_path, monkeypatch, capsys):
        def no_room(state):
            raise MemoryError("cannot allocate the state")

        monkeypatch.setattr(bottlesim.expcli, "run_state", no_room)
        config = write_config(tmp_path, dict(FAST, cav_share=[0.2, 0.5], seeds=[1, 2]))
        assert main(["sweep", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 2
        point = "strategy=Selfish cav_share=0.2 beta=5.0 congestion=1.0 seed=1"
        assert capsys.readouterr().err == f"error: run {point} failed: cannot allocate the state\n"
        assert not (tmp_path / "out").exists()


def _huge_network(time_a, time_b):
    return {
        "route_a": {"free_flow_time": time_a, "capacity": 500, "exponent": 2},
        "route_b": {"free_flow_time": time_b, "capacity": 800, "exponent": 2},
    }


class TestOverflowingEquitySpread:
    """Every daily value is finite but (t - S) ** 2 overflows: the gap takes its closed form."""

    def run_one(self, tmp_path, doc):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        (summary,) = csv.DictReader(io.StringIO((out / "summary.csv").read_text(encoding="utf-8")))
        (daily,) = out.glob("daily_*.csv")
        days = list(csv.DictReader(io.StringIO(daily.read_text(encoding="utf-8"))))
        # The flow-weighted SD of two values, |t_a - t_b| * sqrt(q_a q_b) / (q_a + q_b).
        sigmas = []
        for day in days[-doc["phase_lengths"][3]:]:
            q_a = int(day["q_hdv_a"]) + int(day["q_cav_a"])
            q_b = int(day["q_hdv_b"]) + int(day["q_cav_b"])
            sigmas.append(abs(float(day["t_a"]) - float(day["t_b"])) * math.sqrt(q_a * q_b) / (q_a + q_b))
        assert float(summary["equity_gap"]) == sequential_sum(sigmas) / len(sigmas)
        return float(summary["equity_gap"])

    def test_both_routes_at_1e200_run_to_a_finite_gap(self, tmp_path):
        doc = {"base_population": 20, "phase_lengths": [3, 3, 3, 3],
               "network": _huge_network(1e200, 1e200)}
        assert self.run_one(tmp_path, doc) == 8.137519465224619e+195

    def test_route_a_at_1e300_runs_to_a_finite_gap(self, tmp_path):
        doc = dict(FAST, base_population=50, network=_huge_network(1e300, 15))
        assert math.isfinite(self.run_one(tmp_path, doc))


class TestOverflowingTTest:
    """Finite summary values whose paired differences square past the float range still get a t."""

    def test_ttest_agrees_with_the_exact_t(self, tmp_path, capsys):
        # tau - tau_b and rho - tau_b are near 1e199, so their squares overflow.
        doc = {"base_population": 20, "phase_lengths": [3, 3, 3, 3], "seeds": [1, 2, 3], "cav_share": 0.5,
               "network": _huge_network(1e200, 3e200)}
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, doc)), "--out", str(out), "--jobs", "1"]) == 0
        (config, *_) = load_config(write_config(tmp_path, doc)).points
        # Each t of the exact rational mean and variance of the summary's differences.
        for metric, exact in (("tau", 1.5083212138038087), ("rho", 6.92000775427329)):
            capsys.readouterr()
            assert main(["ttest", str(out / "summary.csv"), "--pair", f"tau_b,{metric}"]) == 0
            assert capsys.readouterr().out == f"t={exact:.6f} df=2 significant_at_0.001=false\n"
            result = replicate_and_test(config, "tau_b", config, metric, seeds=[1, 2, 3])
            assert result.t_statistic == pytest.approx(exact, rel=1e-12)


# Config values for the format's property test: valid values seven times in eight, else boundary
# values, wrong types, NaN/inf and 10**400.  An accepted config runs at most 1000 * 10.0 drivers
# for 12 days: phase_lengths is always given, and a larger base_population or congestion fails.
_BAD_NUMBERS = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)])
_WRONG_TYPES = st.sampled_from(["0.2", None, True, [], {}])


def _weighted(common, rare):
    """``common`` seven times in eight, else ``rare``."""
    return st.sampled_from([common] * 7 + [rare]).flatmap(lambda values: values)


def _mostly(valid, *odd):
    """``valid`` seven times in eight, else one of the ``odd`` strategies, a bad number or a wrong type."""
    return _weighted(valid, st.one_of(*odd, _BAD_NUMBERS, _WRONG_TYPES))


_RATES = _mostly(st.sampled_from([0.0, 0.2, 1.0, -0.0, 5e-324]), st.sampled_from([1.0000000000000002, -1e-300]))
_ROUTE_VALUES = _mostly(
    st.sampled_from([5, 15.0, 500, 800.0, 2, 1.0000000000000002, 5e-324, 1e200, 1e300]), st.sampled_from([1.0, 0, -1]),
)
_ROUTE = _mostly(
    st.fixed_dictionaries({"free_flow_time": _ROUTE_VALUES, "capacity": _ROUTE_VALUES, "exponent": _ROUTE_VALUES}),
    st.just({"free_flow_time": 5, "capacity": 500}),
)
_DEFAULT_NETWORK = {"route_a": {"free_flow_time": 5, "capacity": 500, "exponent": 2},
                    "route_b": {"free_flow_time": 15, "capacity": 800, "exponent": 2}}
_AXIS_VALUES = {
    "strategy": _mostly(
        st.sampled_from(bottlesim.STRATEGY_NAMES + ("social", "DISRUPTIVE")), st.sampled_from(["bogus", ""]),
    ),
    "cav_share": _RATES,
    "beta": _mostly(st.sampled_from([5.0, 0.5, 5e-324, 1e307]), st.sampled_from([0.0, -1.0])),
    "congestion": _mostly(st.sampled_from([1.0, 0.5, 2.6, 10.0, 5e-4]), st.sampled_from([1e-300, 1e300, 0.0])),
    "seeds": _mostly(st.sampled_from([0, 1, 2**64 - 1]), st.sampled_from([2**64, -1, 1.0])),
}
_FIELD_VALUES = {
    "base_population": _mostly(st.sampled_from([1, 7, 60, 1000]), st.sampled_from([0, -5, 1.5, 2**63])),
    "alpha": _RATES,
    "epsilon": _RATES,
    "phase_lengths": _mostly(
        st.one_of(st.lists(st.integers(0, 3), min_size=4, max_size=4), st.sampled_from([[12, 0, 0, 0], [0, 0, 0, 12]])),
        st.sampled_from([[3, 3, 3], [1, 1, 1, -1], [1.0, 1, 1, 1], [True, 1, 1, 1], [10**400, 0, 0, 0], 5, "3333"]),
    ),
    "network": _mostly(
        st.one_of(st.just(_DEFAULT_NETWORK), st.fixed_dictionaries({"route_a": _ROUTE, "route_b": _ROUTE})),
        st.just({"route_a": _DEFAULT_NETWORK["route_a"]}),
    ),
}


def _axis(values, scalar=True):
    """An axis as the format writes it: a scalar or a list of one or two values, repeats included; rarely []."""
    values_list = st.lists(values, min_size=1, max_size=2)
    return _weighted(st.one_of(values, values_list) if scalar else values_list, st.just([]))


@st.composite
def config_docs(draw):
    optional = {name: _axis(values, scalar=name != "seeds") for name, values in _AXIS_VALUES.items()}
    optional.update({name: values for name, values in _FIELD_VALUES.items() if name != "phase_lengths"})
    optional["schema"] = _mostly(st.just(1), st.sampled_from([2, "1", 1.0]))
    doc = draw(st.fixed_dictionaries({"phase_lengths": _FIELD_VALUES["phase_lengths"]}, optional=optional))
    if draw(_weighted(st.just(False), st.just(True))):
        doc["taste_spread"] = 5.0  # a ScenarioConfig attribute, but not a field of the format
    return draw(st.permutations(list(doc.items())))


# Config docs that every sweep test of the format runs: a taste spread whose tastes
# overflow (exit 2), a fleet objective that overflows (exit 2) in one state per seed,
# a large finite exponent and route times near 1e200 (exit 0).
PINNED_CONFIG_DOCS = {
    "overflowing_tastes": [("phase_lengths", [1, 1, 1, 1]), ("beta", [1e307])],
    "fleet_objective": [*NON_FINITE_OBJECTIVE.items()],
    "exponent_400": [("phase_lengths", [3, 3, 3, 3]),
                     ("network", {"route_a": {"free_flow_time": 5, "capacity": 500, "exponent": 400},
                                  "route_b": _DEFAULT_NETWORK["route_b"]})],
    "huge_times": [("phase_lengths", [3, 3, 3, 3]), ("cav_share", 0.5), ("network", _huge_network(1e200, 3e200))],
}


def _pinned(test):
    """``test`` with each of PINNED_CONFIG_DOCS as a Hypothesis explicit example."""
    for items in PINNED_CONFIG_DOCS.values():
        test = example(items=items)(test)
    return test


class TestConfigFormat:
    """Every config the format can express runs to finite outputs or fails with exit 1 or 2, naming its cause."""

    KNOWN = {*_FIELDS, *_AXES, "schema", "config", "taste_spread"}

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(items=config_docs())
    @_pinned
    def test_a_sweep_runs_or_fails_by_its_exit_code(self, items):
        self.sweep_runs_or_fails(items, jobs=1)

    # A pool per generated example would cost too much, so only the pins run at --jobs 2.
    @pytest.mark.parametrize("items", PINNED_CONFIG_DOCS.values(), ids=PINNED_CONFIG_DOCS)
    def test_a_pinned_sweep_runs_or_fails_by_its_exit_code_at_two_jobs(self, items):
        self.sweep_runs_or_fails(items, jobs=2)

    def sweep_runs_or_fails(self, items, jobs):
        """Sweep the config doc ``items`` at ``jobs`` through the CLI and check how it ends."""
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(dict(items)), encoding="utf-8")
            with contextlib.suppress(ConfigError):
                for point in load_config(config).points:  # no example may allocate much
                    assert point.total_population <= 10_000 and point.total_days <= 12
            out, err = Path(tmp) / "out", io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                status = main(["sweep", str(config), "--out", str(out), "--jobs", str(jobs)])
            assert caught == []
            err = err.getvalue()
            assert status in (0, 1, 2)
            assert "Traceback" not in err and "Warning" not in err
            if status == 0:
                assert err == ""
                with (out / "summary.csv").open(encoding="utf-8", newline="") as f:
                    rows = list(csv.DictReader(f))
                assert len(list(out.glob("daily_*.csv"))) == len(rows)
                cells = [value for row in rows for name, value in row.items() if name != "strategy"]
                assert all(math.isfinite(float(cell)) for cell in cells if cell != "NA")
            elif status == 1:
                field = re.match(r"error: ([^:]+): ", err).group(1)
                assert field in self.KNOWN or re.fullmatch(r"network\.route_[ab](\.\w+)?", field), err
