import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bottlesim
from bottlesim import (
    HumanParams,
    RouteParams,
    ScenarioConfig,
    TwoRouteNetwork,
    compute_window_averages,
    paired_t_test,
    run_scenario,
)
from bottlesim.expcli import (
    ConfigError,
    _tasks,
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
        assert point.human_params.taste_spread == 5.0
        assert point.congestion == 1.0
        assert point.human_params.learning_rate == 0.2
        assert point.human_params.explore_rate == 0.1
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
                human_params=HumanParams(learning_rate=0.35, explore_rate=0.05, taste_spread=float(beta)),
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
        expected.sort(key=lambda c: (c.strategy, c.cav_share, c.human_params.taste_spread,
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
        tasks = _tasks(spec.run_points(), 2)
        assert len(tasks) == 2  # one group of 15 runs, dealt to two workers
        spec.out_dir = tmp_path / "seq"
        run_experiment(spec, jobs=1)
        sequential = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        spec.out_dir = tmp_path / "par"
        run_experiment(spec, jobs=2)
        parallel = {p.name: p.read_bytes() for p in spec.out_dir.iterdir()}
        assert len(sequential) == 16
        assert sequential == parallel

    def test_tasks_group_runs_by_shared_days(self, tmp_path):
        doc = dict(FAST, cav_share=[0.1, 0.5], strategy=["Selfish", "Social"],
                   congestion=[0.5, 1.0], seeds=[1, 2])
        configs = load_config(write_config(tmp_path, doc)).run_points()
        for jobs in (1, 2, 4):
            tasks = _tasks(configs, jobs)
            assert len(tasks) == 4
            assert sorted(map(repr, sum(tasks, []))) == sorted(map(repr, configs))
            for task in tasks:
                assert len({(c.congestion, c.seed) for c in task}) == 1
                assert len(task) == 4
        # Fewer groups than jobs: each group is dealt round-robin, at most one run per chunk.
        one_group = [c for c in configs if c.congestion == 0.5 and c.seed == 1]
        assert _tasks(one_group, 2) == [one_group[0::2], one_group[1::2]]
        assert _tasks(one_group, 8) == [[c] for c in one_group]

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

    def test_configs_share_their_human_only_days_at_each_seed(self, monkeypatch):
        selfish = ScenarioConfig(base_population=100, cav_share=0.1, strategy="Selfish")
        social = dataclasses.replace(selfish, strategy="Social")
        step_day = bottlesim.engine.step_day
        calls = []

        def counted(state):
            calls.append(state.day)
            return step_day(state)

        monkeypatch.setattr(bottlesim.engine, "step_day", counted)
        result = replicate_and_test(selfish, "tau_b", social, "tau", seeds=[1, 2])
        # Per seed: 200 shared days, then 200 days for each of the two fleets.
        assert len(calls) == 2 * (200 + 2 * 200)
        monkeypatch.undo()

        def alone(config, metric):
            runs = [run_scenario(dataclasses.replace(config, seed=seed)) for seed in (1, 2)]
            return [getattr(compute_window_averages(log), metric) for log in runs]

        expected = paired_t_test(alone(selfish, "tau_b"), alone(social, "tau"))
        assert expected.t_statistic is not None
        assert result == expected


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
        ],
    )
    def test_population_beyond_array_limit_is_a_validation_error(self, tmp_path, capsys, doc, field):
        out = tmp_path / "out"
        config = write_config(tmp_path, dict(FAST, **doc))
        assert main(["sweep", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: congestion ")
        assert not out.exists()

    @staticmethod
    def run_cli(args, cwd):
        """Run ``python -W error::RuntimeWarning -m bottlesim ARGS`` in a fresh interpreter."""
        src = str(Path(bottlesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bottlesim", *args],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )

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


# Route A's exponent 2000 overflows the fleet's objective curve once more than
# about 717 vehicles could use it: 0 * inf makes the optimality gap nan.
OVERFLOWING = {
    "base_population": 1000,
    "phase_lengths": [5, 5, 5, 5],
    "cav_share": 0.2,
    "congestion": [0.5, 1.0],
    "seeds": [1],
    "network": {
        "route_a": {"free_flow_time": 5, "capacity": 500, "exponent": 2000},
        "route_b": {"free_flow_time": 15, "capacity": 800, "exponent": 2},
    },
}
FAILING_POINT = "strategy=Selfish cav_share=0.2 beta=5.0 congestion=1.0 seed=1"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteOutputs:
    """A run with a non-finite output fails with its config point instead of writing nan."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_experiment_names_the_failing_point(self, tmp_path, jobs):
        spec = load_config(write_config(tmp_path, OVERFLOWING))
        spec.out_dir = tmp_path / "out"
        assert len(_tasks(spec.run_points(), jobs)) == 2  # with jobs=2 the failure is in a worker
        with pytest.raises(RuntimeError, match=f"{FAILING_POINT} failed: opt_gap is nan"):
            run_experiment(spec, jobs=jobs)
        assert not (spec.out_dir / "summary.csv").exists()

    def test_non_finite_daily_value_fails_the_run(self, tmp_path):
        # Tastes near 1e307 overflow the survivors' perceived-time sum on day 2.
        spec = load_config(write_config(tmp_path, dict(FAST, beta=1e307, seeds=[1])))
        spec.out_dir = tmp_path / "out"
        point = "strategy=Selfish cav_share=0.0 beta=1e+307 congestion=1.0 seed=1"
        with pytest.raises(RuntimeError, match=re.escape(f"{point} failed: non-finite value on day 2: 2,")):
            run_experiment(spec, jobs=1)
        assert not (spec.out_dir / "summary.csv").exists()

    def test_replicate_and_test_names_the_failing_point(self, tmp_path):
        config = load_config(write_config(tmp_path, dict(OVERFLOWING, congestion=1.0))).run_points()[0]
        with pytest.raises(RuntimeError, match=f"{FAILING_POINT} failed: opt_gap is nan"):
            replicate_and_test(config, "tau", config, "tau_b", seeds=[1, 2])

    def test_overflowing_equity_spread_fails_the_run(self, tmp_path, capsys):
        # Every daily value is finite, but (t_a - S) ** 2 overflows on every day.
        network = {
            "route_a": {"free_flow_time": 1e300, "capacity": 500, "exponent": 2},
            "route_b": {"free_flow_time": 15, "capacity": 800, "exponent": 2},
        }
        config = write_config(tmp_path, dict(FAST, base_population=50, network=network))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        point = "strategy=Selfish cav_share=0.0 beta=5.0 congestion=1.0 seed=0"
        assert f"{point} failed: equity_gap is inf" in err
        assert "out of range" not in err
        assert not (out / "summary.csv").exists()

    def test_cli_exits_two_naming_the_point(self, tmp_path):
        config = write_config(tmp_path, OVERFLOWING)
        src = str(Path(bottlesim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "out"
        entry = "import sys; from bottlesim.expcli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", entry, "sweep", str(config), "--out", str(out),
             "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert FAILING_POINT in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "summary.csv").exists()
