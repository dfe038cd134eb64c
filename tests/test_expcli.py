import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bottlesim
from bottlesim import ScenarioConfig
from bottlesim.expcli import (
    DAILY_HEADER,
    SUMMARY_HEADER,
    ConfigError,
    load_config,
    main,
    replicate_and_test,
    run_experiment,
)

FAST = {"base_population": 60, "phase_lengths": [5, 5, 5, 5]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        spec = load_config(write_config(tmp_path, {}))
        assert spec.strategies == ("Selfish",)
        assert spec.cav_shares == (0.0,)
        assert spec.betas == (5.0,)
        assert spec.congestions == (1.0,)
        assert spec.learning_rate == 0.2
        assert spec.explore_rate == 0.1
        assert spec.seeds == (0,)
        assert spec.base_population == 1000
        assert spec.phase_lengths == (100, 100, 100, 100)
        assert len(spec.run_points()) == 1

    def test_axes_and_seeds_multiply(self, tmp_path):
        spec = load_config(write_config(tmp_path, {"cav_share": [0.1, 0.4], "seeds": [1, 2]}))
        assert len(spec.run_points()) == 4

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
        assert spec.strategies == ("Selfish", "Social")

    def test_custom_network_parsed(self, tmp_path):
        doc = {
            "network": {
                "route_a": {"free_flow_time": 3, "capacity": 100, "exponent": 2},
                "route_b": {"free_flow_time": 9, "capacity": 300, "exponent": 2},
            }
        }
        spec = load_config(write_config(tmp_path, doc))
        assert spec.network.route_a.capacity == 100

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTTLESIM_SEED", "77")
        spec = load_config(write_config(tmp_path, {"seeds": [1, 2, 3]}))
        assert spec.seeds == (77,)

    def test_invalid_env_seed_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOTTLESIM_SEED", "not-a-number")
        with pytest.raises(ConfigError, match="BOTTLESIM_SEED"):
            load_config(write_config(tmp_path, {}))


class TestRunExperiment:
    def test_single_run_outputs(self, tmp_path):
        spec = load_config(write_config(tmp_path, dict(FAST)))
        spec.out_dir = tmp_path / "out"
        rows = run_experiment(spec, jobs=1)
        assert len(rows) == 1
        summary = (spec.out_dir / "summary.csv").read_text(encoding="utf-8")
        lines = summary.splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 2
        daily_files = sorted(spec.out_dir.glob("daily_*.csv"))
        assert len(daily_files) == 1
        daily = daily_files[0].read_text(encoding="utf-8").splitlines()
        assert daily[0] == DAILY_HEADER
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
