"""Golden outputs: the exact bytes of a fixed grid of runs and one t-statistic.

The digests in ``data/golden_digests.json`` are fixed test data: every
CSV the experiment harness writes for the grid below must hash to them.
A digest may change only with a real model fix, explained in CHANGES.md,
never to let a refactoring or speed-up pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bottlesim.expcli import load_config, replicate_and_test, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_digests.json").read_text("utf-8"))

# Experiment name -> config document; each one writes its own summary.csv.
EXPERIMENTS = {
    "grid": {
        "strategy": ["Selfish", "Altruistic", "Malicious", "Disruptive", "Social"],
        "cav_share": [0.1, 0.6],
        "seeds": [1],
    },
    "congestion_2.6": {"strategy": "Selfish", "cav_share": 0.1, "congestion": 2.6, "seeds": [1]},
    "beta_1000": {"strategy": "Selfish", "cav_share": 0.1, "beta": 1000.0, "seeds": [1]},
    # Several taste spreads, fleet shares and seeds in one sweep.
    "beta_mix": {"strategy": "Selfish", "cav_share": [0.1, 0.4], "beta": [0.01, 5.0, 1000.0], "seeds": [1, 2]},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_output_digests(tmp_path, monkeypatch, name):
    monkeypatch.delenv("BOTTLESIM_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EXPERIMENTS[name]), encoding="utf-8")
    spec = load_config(path)
    spec.out_dir = tmp_path / "out"
    run_experiment(spec, jobs=1)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(spec.out_dir.iterdir())
    }
    assert digests == GOLDEN[name]


def test_seed_protocol_t_statistic(monkeypatch):
    # The protocol as the README's "Reproducing the paper" runs it: one config point over ten seeds.
    monkeypatch.delenv("BOTTLESIM_SEED", raising=False)
    points = load_config(Path(__file__).resolve().parents[1] / "configs" / "seed_protocol.json").points
    result = replicate_and_test(points[0], "tau_b", points[0], "tau", seeds=[point.seed for point in points])
    assert repr(result.t_statistic) == "-38.617835844636524"
