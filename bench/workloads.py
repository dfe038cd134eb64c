"""Benchmark workloads: inputs generated from the workload seed, the timed calls, output checks.

This module imports only the standard library, so the set-up probe can load it
before it starts timing the import of bottlesim.  Every workload takes the
bottlesim package as an argument and reaches the library through
``bs.expcli.<name>`` at call time, so the tracer's wrappers take effect.

Output checks hold at any seed: for every written daily CSV, flow conservation
on every day (q_hdv_a + q_hdv_b = humans that day, q_cav_a + q_cav_b = fleet
size), finite positive travel times, and the expected row and run counts; for
the seed protocol, a finite, non-degenerate t-statistic with 9 degrees of
freedom.  At the default seed the SHA-256 of every written file and the repr of
the t-statistic must also equal the golden values stored next to this module;
at other seeds each repetition must reproduce the first one's digests.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 1

# Fixed by the documented output format; a change of it changes every digest.
DAILY_HEADER = (
    "day,q_hdv_a,q_hdv_b,q_cav_a,q_cav_b,t_a,t_b,"
    "mean_hdv_time,mean_perceived_hdv_time,mean_cav_time"
)

# Default phase lengths; every workload keeps them.
PHASES = (100, 100, 100, 100)
M_DAY = PHASES[0] + PHASES[1]
TOTAL_DAYS = sum(PHASES)

# The three grids of the paper's figures (tests/test_acceptance.py::test_14): 115 runs.
PAPER_GRIDS = (
    {"strategy": ["Selfish", "Altruistic", "Malicious", "Disruptive", "Social"],
     "cav_share": [round(0.1 * k, 1) for k in range(11)]},
    {"strategy": "Selfish", "cav_share": [0.05, 0.1, 0.2, 0.4, 0.8],
     "beta": [0.01, 0.1, 1.0, 5.0, 50.0, 1000.0]},
    {"strategy": "Selfish", "cav_share": [0.05, 0.1, 0.2, 0.4, 0.8],
     "congestion": [0.25, 0.5, 1.0, 1.5, 2.0, 2.6]},
)
LARGE_GRID = {"strategy": "Selfish", "cav_share": 0.1, "base_population": 100_000}
PROTOCOL_SHARE = 0.1
PROTOCOL_SEEDS = 10


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _sizes(total: int, share: float) -> tuple[int, int]:
    """(population, fleet size) of a run, by the rounding the README documents."""
    return total, _round_half_up(total * share)


def _driver_days(population: int, fleet: int) -> int:
    return M_DAY * population + (TOTAL_DAYS - M_DAY) * (population - fleet)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _conserved_sizes(rows) -> tuple[int, int] | None:
    """(population, fleet) of one run's days if every day conserves flow, else None.

    ``rows`` yields (day, q_hdv_a, q_hdv_b, q_cav_a, q_cav_b, t_a, t_b).
    """
    population = fleet = None
    count = 0
    for count, (day, qha, qhb, qca, qcb, t_a, t_b) in enumerate(rows, start=1):
        if day != count or not (math.isfinite(t_a) and math.isfinite(t_b) and t_a > 0 and t_b > 0):
            return None
        if day == 1:
            population = qha + qhb
        if day == M_DAY + 1:
            fleet = qca + qcb
        humans = population if day <= M_DAY else population - fleet
        if qha + qhb != humans or qca + qcb != (0 if day <= M_DAY else fleet):
            return None
    if count != TOTAL_DAYS:
        return None
    return population, fleet


def _csv_rows(text: str):
    for line in text.splitlines()[1:]:
        f = line.split(",")
        yield int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4]), float(f[5]), float(f[6])


class GridWorkload:
    """Config files run through load_config and run_experiment, writing CSVs."""

    def __init__(self, name: str, grids, jobs_requested: int, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.jobs_requested = jobs_requested
        self.docs = [dict(grid, seeds=[seed]) for grid in grids]
        self.config_paths = [work / name / f"grid{i}.json" for i in range(len(grids))]
        # Per grid: the expected (strategy, share, beta, congestion, seed) keys and sizes.
        self.points = [self._points(doc) for doc in self.docs]
        self.runs = sum(len(p) for p in self.points)
        self.driver_days = sum(_driver_days(n, f) for grid in self.points for _, n, f in grid)

    @staticmethod
    def _points(doc: dict):
        def axis(key, default):
            value = doc.get(key, default)
            return value if isinstance(value, list) else [value]

        base = doc.get("base_population", 1000)
        points = []
        for strategy, share, beta, congestion, seed in itertools.product(
            axis("strategy", "Selfish"), axis("cav_share", 0.0), axis("beta", 5.0),
            axis("congestion", 1.0), doc["seeds"],
        ):
            key = (strategy, float(share), float(beta), float(congestion), seed)
            points.append((key, *_sizes(_round_half_up(base * congestion), share)))
        return points

    def write_inputs(self) -> None:
        for doc, path in zip(self.docs, self.config_paths):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc), encoding="utf-8")

    def setup(self, bs):
        return [bs.expcli.load_config(path) for path in self.config_paths]

    def first_config(self, specs):
        return specs[0].run_points()[0]

    def call(self, bs, specs, out_dir: Path, jobs: int):
        for i, spec in enumerate(specs):
            spec.out_dir = out_dir / f"grid{i}"
            bs.expcli.run_experiment(spec, jobs=jobs)

    def check(self, out_dir: Path, result, reference: dict | None) -> tuple[int, dict]:
        """Failed runs and the digest of every written file."""
        digests: dict[str, str] = {}
        failed = sum(
            self._check_grid(out_dir / f"grid{i}", f"grid{i}/", points, reference, digests)
            for i, points in enumerate(self.points)
        )
        return failed, digests

    @staticmethod
    def _check_grid(directory: Path, prefix: str, points, reference, digests) -> int:
        def matches(key: str, data: bytes) -> bool:
            digests[key] = _digest(data)
            return reference is None or reference.get(key) == digests[key]

        try:
            summary = (directory / "summary.csv").read_bytes()
        except OSError:
            return len(points)
        rows = list(csv.DictReader(io.StringIO(summary.decode("utf-8"))))
        keys = Counter(
            (r["strategy"], float(r["cav_share"]), float(r["beta"]), float(r["congestion"]),
             int(r["seed"]))
            for r in rows
        )
        daily = sorted(directory.glob("daily_*.csv"))
        if (not matches(prefix + "summary.csv", summary)
                or keys != Counter(key for key, _, _ in points)
                or len(daily) != len(points)):
            return len(points)
        found = Counter()
        for path in daily:
            data = path.read_bytes()
            if not matches(prefix + path.name, data):
                continue
            text = data.decode("utf-8")
            if text.split("\n", 1)[0] != DAILY_HEADER:
                continue
            sizes = _conserved_sizes(_csv_rows(text))
            if sizes is not None:
                found[sizes] += 1
        expected = Counter((n, f) for _, n, f in points)
        return len(points) - sum((found & expected).values())


class SeedProtocol:
    """The paper's significance protocol: a 10-seed paired t-test, in process."""

    name = "seed_protocol"
    jobs_requested = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.seeds = list(range(seed, seed + PROTOCOL_SEEDS))
        self.runs = PROTOCOL_SEEDS
        self.driver_days = PROTOCOL_SEEDS * _driver_days(*_sizes(1000, PROTOCOL_SHARE))

    def write_inputs(self) -> None:
        pass

    def setup(self, bs):
        return bs.ScenarioConfig(cav_share=PROTOCOL_SHARE, strategy="Selfish")

    def first_config(self, config):
        return dataclasses.replace(config, seed=self.seed)

    def call(self, bs, config, out_dir: Path, jobs: int):
        return bs.expcli.replicate_and_test(config, "tau_b", config, "tau", seeds=self.seeds)

    def check(self, out_dir: Path, ttest, reference: dict | None) -> tuple[int, dict]:
        """The t-test is the protocol's only output; it is checked as a whole."""
        digests = {"t_statistic": repr(ttest.t_statistic)}
        ok = (
            ttest.degrees_of_freedom == PROTOCOL_SEEDS - 1
            and not ttest.degenerate
            and ttest.t_statistic is not None
            and math.isfinite(ttest.t_statistic)
            and (reference is None or reference == digests)
        )
        return (0 if ok else self.runs), digests


# Workload name -> factory(seed, work dir).
WORKLOADS = {
    "paper_sweep": lambda seed, work: GridWorkload("paper_sweep", PAPER_GRIDS, 2, seed, work),
    "seed_protocol": SeedProtocol,
    "large_population": lambda seed, work: GridWorkload(
        "large_population", (LARGE_GRID,), 1, seed, work),
}


def make(name: str, seed: int, work: Path):
    """The named workload at the given seed, with its inputs placed under ``work``."""
    return WORKLOADS[name](seed, work)
