"""bottlesim benchmark: run one workload at one seed and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's calls, untraced, until ``--seconds`` have
passed and prints the end-to-end metrics of BENCHMARK.json (medians over the
repetitions; set-up time as the median of cold set-ups in fresh interpreters,
spread over the run).  The host these numbers come from is shared and its pace
drifts by up to 1.8x over tens of seconds, so every repetition is timed
together with a fixed reference kernel, and wall_s is the median of
wall * REFERENCE_S / reference time: the wall time at the reference pace.
setup_s is brought to the same pace by the run's median reference time.  The
raw times are recorded.
``--trace 1`` alternates untraced and traced repetitions for ``--seconds`` and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; ``attempted`` and
``failed`` count simulation runs, a run failing when it raised or failed the
output check.  Provenance, every repetition's time and the traced spans are
written under ``.bench_out/``.

Cache policy: every repetition starts cold, as a fresh ``bottlesim sweep``
does.  metrics.system_optimum's process-wide cache is cleared before each
repetition (pool workers fork from the parent and inherit the cleared cache),
and numpy and bottlesim are imported afresh in every set-up measurement.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden_seed1.json"
SETUP_SAMPLES = 11
# The reference kernel's time on a quiet 2-vCPU Xeon host (the fastest seen there).
# It only sets the scale of wall_s and setup_s; it must never change, or they change with it.
REFERENCE_S = 0.02


def load_program():
    """Import bottlesim from this checkout's src/, or None when it is not there."""
    package = SRC / "bottlesim"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bottlesim

    if Path(bottlesim.__file__).resolve().parent != package.resolve():
        return None
    return bottlesim


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, or None when ROOT is not a git work tree."""
    # The ceiling keeps git from finding a repository above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def optimum_cache(bs):
    """metrics.system_optimum when it carries an lru_cache, else None."""
    fn = getattr(bs.metrics, "system_optimum", None)
    return fn if hasattr(fn, "cache_info") else None


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and numpy calls on small arrays.

    Timed next to every repetition, it tracks how fast the shared host runs at
    that moment; wall_s divides it out.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    threshold = rng.random(1000)
    estimate = np.zeros(1000)
    start = time.perf_counter()
    for _ in range(1000):
        draws = rng.random((1000, 2))
        estimate = np.where(draws[:, 0] < threshold, 0.8 * estimate + 0.2 * draws[:, 1], estimate)
        sum(k * 0.5 for k in range(40))
    return time.perf_counter() - start


def reference_time() -> float:
    """Median of three reference kernel runs: one run alone catches passing bursts."""
    return statistics.median(reference_kernel() for _ in range(3))


class Repetitions:
    """Runs timed repetitions of one workload and tallies the output checks."""

    def __init__(self, bs, workload, work: Path, reference: dict | None) -> None:
        self.bs = bs
        self.workload = workload
        self.work = work
        self.reference = reference
        self.first_digests: dict | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, inputs, jobs: int) -> tuple[float, float] | None:
        """(wall time of the workload's calls, mean reference time around them), or None.

        None means the calls raised; their runs then count as failed.
        """
        cached = optimum_cache(self.bs)
        if cached is not None:
            cached.cache_clear()
        gc.collect()
        out_dir = Path(tempfile.mkdtemp(dir=self.work))
        sample = None
        try:
            before = reference_time()
            start = time.perf_counter()
            result = self.workload.call(self.bs, inputs, out_dir, jobs)
            wall = time.perf_counter() - start
            sample = (wall, (before + reference_time()) / 2)
            failed, digests = self.workload.check(out_dir, result, self.reference)
        except Exception:
            traceback.print_exc()
            failed, digests = self.workload.runs, {}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.first_digests is None:
            self.first_digests = digests
            if self.reference is None and failed == 0:
                self.reference = digests
        self.attempted += self.workload.runs
        self.failed += failed
        return sample


class SetupProbes:
    """Cold set-up times, each from a fresh interpreter running setup_probe.py."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.command = [sys.executable, str(BENCH / "setup_probe.py"), workload.name,
                        str(seed), str(work), str(SRC)]
        self.samples: list[float] = []
        self.warmed = False

    def take(self) -> None:
        proc = subprocess.run(self.command, capture_output=True, text=True, timeout=120,
                              check=True)
        setup = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        if self.warmed:
            self.samples.append(setup)
        self.warmed = True


def scaled(sample: tuple[float, float]) -> float:
    """A repetition's wall time at the reference pace: wall * REFERENCE_S / reference time."""
    wall, reference = sample
    return wall * REFERENCE_S / reference


def end_to_end(bs, workload, reps: Repetitions, seconds: float, jobs: int, seed: int, work: Path):
    inputs = workload.setup(bs)
    probes = SetupProbes(workload, seed, work)
    samples = []
    worker_kb = None
    start = time.perf_counter()
    while reps.attempted == 0 or time.perf_counter() - start < seconds:
        sample = reps.run(inputs, jobs)
        if sample is not None:
            samples.append(sample)
        if worker_kb is None:
            # The probes are children too, so the pool workers' peak is read before the first.
            # A serial workload has no workers; what the figure holds then is inherited
            # across exec from the process that started the benchmark.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
        # The probes are spread over the run, so that their median spans the host's drift.
        # Their time does not count towards --seconds, which leaves it to the repetitions.
        due = (time.perf_counter() - start) * SETUP_SAMPLES / seconds
        probing = time.perf_counter()
        while len(probes.samples) < min(due, SETUP_SAMPLES):
            probes.take()
        start += time.perf_counter() - probing
    while len(probes.samples) < SETUP_SAMPLES:
        probes.take()
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not samples:
        return None, {}
    wall = statistics.median(scaled(sample) for sample in samples)
    # The probes run between repetitions, so the run's median reference time gives their pace.
    pace = REFERENCE_S / statistics.median(reference for _, reference in samples)
    values = {
        "setup_s": statistics.median(probes.samples) * pace,
        "wall_s": wall,
        "driver_days_per_s": workload.driver_days / wall,
        "peak_rss_mb": (parent_kb + worker_kb) / 1024.0,
    }
    raw_walls = [w for w, _ in samples]
    return values, {"raw_wall_s": statistics.median(raw_walls), "raw_walls_s": raw_walls,
                    "reference_s": [reference for _, reference in samples],
                    "setup_samples_s": probes.samples,
                    "parent_peak_rss_kb": parent_kb, "worker_peak_rss_kb": worker_kb}


def traced_pass(bs, workload, reps: Repetitions, jobs: int):
    tracer = spans.Tracer()
    with tracer.installed(bs):
        inputs = workload.setup(bs)
        sample = reps.run(inputs, jobs)
    return tracer, sample


def layer_values(bs, tracer: spans.Tracer) -> dict:
    """Self time and calls of every span, the tracer's tallies and the optimum cache's counts."""
    values = dict(tracer.tallies)
    for span, (self_s, calls) in tracer.layer_totals().items():
        values[f"{span}.self_s"] = self_s
        values[f"{span}.calls"] = calls
    cached = optimum_cache(bs)
    if cached is not None:
        info = cached.cache_info()
        values["metrics.system_optimum.hits"] = info.hits
        values["metrics.system_optimum.misses"] = info.misses
    return values


def per_layer(bs, workload, reps: Repetitions, seconds: float, jobs: int, wanted: list[dict],
              spans_path: Path):
    names = [m["name"] for m in wanted if m["name"] != "trace.overhead_s"]
    timed = {m["name"] for m in wanted if m["unit"] == "s"}
    inputs = workload.setup(bs)
    plain_walls, traced_walls, measured = [], [], []
    start = time.perf_counter()
    while reps.attempted == 0 or time.perf_counter() - start < seconds:
        sample = reps.run(inputs, jobs)
        if sample is not None:
            plain_walls.append(scaled(sample))
        # Spans come from a serial pass: spans inside pool workers never reach the parent.
        tracer, sample = traced_pass(bs, workload, reps, 1)
        values = layer_values(bs, tracer)
        # The pool tallies and the traced wall time come from a pass at the workload's jobs.
        if jobs > 1:
            pool_tracer, sample = traced_pass(bs, workload, reps, jobs)
            values.update((name, pool_tracer.tallies.get(name, 0)) for name in spans.POOL_TALLIES)
        if sample is not None:
            traced_walls.append(scaled(sample))
            measured.append({name: values.get(name, 0) for name in names})
    tracer.write(spans_path)
    if not plain_walls or not traced_walls:
        return None, {}
    counts = [{name: rep[name] for name in names if name not in timed} for rep in measured]
    repeated = all(rep == counts[0] for rep in counts)
    if not repeated:
        print(f"error: counts differ between repetitions: {counts}", file=sys.stderr)
    result = dict(counts[0])
    result.update((name, statistics.median(rep[name] for rep in measured))
                  for name in names if name in timed)
    result["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return result, {"plain_walls_s": plain_walls, "traced_walls_s": traced_walls,
                    "per_repetition": measured, "counts_repeat": repeated}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # BOTTLESIM_SEED would override the seeds of every config the benchmark writes.
    os.environ.pop("BOTTLESIM_SEED", None)
    bs = load_program()
    if bs is None:
        print(f"error: no bottlesim package under {SRC}", file=sys.stderr)
        return 2

    import numpy

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = workloads.make(args.workload, args.seed, work)
    jobs = min(workload.jobs_requested, nproc)
    if nproc < workload.jobs_requested:
        print(f"warning: {nproc} CPU(s) available, {args.workload} asks for "
              f"{workload.jobs_requested} jobs; running with {jobs}", file=sys.stderr)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload)
    reps = Repetitions(bs, workload, work, reference)
    stem = f"{args.workload}-seed{args.seed}"
    try:
        workload.write_inputs()
        if args.trace:
            wanted = spec["per_layer"]
            values, detail = per_layer(bs, workload, reps, args.seconds, jobs, wanted,
                                       OUT / f"{stem}-spans.csv.gz")
            consistent = detail.get("counts_repeat", False)
        else:
            wanted = spec["end_to_end"]
            values, detail = end_to_end(bs, workload, reps, args.seconds, jobs, args.seed, work)
            consistent = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": args.seed, "jobs": jobs,
        "jobs_requested": workload.jobs_requested, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "machine": platform.machine(), "seconds": args.seconds, "trace": args.trace,
        "runs_per_repetition": workload.runs, "driver_days_per_repetition": workload.driver_days,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": reps.failed == 0 and consistent,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }
    record = {"provenance": provenance, "result": result, "detail": detail,
              "digests": reps.first_digests}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if "raw_wall_s" in detail:
        print(f"{'(raw wall time, median)':<40} {detail['raw_wall_s']:>16.6g} s")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
