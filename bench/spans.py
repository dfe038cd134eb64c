"""In-memory span recorder for the traced benchmark run.

Each public bottlesim function is wrapped at the module attribute its caller
looks it up by (``bottlesim.engine.fleet_optimize`` for the engine's call,
``bottlesim.expcli.run_scenario`` for the harness's), so the program itself is
unchanged.  A span is (name, start, end, parent) and lives in flat arrays until
the run ends.  Self time is a span's duration minus the time its child spans
cover.  Spans recorded inside pool workers stay in the workers.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

# (module, attribute its caller looks up, span name = defining module + function).
WRAPPED = (
    ("expcli", "load_config", "expcli.load_config"),
    ("expcli", "run_experiment", "expcli.run_experiment"),
    ("expcli", "replicate_and_test", "expcli.replicate_and_test"),
    ("expcli", "write_outputs", "expcli.write_outputs"),
    ("expcli", "run_scenario", "engine.run_scenario"),
    ("expcli", "compute_window_averages", "metrics.compute_window_averages"),
    ("expcli", "paired_t_test", "metrics.paired_t_test"),
    ("engine", "step_day", "engine.step_day"),
    ("engine", "fleet_optimize", "fleet.fleet_optimize"),
    ("engine", "network_travel_times", "network.network_travel_times"),
    ("engine", "day_statistics", "metrics.day_statistics"),
)

# Tallies that only a pass through the process pool produces.
POOL_TALLIES = ("expcli.run_experiment.pool_wait_s", "expcli.pool.result_bytes")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and tallies of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        # Name -> summed amount: counts, bytes, or seconds for pool waits.
        self.tallies: dict[str, float] = {}

    def add(self, name: str, amount) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def wrap(self, fn, name: str, tally=None):
        """``fn`` recording one span per call; ``tally(args, kwargs)`` runs after the span."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(index)
            tracer.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = perf()
                stack.pop()
            if tally is not None:
                tally(args, kwargs)
            return result

        return traced

    def _tally_hooks(self):
        def candidates(args, kwargs):
            self.add("fleet.fleet_optimize.candidates", _arg(args, kwargs, 3, "q_cav") + 1)

        def written(args, kwargs):
            out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
            self.add("expcli.write_outputs.bytes", sum(p.stat().st_size for p in out_dir.iterdir()))

        return {"fleet.fleet_optimize": candidates, "expcli.write_outputs": written}

    @contextlib.contextmanager
    def installed(self, bs):
        """Wrap every layer boundary of the imported package ``bs``; restore on exit."""
        hooks = self._tally_hooks()
        patches = []
        for module_name, attr, name in WRAPPED:
            module = getattr(bs, module_name)
            if not hasattr(module, attr):
                print(f"warning: bottlesim.{module_name}.{attr} not found; {name} is not traced",
                      file=sys.stderr)
                continue
            patches.append((module, attr, self.wrap(getattr(module, attr), name, hooks.get(name))))
        state_cls = bs.engine.SimulationState
        patches.append((state_cls, "__init__", self.wrap(state_cls.__init__, "engine.SimulationState")))
        patches.append((bs.expcli, "ProcessPoolExecutor", self._pool_class()))

        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    def _pool_class(self):
        """A process pool that times the parent's waits for results and sizes them."""
        tracer = self

        class MeasuredPool(ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                results = super().map(*args, **kwargs)

                def measured():
                    while True:
                        start = time.perf_counter()
                        try:
                            item = next(results)
                        except StopIteration:
                            return
                        finally:
                            tracer.add(POOL_TALLIES[0], time.perf_counter() - start)
                        tracer.add(POOL_TALLIES[1], len(ForkingPickler.dumps(item)))
                        yield item

                return measured()

        return MeasuredPool

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, number of calls)."""
        import numpy as np

        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(names, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {name: (float(self_time[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the recorded spans as gzipped CSV: name,start_s,end_s,parent_index."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in zip(self.name_ids, self.starts, self.ends, self.parents):
                fh.write(f"{self.names[name_id]},{start!r},{end!r},{parent}\n")
