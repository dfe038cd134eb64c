"""Time one cold set-up of a workload and print it as JSON.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORK_DIR SRC_DIR

Set-up is the import of bottlesim (numpy included), parsing the workload's
configs and constructing its first SimulationState.  The benchmark starts a
fresh interpreter for every measurement, so numpy, bottlesim and
metrics.system_optimum's cache are cold each time, as a fresh
``bottlesim sweep`` sees them.
"""

import json
import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, work, src = argv
    workload = workloads.make(name, int(seed), Path(work))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bottlesim

    inputs = workload.setup(bottlesim)
    bottlesim.engine.SimulationState(workload.first_config(inputs))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
