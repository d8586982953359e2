"""One benchmark pass in a fresh, single-threaded interpreter.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is ``setup`` (start, report ready, exit), ``pass`` (one untraced
pass) or ``trace`` (one traced pass).  The worker imports numpy and the
``eptl`` package from ``src/`` of the checkout, and prints ``ready``,
the CPU seconds it has used for that and the speed kernel's time
(speed.py): the mean of its median of three runs before the imports and
three after.  It then runs the pass and prints its record as one JSON
line.  Starting fresh keeps
the program's ``lru_cache``s empty, as on every ``eptl`` CLI call.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    mode, workload, seed = argv[1], argv[2], int(argv[3])
    from speed import kernel_s

    k0 = time.process_time()
    before = sorted(kernel_s() for _ in range(3))[1]
    kernel_cpu = time.process_time() - k0
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy

    import eptl.cli  # noqa: F401  (the CLI imports every layer)

    setup_cpu = time.process_time() - kernel_cpu
    after = sorted(kernel_s() for _ in range(3))[1]
    print("ready", setup_cpu, (before + after) / 2, flush=True)
    if mode == "setup":
        return 0

    import workloads
    from tracer import Tracer

    result = workloads.run_pass(workload, seed, Tracer() if mode == "trace" else None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
