"""One set-up in a fresh interpreter: import ``repro``, build the workload.

Run by ``run.py`` as a child process; prints the seconds from the start
of this script to the last normalised scenario key, as JSON.  With
``--run`` it then runs the workload once and adds its peak resident
memory in MB.  Usage:
``python3 perfbench/setup_probe.py <workload> <seed> [--run]``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> None:
    import workloads

    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    keys = [scenario.normalized().key() for scenario in workload.scenarios]
    report = {"setup_s": time.perf_counter() - START, "scenarios": len(keys)}
    if "--run" in sys.argv[3:]:
        workloads.run_once(workload)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
