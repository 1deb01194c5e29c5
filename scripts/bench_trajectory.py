#!/usr/bin/env python3
"""Per-PR benchmark trajectory: record once, trend forever.

ROADMAP item 5 asks for speedups and regressions to be visible *across*
PRs without re-running history.  This script runs a small fixed panel of
benchmark probes, persists the numbers to
``benchmarks/trajectory/BENCH_<pr>.json``, and regenerates the
``docs/benchmarks.md`` trend table from every JSON in that directory:

* ``python scripts/bench_trajectory.py --pr 8 --write`` — run the panel,
  write ``BENCH_8.json`` and regenerate the table;
* ``python scripts/bench_trajectory.py`` — run the panel and print it
  (no files touched);
* ``python scripts/bench_trajectory.py --check`` — verify (without
  running any benchmark) that ``docs/benchmarks.md`` is exactly what the
  trajectory directory generates; used by ``scripts/check.sh`` / CI so
  the table can never drift from its data.

The panel mixes deterministic protocol metrics (messages per CS, mean
waiting time — identical on every machine) with wall-clock throughputs
(events/s, requests/s — machine-dependent, still useful as a trend on a
stable CI runner).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

TRAJECTORY_DIR = os.path.join(REPO, "benchmarks", "trajectory")
DOC_PATH = os.path.join(REPO, "docs", "benchmarks.md")
TRACE = os.path.join(REPO, "examples", "data", "sample.swf")


def run_panel() -> dict:
    """Run the benchmark panel once and return its measurements."""
    import pickle

    from repro.experiments.runner import run
    from repro.experiments.scenario import Scenario
    from repro.sim.engine import Simulator
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.params import WorkloadParams
    from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

    metrics: dict = {}

    # -- kernel: raw event dispatch ---------------------------------- #
    n_events = 200_000
    nop = lambda: None
    sim = Simulator()
    for i in range(n_events):
        sim.schedule(float(i % 97) * 0.01, nop)
    t0 = time.perf_counter()
    sim.run()
    metrics["kernel_events_per_s"] = round(n_events / (time.perf_counter() - t0))

    # -- closed loop: the paper's algorithm at benchmark scale -------- #
    bench = WorkloadParams(
        num_processes=10, num_resources=24, phi=4,
        duration=1_500.0, warmup=200.0, seed=1,
    )
    t0 = time.perf_counter()
    result = run(Scenario(algorithm="with_loan", params=bench))
    elapsed = time.perf_counter() - t0
    metrics["closed_loop_events_per_s"] = round(result.events_processed / elapsed)
    metrics["closed_loop_msgs_per_cs"] = round(result.metrics.messages_per_cs, 2)
    metrics["closed_loop_mean_wait_ms"] = round(result.metrics.waiting.mean, 2)

    # -- open loop, chunked records ----------------------------------- #
    scenario = Scenario(
        algorithm="with_loan",
        params=WorkloadParams(
            num_processes=8, num_resources=20, phi=4,
            duration=3_000.0, warmup=300.0, seed=1,
        ),
        workload=OpenLoopSpec(arrival=PoissonArrivals(rate=0.03)),
        record_chunk_rows=128,
    )
    t0 = time.perf_counter()
    result = run(scenario)
    elapsed = time.perf_counter() - t0
    metrics["open_loop_requests_per_s"] = round(result.metrics.issued / elapsed)
    metrics["open_loop_mean_wait_ms"] = round(result.metrics.waiting.mean, 2)

    # -- trace replay -------------------------------------------------- #
    scenario = Scenario(
        algorithm="with_loan",
        params=WorkloadParams(
            num_processes=8, num_resources=20, phi=4,
            duration=4_000.0, warmup=400.0, seed=1,
        ),
        workload=TraceReplaySpec(path=TRACE),
    )
    t0 = time.perf_counter()
    result = run(scenario)
    elapsed = time.perf_counter() - t0
    metrics["trace_jobs_per_s"] = round(result.metrics.issued / elapsed)

    # -- result transport ---------------------------------------------- #
    quick = WorkloadParams(
        num_processes=8, num_resources=20, phi=4,
        duration=1_200.0, warmup=150.0, seed=1,
    )
    result = run(Scenario(algorithm="with_loan", params=quick))
    blob = pickle.dumps(result.record_columns, protocol=pickle.HIGHEST_PROTOCOL)
    metrics["records_payload_bytes"] = len(blob)

    return metrics


#: docs/benchmarks.md columns: (JSON metric key, table header).
COLUMNS = (
    ("kernel_events_per_s", "kernel ev/s"),
    ("closed_loop_events_per_s", "closed ev/s"),
    ("closed_loop_msgs_per_cs", "msgs/cs"),
    ("closed_loop_mean_wait_ms", "wait (ms)"),
    ("open_loop_requests_per_s", "open-loop req/s"),
    ("trace_jobs_per_s", "trace jobs/s"),
    ("records_payload_bytes", "payload (B)"),
)


def load_trajectory() -> list:
    """All recorded BENCH_<pr>.json entries, sorted by PR number."""
    entries = []
    if not os.path.isdir(TRAJECTORY_DIR):
        return entries
    for name in os.listdir(TRAJECTORY_DIR):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if not match:
            continue
        with open(os.path.join(TRAJECTORY_DIR, name)) as fh:
            data = json.load(fh)
        data.setdefault("pr", int(match.group(1)))
        entries.append(data)
    return sorted(entries, key=lambda e: e["pr"])


def render_doc(entries: list) -> str:
    """The full ``docs/benchmarks.md`` text for the given trajectory."""
    lines = [
        "# Benchmark trajectory",
        "",
        "One row per PR, recorded by [`scripts/bench_trajectory.py`](../scripts/bench_trajectory.py)",
        "(`--pr <n> --write`) and checked for staleness in CI (`--check`).",
        "Wall-clock columns (`ev/s`, `req/s`, `jobs/s`) depend on the recording",
        "machine and are a trend, not a contract; `msgs/cs`, `wait` and the",
        "records payload size are deterministic protocol/transport metrics —",
        "a change there is a behaviour change, not noise.",
        "",
        "Probes: raw kernel dispatch (200k no-op events); the paper's loan",
        "algorithm in the closed loop at benchmark scale (N=10, M=24); an",
        "open-loop Poisson run with chunked record collection; a replay of the",
        "bursty SWF sample trace; and the pickled size of the quick-run record",
        "columns (the per-run IPC payload).",
        "",
    ]
    if not entries:
        lines.append("*(no trajectory recorded yet)*")
        lines.append("")
        return "\n".join(lines)
    header = ["PR", "recorded"] + [title for _, title in COLUMNS]
    rows = []
    for entry in entries:
        metrics = entry.get("metrics", {})
        rows.append(
            [str(entry["pr"]), str(entry.get("recorded", "?"))]
            + [str(metrics.get(key, "—")) for key, _ in COLUMNS]
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    fmt = lambda cells: "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines.append(fmt(header))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt(row) for row in rows)
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="PR number to record the panel under")
    parser.add_argument(
        "--write", action="store_true",
        help="write benchmarks/trajectory/BENCH_<pr>.json and regenerate docs/benchmarks.md",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify docs/benchmarks.md matches the trajectory directory (no benchmarks run)",
    )
    args = parser.parse_args()

    if args.check:
        expected = render_doc(load_trajectory())
        try:
            with open(DOC_PATH) as fh:
                actual = fh.read()
        except FileNotFoundError:
            actual = None
        if actual != expected:
            print(
                "docs/benchmarks.md is stale; regenerate with "
                "`python scripts/bench_trajectory.py --pr <n> --write` "
                "(or re-render without new data via --write after restoring "
                "benchmarks/trajectory/)",
                file=sys.stderr,
            )
            sys.exit(1)
        print("docs/benchmarks.md is up to date with benchmarks/trajectory/")
        return

    if args.write and args.pr is None:
        parser.error("--write requires --pr")

    metrics = run_panel()
    for key, value in metrics.items():
        print(f"{key:28s} {value}")

    if not args.write:
        return

    os.makedirs(TRAJECTORY_DIR, exist_ok=True)
    entry = {
        "pr": args.pr,
        "recorded": datetime.date.today().isoformat(),
        "metrics": metrics,
    }
    path = os.path.join(TRAJECTORY_DIR, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(DOC_PATH, "w") as fh:
        fh.write(render_doc(load_trajectory()))
    print(f"\nwrote {os.path.relpath(path, REPO)} and regenerated docs/benchmarks.md")


if __name__ == "__main__":
    main()
