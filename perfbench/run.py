"""Repeatable end-to-end and per-layer benchmark of the ``repro`` simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload closed-loan-n160 --seed 1 --seconds 12 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs it untraced for half that time,
then once with every layer wrapped (see ``spans.py``) and reports the
per-layer metrics.  Either way the outputs are checked (``checks.py``)
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

The workloads, the metrics and what each one should move are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that change what a run measures; the benchmark
#: refuses to run while any is set.
GUARDED_ENV = ("REPRO_SCHEDULER", "REPRO_TELEMETRY", "REPRO_CACHE_DIR")

#: ``PYTHONHASHSEED`` of every run.  String hashes lay out the dicts the
#: simulator lives on, and how fast a process runs a workload varies with
#: them; a run re-executes itself under this value so that runs compare
#: like with like.
HASH_SEED = "0"

#: Fewest timed repetitions of a workload, however long each one takes.
MIN_REPS = 3
#: Fresh-interpreter set-ups timed per run (after one untimed warm-up).
SETUP_PROBES = 6
#: Seconds of warm-cache fetches per repetition (at least one fetch): a
#: fetch can take under a millisecond, so many are timed to steady the median.
WARM_FETCH_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cache_warm_s": "s",
    "msgs_per_cs": "msgs",
    "wait_mean_ms": "sim_ms",
    "wait_p50_ms": "sim_ms",
    "wait_p99_ms": "sim_ms",
    "use_rate_pct": "%",
    "completion_ratio": "ratio",
}

#: Message classes of the three benchmarked algorithms.
MESSAGE_TYPES = (
    "RequestEnvelope",
    "CounterEnvelope",
    "TokenEnvelope",
    "NTRequest",
    "NTToken",
    "BLInquire",
    "BLResourceToken",
)

PER_LAYER = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.self_share": "ratio",
    "network.sends": "count",
    "network.dropped": "count",
    **{f"network.msgs.{name}": "count" for name in MESSAGE_TYPES},
    "network.self_s": "s",
    "network.self_ns_per_send": "ns",
    "core.handler_calls": "count",
    "core.resends": "count",
    "core.self_s": "s",
    "core.self_share": "ratio",
    "core.self_us_per_msg": "us",
    "baselines.handler_calls": "count",
    "baselines.self_s": "s",
    "baselines.self_us_per_msg": "us",
    "workload.draws": "count",
    "workload.self_s": "s",
    "workload.self_ns_per_draw": "ns",
    "driver.self_s": "s",
    "driver.max_backlog": "count",
    "runner.self_s": "s",
    "collector.calls": "count",
    "collector.self_ns_per_call": "ns",
    "collector.build_s": "s",
    "columns.chunks_sealed": "count",
    "columns.payload_bytes": "bytes",
    "columns.pack_s": "s",
    "columns.unpack_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "scenario.key_s": "s",
    "parallel.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.residual_s": "s",
}


class Outcome:
    """Attempted and failed workload runs, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        """Count one checked run; a non-empty ``problems`` fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(f"{label}: {p}" for p in problems)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Bench:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(self, args: argparse.Namespace, work_dir: str) -> None:
        import checks
        import workloads
        from repro import parallel
        from repro.experiments import runner

        self.args = args
        self.work_dir = work_dir
        self.workload = workloads.build(args.workload, args.seed)
        self.workers = workloads.SWEEP_WORKERS
        self.scenarios = self.workload.scenarios
        self.must_complete = [not workloads.is_lossy(s) for s in self.scenarios]
        self.checks = checks
        self.safety_armed = checks.safety_armed()
        self.outcome = Outcome()
        # Module objects, so calls resolve ``run`` and ``run_sweep`` when
        # made, which is what lets the tracer's patches take effect.
        self.runner = runner
        self.parallel = parallel
        #: RunCaches created while tracing (for hit/miss counts); ``None``
        #: otherwise, so untraced repetitions keep no results alive.
        self.caches: Optional[list] = None
        #: Raw host seconds of each run, printed for context.
        self.raw_walls: List[float] = []

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def _cache(self, path: str):
        cache = self.parallel.RunCache(path=path)
        if self.caches is not None:
            self.caches.append(cache)
        return cache

    def _check(self, results: list, reference: Optional[list], label: str) -> None:
        """Check each result; ``reference`` (same order) must match exactly."""
        for i, result in enumerate(results):
            problems = self.checks.problems(result, self.must_complete[i])
            if not self.safety_armed:
                problems.append("the collector's online safety check is disarmed")
            if reference is not None and (
                self.checks.fingerprint(result) != self.checks.fingerprint(reference[i])
            ):
                problems.append("simulated outputs differ from the reference run")
            self.outcome.record(f"{label} scenario {i}", problems)

    def _run_all(self) -> list:
        return [self.runner.run(scenario) for scenario in self.scenarios]

    def _window(
        self, reference: Optional[list], fetch_s: float = WARM_FETCH_S, scaled: bool = True
    ) -> Tuple[float, List[float], list]:
        """One timed unit of work: returns (wall, warm-fetch seconds, results).

        Single-scenario workloads run ``run(Scenario)`` on each scenario
        and store the results in a fresh on-disk cache.  The sweep runs
        the grid cold through the process pool into a fresh on-disk cache.
        Both then fetch the results back from the warm cache, each time
        through a new cache object, and read every record (chunked
        records are decoded only when read), for ``fetch_s`` seconds (at
        least once).  ``wall`` excludes the cache round trip.

        With ``scaled`` the times are at the reference host's speed
        (``measure.HostClock``; the runs and fetches in this process tick,
        the pool's cold sweep is bracketed by a probe on as many processes
        as it has workers); without it they are raw host seconds and nothing but
        the workload runs.
        """
        cache_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            if self.workload.sweep:
                with measure.HostClock(processes=self.workers, probing=scaled) as clock:
                    results = self.parallel.run_sweep(
                        self.scenarios, workers=self.workers, cache=self._cache(cache_dir)
                    )
            else:
                with measure.HostClock(ticks=True, probing=scaled) as clock:
                    results = self._run_all()
                cache = self._cache(cache_dir)
                for scenario, result in zip(self.scenarios, results):
                    cache.put(scenario.key(), result)
            warm_s: List[float] = []
            # Every result is a hit, so the warm sweep runs in this process
            # and may tick; a fetch's own time leaves out the ticks within it.
            with measure.HostClock(ticks=True, probing=scaled) as fetch_clock:
                while not warm_s or sum(warm_s) < fetch_s:
                    start, ticked = time.perf_counter(), fetch_clock.ticked
                    warm = self.parallel.run_sweep(
                        self.scenarios, workers=self.workers, cache=self._cache(cache_dir)
                    )
                    for result in warm:
                        result.record_columns.content_key()  # reads every record back
                    warm_s.append(time.perf_counter() - start - (fetch_clock.ticked - ticked))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self._check(results, reference, "run")
        self._check(warm, results, "warm cache")
        if scaled:
            self.raw_walls.append(clock.raw_s)
        return clock.seconds, [w * fetch_clock.factor for w in warm_s], results

    def _repeat(
        self, seconds: float, reference: Optional[list], min_reps: int, fetch_s: float = WARM_FETCH_S
    ):
        """Repeat :meth:`_window` for ``seconds`` (at least ``min_reps`` times).

        Returns the per-window walls, warm-cache seconds and (requests/s,
        events/s) rates, and the first window's results.
        """
        walls: List[float] = []
        warm: List[float] = []
        rates: List[Tuple[float, float]] = []
        first = None
        self.raw_walls = []
        start = time.perf_counter()
        while len(walls) < min_reps or time.perf_counter() - start < seconds:
            try:
                wall, warm_s, results = self._window(
                    reference if reference is not None else first, fetch_s
                )
            except Exception as exc:  # a run that raises is a failed run, not a crash
                self.outcome.record("run", [f"raised {type(exc).__name__}: {exc}"])
                if first is None:
                    raise
                break
            if first is None:
                first = results
            walls.append(wall)
            warm.extend(warm_s)
            rates.append(
                (
                    sum(r.metrics.completed for r in results) / wall,
                    sum(r.events_processed for r in results) / wall,
                )
            )
            del results  # keep one window's results alive at a time, not two
        self.reps = len(walls)
        return walls, warm, rates, first

    def _reference(self) -> Optional[list]:
        """The sweep's serial ``workers=1`` reference (``None`` for single runs)."""
        if not self.workload.sweep:
            return None
        reference = self.parallel.run_sweep(self.scenarios, workers=1)
        self._check(reference, None, "workers=1 reference")
        return reference

    # ------------------------------------------------------------------ #
    # the two modes
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> Dict[str, float]:
        """Untraced repetitions: every end-to-end metric."""
        setup_s, peak_rss_mb = self._fresh_processes()
        reference = self._reference()
        # One untimed window first: the first run in a process pays for
        # growing the heap and, in the sweep, for starting the pool machinery.
        self._window(reference)
        walls, warm, rates, results = self._repeat(self.args.seconds, reference, MIN_REPS)
        simulated = self.checks.simulated_metrics(results, self.must_complete)
        self.wait_samples = simulated.pop("wait_samples")
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "requests_per_s": statistics.median([r for r, _ in rates]),
            "events_per_s": statistics.median([e for _, e in rates]),
            "peak_rss_mb": peak_rss_mb,
            "cache_warm_s": statistics.median(warm),
            **simulated,
        }

    def _fresh_processes(self) -> Tuple[float, float]:
        """Set-up seconds and peak resident MB, each from fresh interpreters.

        Set-up is the median over :data:`SETUP_PROBES` children after one
        untimed one.  That first child goes on to run the workload once,
        and its peak resident memory is the run's: in a fresh process the
        peak depends on the workload alone, where in this one it would
        depend on how the allocator's arenas were left by earlier runs.
        """
        command = [
            sys.executable,
            os.path.join(HERE, "setup_probe.py"),
            self.args.workload,
            str(self.args.seed),
        ]
        first = self._child(command + ["--run"])
        samples = []
        for _ in range(SETUP_PROBES):
            with measure.HostClock() as clock:
                report = self._child(command)
            samples.append(report["setup_s"] * clock.factor)
        return statistics.median(samples), first["peak_rss_mb"]

    @staticmethod
    def _child(command: List[str]) -> dict:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def per_layer(self) -> Dict[str, float]:
        """Untraced repetitions, then one traced window: every per-layer metric."""
        reference = self._reference()
        self._window(reference)
        # One warm fetch per window (fetch_s=0): the traced window should
        # weigh the layers as a user's run does, not the repeated fetches.
        walls, _, _, untraced = self._repeat(self.args.seconds / 2, reference, 2, fetch_s=0.0)

        trace_dir = tempfile.mkdtemp(dir=self.work_dir)
        self.caches = []
        # The probes bracket the tracer, so traced time holds nothing else.
        processes = self.workers if self.workload.sweep else 1
        with measure.HostClock(processes=processes) as clock:
            with spans.Tracer(trace_dir) as tracer:
                start = time.perf_counter()
                traced_wall, _, results = self._window(untraced, fetch_s=0.0, scaled=False)
                traced_s = time.perf_counter() - start
        totals = tracer.totals()
        total = totals.traced_s(traced_s)
        layers = totals.layer_self()
        residual = total - sum(layers.values())
        if residual < -1e-6 * total or min(layers.values()) < 0:
            self.outcome.record("trace", ["layer self times overlap (negative residual)"])
        self.layer_shares = {name: value / total for name, value in layers.items()}
        self.layer_shares["residual"] = residual / total
        metrics = self._layer_metrics(totals, layers, total, results)
        metrics["driver.max_backlog"] = max(
            (c.max_backlog for c in tracer.instances.get("OpenLoopClient.start", [])), default=0
        )
        traced_wall *= clock.factor
        metrics["trace.overhead_pct"] = (traced_wall / statistics.median(walls) - 1.0) * 100.0
        metrics["trace.residual_s"] = residual
        return {name: metrics[name] for name in PER_LAYER}

    def _layer_metrics(self, totals, layers: Dict[str, float], total: float, results) -> dict:
        get = totals.get
        sends = get([r"Network\.(send|_send\w*)"], "count")
        core_calls = get([r"CoreAllocatorNode\.on_[A-Z]\w*"], "count")
        base_calls = get([r"(IncrementalAllocatorNode|BLAllocatorNode)\.on_[A-Z]\w*"], "count")
        draws = get([r"\w+Workload\.stream_for"], "count")
        collector_sites = [r"MetricsCollector\.on_(issue|grant|release|abort)"]
        collector_calls = get(collector_sites, "count")
        by_type: Dict[str, int] = {}
        for result in results:
            for name, count in result.metrics.messages_by_type.items():
                by_type[name] = by_type.get(name, 0) + count
        return {
            "engine.events": sum(r.events_processed for r in results),
            "engine.self_s": layers["engine"],
            "engine.self_share": layers["engine"] / total,
            "network.sends": sends,
            "network.dropped": sum(r.messages_dropped for r in results),
            **{f"network.msgs.{name}": by_type.get(name, 0) for name in MESSAGE_TYPES},
            "network.self_s": layers["network"],
            "network.self_ns_per_send": _ratio(layers["network"], sends) * 1e9,
            "core.handler_calls": core_calls,
            "core.resends": sum(r.resend_count for r in results),
            "core.self_s": layers["core"],
            "core.self_share": layers["core"] / total,
            "core.self_us_per_msg": _ratio(layers["core"], core_calls) * 1e6,
            "baselines.handler_calls": base_calls,
            "baselines.self_s": layers["baselines"],
            "baselines.self_us_per_msg": _ratio(layers["baselines"], base_calls) * 1e6,
            "workload.draws": draws,
            "workload.self_s": layers["workload"],
            "workload.self_ns_per_draw": _ratio(layers["workload"], draws) * 1e9,
            "driver.self_s": layers["driver"],
            "runner.self_s": layers["runner"],
            "collector.calls": collector_calls,
            "collector.self_ns_per_call": _ratio(get(collector_sites, "self"), collector_calls)
            * 1e9,
            "collector.build_s": get([r"MetricsCollector\.(build|result_columns)"], "incl"),
            "columns.chunks_sealed": get([r"MetricsCollector\._seal_prefix"], "count"),
            "columns.payload_bytes": sum(len(pickle.dumps(r.record_columns)) for r in results),
            "columns.pack_s": get([r"RecordColumns\._packed"], "incl", detached=True),
            "columns.unpack_s": get([r".*\._rebuild_columns"], "incl", detached=True),
            "cache.hits": sum(c.hits for c in self.caches),
            "cache.misses": sum(c.misses for c in self.caches),
            "cache.get_s": get([r"RunCache\.get"], "incl"),
            "cache.put_s": get([r"RunCache\.put"], "incl"),
            "scenario.key_s": get([r"Scenario\.key"], "incl"),
            "parallel.self_s": layers["parallel"],
        }


def _report(
    bench: Bench, metrics: Dict[str, float], units: Dict[str, str], calibration_s: float
) -> dict:
    """Print the metrics for a reader; return the result line's object."""
    args = bench.args
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print(f"# calibration_s {calibration_s!r} (fixed pure-Python loop; context, not a metric)")
    print(f"# PYTHONHASHSEED {os.environ['PYTHONHASHSEED']} (fixed by the benchmark)")
    print(f"# untraced repetitions {bench.reps}")
    if bench.raw_walls:
        print(
            f"# unscaled wall_s median {statistics.median(bench.raw_walls)!r} "
            f"(host timings below are at the reference speed of measure.py)"
        )
    if hasattr(bench, "wait_samples"):
        print(f"# wait percentiles over {bench.wait_samples} samples")
    for name, share in getattr(bench, "layer_shares", {}).items():
        print(f"# self-time share {name:<10} {share * 100:6.2f} %")
    for name, value in metrics.items():
        print(f"{name:<30} {value!r:>24} {units[name]}")
    outcome = bench.outcome
    error_rate = _ratio(outcome.failed, outcome.attempted)
    print(f"# error_rate {error_rate!r} ({outcome.failed}/{outcome.attempted})")
    for note in outcome.notes[:20]:
        print(f"# FAILED {note}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload and print its metrics; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    guarded = [name for name in GUARDED_ENV if os.environ.get(name)]
    if guarded:
        print(
            f"refusing to run: {', '.join(guarded)} set; it would change what is measured",
            file=sys.stderr,
        )
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}"
        )
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED

    # A terminated run unwinds like a failed one: the process pool shuts
    # down, its workers are waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        bench = Bench(args, work_dir)
        calibration_s = measure.calibration_probe()
        if args.trace:
            metrics, units = bench.per_layer(), PER_LAYER
        else:
            metrics, units = bench.end_to_end(), END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = _report(bench, metrics, units, calibration_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
