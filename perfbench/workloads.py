"""The benchmark's workloads, built from one seed through the public API.

Every workload is a list of :class:`~repro.experiments.scenario.Scenario`
values generated from the benchmark seed; the simulator receives only
those scenarios.  Why each one exists (which layer it loads, which it
leaves idle) is in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from repro.experiments.scenario import Scenario
from repro.sim.faultspec import BernoulliLoss
from repro.sim.latencyspec import ConstantLatencySpec, UniformJitterLatencySpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Seed kept out of every tuning run, for confirming a claimed gain on
#: inputs the change was not developed against.
HELD_OUT_SEED = 7919

#: Process-pool size of the sweep workload.
SWEEP_WORKERS = 2

#: Control-plane message classes of the three swept algorithms (request
#: datagrams; tokens stay reliable).  Names an algorithm does not send
#: match nothing.
CONTROL_PLANE = ("BLInquire", "CounterEnvelope", "NTRequest", "RequestEnvelope")


class Workload(NamedTuple):
    """A named workload: its scenarios and whether it runs as a sweep."""

    name: str
    scenarios: List[Scenario]
    #: Run through ``run_sweep(workers=2)`` into a fresh on-disk cache
    #: (``True``) or with ``run(Scenario)`` on each scenario in turn (``False``).
    sweep: bool


def _sub_seeds(seed: int, count: int) -> range:
    """``count`` distinct sub-seeds for benchmark seed ``seed`` (disjoint across seeds)."""
    return range(count * (seed - 1) + 1, count * seed + 1)


def _closed(algorithm: str, duration: float, runs: int, seed: int) -> List[Scenario]:
    return [
        Scenario(
            algorithm,
            WorkloadParams(
                num_processes=160,
                num_resources=320,
                phi=4,
                load=LoadLevel.HIGH,
                duration=duration,
                warmup=duration / 10,
                seed=sub_seed,
            ),
        )
        for sub_seed in _sub_seeds(seed, runs)
    ]


def _open_loan(seed: int) -> List[Scenario]:
    params = WorkloadParams(
        num_processes=32, num_resources=80, phi=4, duration=12_000, warmup=500, seed=seed
    )
    return [
        Scenario(
            "with_loan",
            params,
            workload=OpenLoopSpec(PoissonArrivals(rate=0.03)),
            record_chunk_rows=256,
        )
    ]


def _sweep(seed: int) -> List[Scenario]:
    base = Scenario(
        "with_loan",
        WorkloadParams(
            num_processes=10,
            num_resources=24,
            phi=4,
            load=LoadLevel.HIGH,
            duration=3_000,
            warmup=300,
        ),
        require_all_completed=False,
    )
    arms = [
        (ConstantLatencySpec(), None),
        (
            UniformJitterLatencySpec(jitter=0.2, seed=seed),
            BernoulliLoss(p=0.02, seed=seed, kinds=CONTROL_PLANE),
        ),
    ]
    return [
        base.replace(algorithm=algorithm, seed=sub_seed, latency=latency, faults=faults)
        for algorithm in ("with_loan", "incremental", "bouabdallah")
        for sub_seed in _sub_seeds(seed, 4)
        for latency, faults in arms
    ]


_BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "closed-loan-n160": lambda seed: Workload(
        "closed-loan-n160", _closed("with_loan", 1_500, 1, seed), False
    ),
    "closed-incr-n160": lambda seed: Workload(
        "closed-incr-n160", _closed("incremental", 1_500, 6, seed), False
    ),
    "open-loan-n32": lambda seed: Workload("open-loan-n32", _open_loan(seed), False),
    "sweep-mixed-n10": lambda seed: Workload("sweep-mixed-n10", _sweep(seed), True),
}

#: Workload names, in the order ``BENCHMARK.json`` lists them.
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """Generate workload ``name`` from ``seed``."""
    return _BUILDERS[name](seed)


def run_once(workload: Workload) -> list:
    """Run the workload's scenarios once, without a cache; returns the results."""
    if workload.sweep:
        from repro.parallel import run_sweep

        return run_sweep(workload.scenarios, workers=SWEEP_WORKERS)
    from repro.experiments.runner import run

    return [run(scenario) for scenario in workload.scenarios]


def is_lossy(scenario: Scenario) -> bool:
    """Whether the scenario injects faults (its requests may never complete)."""
    return scenario.faults is not None
