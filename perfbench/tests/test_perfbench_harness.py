"""Tests of the benchmark harness's own arithmetic and patching."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH) if p not in sys.path]

import measure  # noqa: E402
import spans  # noqa: E402


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 7]
        own = spans.self_times([0, 1, 2, 5], [10, 4, 3, 7], [-1, 0, 1, 0])
        assert list(own) == [5.0, 2.0, 1.0, 2.0]

    def test_overlapping_children_count_once(self):
        # children [1, 5] and [2, 8] cover [1, 8]: 7 of the root's 10
        assert list(spans.self_times([0, 1, 2], [10, 5, 8], [-1, 0, 0])) == [3.0, 4.0, 6.0]

    def test_children_out_of_start_order(self):
        assert list(spans.self_times([0, 2, 1], [10, 8, 5], [-1, 0, 0])) == [3.0, 6.0, 4.0]

    def test_child_coverage_is_clipped_to_the_parent(self):
        assert list(spans.self_times([0, 8], [10, 15], [-1, 0])) == [8.0, 7.0]

    def test_disjoint_children_sum(self):
        own = spans.self_times([0, 1, 3, 6], [10, 2, 5, 9], [-1, 0, 0, 0])
        assert own[0] == pytest.approx(10 - 1 - 2 - 3)

    def test_summarize_folds_by_site(self):
        totals = spans.summarize(
            ["outer", "inner"], [0, 1, 1], [0.0, 1.0, 4.0], [10.0, 2.0, 6.0], [-1, 0, 0]
        )
        assert totals["outer"].as_list() == [1, 10.0, 7.0]
        assert totals["inner"].as_list() == [2, 3.0, 3.0]


class TestPercentiles:
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))  # rank 990: ten samples beyond
        assert measure.tail_percentile(values, 99) == 990
        with pytest.raises(ValueError):
            measure.tail_percentile(values[:999], 99)

    def test_nearest_rank_of_unsorted_input(self):
        values = [float(v) for v in reversed(range(100))]
        assert measure.tail_percentile(values, 50) == 49.0
        assert measure.tail_percentile(values, 90) == 89.0
        with pytest.raises(ValueError):
            measure.tail_percentile(values, 91)


class TestHostClock:
    def test_factor_is_reference_over_harmonic_mean_of_probes(self):
        with measure.HostClock() as clock:
            pass
        assert len(clock.probes) == 2
        expected = measure.REFERENCE_PROBE_S * sum(1 / p for p in clock.probes) / 2
        assert clock.factor == pytest.approx(expected)
        assert clock.seconds == pytest.approx(clock.raw_s * clock.factor)

    def test_ticks_are_left_out_and_the_alarm_handler_restored(self):
        import signal
        import time

        previous = signal.getsignal(signal.SIGALRM)
        with measure.HostClock(ticks=True) as clock:
            start = time.perf_counter()
            while time.perf_counter() - start < 5 * measure.TICK_S:
                pass
            elapsed = time.perf_counter() - start
        assert len(clock.probes) >= 2 + 3  # both brackets and the ticks
        assert 0 < clock.ticked < elapsed
        assert clock.raw_s == pytest.approx(elapsed - clock.ticked, abs=1e-3)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_two_process_probe_waits_for_its_child(self):
        import os

        assert measure.calibration_probe(1, processes=2) > 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_probing_it_is_a_stopwatch(self):
        with measure.HostClock(ticks=True, probing=False) as clock:
            pass
        assert clock.probes == [] and clock.factor == 1.0
        assert clock.seconds == clock.raw_s


def _snapshot():
    import importlib

    owners = set()
    for entries in spans.LAYERS.values():
        for module_name, owner_name, _, _ in entries:
            module = importlib.import_module(module_name)
            owners.add(module if owner_name is None else getattr(module, owner_name))
    owners.add(importlib.import_module(spans.WORKER_ENTRY[0]))
    return {owner: dict(vars(owner)) for owner in owners}


class TestTracer:
    def test_uninstall_restores_every_patched_attribute(self, tmp_path):
        before = _snapshot()
        tracer = spans.Tracer(str(tmp_path)).install()
        try:
            assert tracer._saved, "nothing was patched"
            patched = {(owner, attr) for owner, attr, _ in tracer._saved}
            assert all(
                vars(owner)[attr] is not before[owner].get(attr) for owner, attr in patched
            )
        finally:
            tracer.uninstall()
        after = _snapshot()
        for owner, attrs in before.items():
            assert set(vars(owner)) == set(attrs), owner
            for attr, value in attrs.items():
                assert vars(owner)[attr] is value, (owner, attr)

    def test_traced_run_matches_untraced_and_accounts_for_wall(self, tmp_path):
        import time

        from repro.experiments import runner
        from repro.experiments.scenario import Scenario
        from repro.workload.params import WorkloadParams

        scenario = Scenario(
            "with_loan", WorkloadParams(num_processes=4, num_resources=6, duration=300, warmup=30)
        )
        plain = runner.run(scenario)
        with spans.Tracer(str(tmp_path)) as tracer:
            start = time.perf_counter()
            traced = runner.run(scenario)
            wall = time.perf_counter() - start
        totals = tracer.totals()
        assert repr(traced.metrics) == repr(plain.metrics)
        assert traced.events_processed == plain.events_processed
        layers = totals.layer_self()
        assert all(value >= 0 for value in layers.values())
        assert sum(layers.values()) <= wall
        # Every span nests inside the one run() span, so self times add up to it.
        run_site = [r"repro\.experiments\.runner\.run"]
        assert totals.get(run_site, "count") == 1
        assert sum(layers.values()) == pytest.approx(totals.get(run_site, "incl"), rel=1e-9)
        assert layers["baselines"] == 0


def test_benchmark_json_matches_the_harness():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
