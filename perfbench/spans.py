"""In-memory span tracing of the ``repro`` layers, from outside the package.

The traced run of the benchmark patches the entry methods of each
``repro`` layer (the classes and module functions named in
:data:`LAYERS`) with thin wrappers that record one span per call: the
site called, its start and end on ``time.perf_counter`` and the span that
was open when it started (its parent).  Spans live in four flat arrays
and are turned into per-site and per-layer totals only after the run
(:func:`summarize`), so recording costs a few array appends per call.

A layer's *self time* is the duration of its spans minus the part of
each span covered by its child spans (:func:`self_times`).  Summed over
all layers, self time plus the residual (time inside the traced window
that no span covers) is exactly the traced wall time.

Nothing under ``src/`` is modified: :meth:`Tracer.install` swaps class
and module attributes and :meth:`Tracer.uninstall` puts back exactly what
was there before (an attribute a class inherited is deleted again, not
shadowed).  Sites that do not exist in the code under test are skipped,
so a refactor that renames a method loses that span, not the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import threading
import time
import types
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer name -> list of (module, owner, attribute pattern, kind).
#: ``owner`` is a class name in the module, or ``None`` for module
#: functions.  ``kind`` is ``"call"`` (a span per call), ``"iter"`` (the
#: function returns an iterator; a span per ``next()`` on it),
#: ``"capture"`` (a span per call, and the instance is kept so its
#: counters can be read after the run) or ``"any_thread"`` (a span per
#: call, recorded apart when it runs off the main thread, as results
#: unpickled by the process pool's result thread do).
LAYERS: Dict[str, List[Tuple[str, Optional[str], str, str]]] = {
    "engine": [
        ("repro.sim.engine", "Simulator", r"run|step|schedule|schedule_at|post_at|post_in|cancel", "call"),
    ],
    "network": [
        ("repro.sim.network", "Network", r"send|_send\w*|_deliver", "call"),
    ],
    "core": [
        ("repro.core.node", "CoreAllocatorNode", r"acquire|release|on_[A-Z]\w*|_on_\w+", "call"),
    ],
    "baselines": [
        ("repro.baselines.incremental", "IncrementalAllocatorNode", r"acquire|release|on_[A-Z]\w*|_on_\w+", "call"),
        ("repro.baselines.bouabdallah_laforest", "BLAllocatorNode", r"acquire|release|on_[A-Z]\w*|_on_\w+", "call"),
    ],
    "workload": [
        ("repro.workload.spec", "SyntheticWorkload", r"stream_for", "iter"),
        ("repro.workload.spec", "OpenLoopWorkload", r"stream_for", "iter"),
        ("repro.workload.spec", "TraceWorkload", r"stream_for", "iter"),
    ],
    "driver": [
        ("repro.experiments.driver", "ClosedLoopClient", r"start|_issue|_on_\w+", "call"),
        ("repro.experiments.driver", "OpenLoopClient", r"start", "capture"),
        ("repro.experiments.driver", "OpenLoopClient", r"_on_\w+|_dispatch", "call"),
    ],
    "runner": [
        ("repro.experiments.runner", None, r"run", "call"),
    ],
    "collector": [
        ("repro.metrics.collector", "MetricsCollector", r"on_issue|on_grant|on_release|on_abort|build|result_columns", "call"),
    ],
    "columns": [
        ("repro.metrics.collector", "MetricsCollector", r"_seal_prefix", "call"),
        ("repro.metrics.columns", "RecordColumns", r"_packed", "any_thread"),
        ("repro.metrics.columns", None, r"_rebuild_columns", "any_thread"),
    ],
    "parallel": [
        ("repro.parallel.executor", "SweepExecutor", r"run", "call"),
        ("repro.parallel.cache", "RunCache", r"get|put", "call"),
        ("repro.experiments.scenario", "Scenario", r"key", "call"),
    ],
}

#: Module and name of the process-pool worker entry point.  The tracer
#: wraps it too, so each job run in a (forked) worker records its own
#: spans and writes their totals out.
WORKER_ENTRY = ("repro.parallel.executor", "_execute_job_shipped")

#: Site name of the span around one job in a worker process.
WORKER_JOB_SITE = "worker.job"

#: Marks an attribute the patched owner did not define itself.
_ABSENT = object()


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> array:
    """Self time of every span: its duration minus its children's coverage.

    ``parents[i]`` is the index of span ``i``'s parent (``-1`` for a
    root).  Child intervals are clipped to the parent and merged before
    they are subtracted, so overlapping children (spans recorded by
    several threads under one parent) are not counted twice.  One pass in
    start order with O(1) state per span, so a run's million spans need
    no per-parent child lists.
    """
    n = len(starts)
    order: Iterable[int] = range(n)
    if any(starts[i] < starts[i - 1] for i in range(1, n)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    run_start = array("d", bytes(8 * n))
    run_end = array("d", [float("-inf")]) * n
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
        if e <= s:
            continue
        if s > run_end[p]:
            if run_end[p] > run_start[p]:
                covered[p] += run_end[p] - run_start[p]
            run_start[p], run_end[p] = s, e
        elif e > run_end[p]:
            run_end[p] = e
    return array(
        "d",
        (
            (ends[i] - starts[i]) - covered[i] - max(0.0, run_end[i] - run_start[i])
            for i in range(n)
        ),
    )


class SiteTotals:
    """Per-site totals: call count, inclusive seconds and self seconds."""

    __slots__ = ("count", "incl", "self")

    def __init__(self, count: int = 0, incl: float = 0.0, self_s: float = 0.0) -> None:
        self.count = count
        self.incl = incl
        self.self = self_s

    def add(self, other: "SiteTotals") -> None:
        """Accumulate ``other`` into this total."""
        self.count += other.count
        self.incl += other.incl
        self.self += other.self

    def as_list(self) -> List[float]:
        """JSON form ``[count, incl, self]``."""
        return [self.count, self.incl, self.self]


def summarize(
    site_names: Sequence[str],
    sites: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, SiteTotals]:
    """Fold recorded spans into :class:`SiteTotals` keyed by site name."""
    totals: Dict[str, SiteTotals] = {}
    for site, start, end, own in zip(sites, starts, ends, self_times(starts, ends, parents)):
        name = site_names[site]
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = SiteTotals()
        entry.count += 1
        entry.incl += end - start
        entry.self += own
    return totals


class _TracedIterator:
    """Iterator proxy recording one span per ``next()``."""

    __slots__ = ("_it", "_record")

    def __init__(self, it, record) -> None:
        self._it = it
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        return self._record(self._it.__next__)


class Tracer:
    """Patches the :data:`LAYERS` sites and records their spans in memory.

    Use as ``with Tracer(out_dir) as tracer: ...``; after the block,
    :meth:`totals` gives per-site totals of every span recorded in this
    process, in worker processes of traced sweeps, and off the main
    thread.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.site_names: List[str] = []
        self.site_layer: Dict[str, str] = {}
        self.sites = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: List[int] = [-1]
        self.main_ident = threading.get_ident()
        #: (site, seconds) of spans recorded off the main thread.
        self.detached: List[Tuple[int, float]] = []
        self._lock = threading.Lock()
        #: Instances seen by ``capture`` sites, keyed by site name.
        self.instances: Dict[str, list] = defaultdict(list)
        #: (owner, attribute, original ``vars(owner)`` entry or _ABSENT).
        self._saved: List[Tuple[object, str, object]] = []
        self._jobs = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _site(self, name: str, layer: str) -> int:
        self.site_names.append(name)
        self.site_layer[name] = layer
        return len(self.site_names) - 1

    def _recorder(self, site: int) -> Callable:
        """Return ``record(fn, *args, **kwargs)`` timing one call as a span."""
        sites, starts, ends, parents, stack = (
            self.sites, self.starts, self.ends, self.parents, self.stack,
        )
        clock = time.perf_counter

        def record(fn, *args, **kwargs):
            idx = len(starts)
            sites.append(site)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return record

    def _wrap(self, fn: Callable, site: int, kind: str) -> Callable:
        record = self._recorder(site)
        if kind == "iter":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return _TracedIterator(fn(*args, **kwargs), record)

            return traced
        if kind == "capture":
            instances = self.instances[self.site_names[site]]

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                instances.append(args[0])
                return record(fn, *args, **kwargs)

            return traced
        if kind == "any_thread":
            detached, lock, clock = self.detached, self._lock, time.perf_counter

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if threading.get_ident() == self.main_ident:
                    return record(fn, *args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    with lock:
                        detached.append((site, clock() - start))

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every site of :data:`LAYERS` present in the loaded code."""
        for layer, entries in LAYERS.items():
            for module_name, owner_name, pattern, kind in entries:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name, None)
                if owner is None:
                    continue
                matcher = re.compile(pattern)
                for attr, value in sorted(vars(owner).items()):
                    if not matcher.fullmatch(attr) or not isinstance(value, types.FunctionType):
                        continue
                    if owner_name is None and value.__module__ != module_name:
                        continue  # a function imported into the module
                    label = f"{owner_name}.{attr}" if owner_name else f"{module_name}.{attr}"
                    self._patch(owner, attr, self._wrap(value, self._site(label, layer), kind))
        module = importlib.import_module(WORKER_ENTRY[0])
        entry = getattr(module, WORKER_ENTRY[1], None)
        if isinstance(entry, types.FunctionType):
            self._patch(module, WORKER_ENTRY[1], self._worker_entry(entry))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute to exactly what it was."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # worker processes
    # ------------------------------------------------------------------ #
    def _clear(self) -> None:
        for column in (self.sites, self.starts, self.ends, self.parents):
            del column[:]
        del self.stack[1:]
        self.detached.clear()

    def _worker_entry(self, entry: Callable) -> Callable:
        """Wrap the pool's job entry point to trace each job in the worker.

        Keeps the wrapped function's module and qualified name, so the
        pool pickles it by reference and a forked worker (which inherits
        the patched module) runs this wrapper.  Each job starts from an
        empty span buffer, because the fork copied the parent's.
        """
        job_site = self._site(WORKER_JOB_SITE, "parallel")

        @functools.wraps(entry)
        def traced_entry(spec):
            self._clear()
            self.main_ident = threading.get_ident()
            result = self._recorder(job_site)(entry, spec)
            self._jobs += 1
            path = os.path.join(self.out_dir, f"spans-{os.getpid()}-{self._jobs}.json")
            with open(path, "w") as fh:
                json.dump({k: v.as_list() for k, v in self._local_totals().items()}, fh)
            self._clear()
            return result

        return traced_entry

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def _local_totals(self) -> Dict[str, SiteTotals]:
        return summarize(self.site_names, self.sites, self.starts, self.ends, self.parents)

    def totals(self) -> "TraceTotals":
        """Totals of every span recorded in this process and its traced worker jobs."""
        out = TraceTotals(self._local_totals(), dict(self.site_layer))
        for site, seconds in self.detached:
            out.detached.setdefault(self.site_names[site], SiteTotals()).add(
                SiteTotals(1, seconds, seconds)
            )
        for name in sorted(os.listdir(self.out_dir)):
            if not name.startswith("spans-"):
                continue
            with open(os.path.join(self.out_dir, name)) as fh:
                for site, (count, incl, own) in json.load(fh).items():
                    out.sites.setdefault(site, SiteTotals()).add(SiteTotals(count, incl, own))
                    if site == WORKER_JOB_SITE:
                        out.worker_s += incl
        return out


class TraceTotals:
    """Per-site totals of one traced window.

    ``sites`` holds the spans of this process's main thread and of every
    worker job; their self times do not overlap, so summed per layer plus
    the residual they equal :meth:`traced_s`.  ``detached`` holds spans
    recorded off the main thread (results unpickled by the pool's result
    thread), which overlap main-thread time and stay out of that sum.
    """

    def __init__(self, sites: Dict[str, SiteTotals], site_layer: Dict[str, str]) -> None:
        self.sites = sites
        self.site_layer = site_layer
        self.detached: Dict[str, SiteTotals] = {}
        #: Summed duration of the worker jobs (host time outside this process).
        self.worker_s = 0.0

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (every layer of :data:`LAYERS`, 0 if unused)."""
        layers = {name: 0.0 for name in LAYERS}
        for site, entry in self.sites.items():
            layers[self.site_layer[site]] += entry.self
        return layers

    def traced_s(self, wall_s: float) -> float:
        """Traced host time: this process's wall time plus the worker jobs."""
        return wall_s + self.worker_s

    def get(self, names: Iterable[str], field: str, detached: bool = False) -> float:
        """Sum ``field`` (``count``, ``incl`` or ``self``) over matching sites.

        ``names`` are regular expressions matched against the full site
        name; ``detached`` adds the off-main-thread spans of those sites.
        """
        patterns = [re.compile(n) for n in names]
        pools = [self.sites, self.detached] if detached else [self.sites]
        return sum(
            getattr(entry, field)
            for pool in pools
            for site, entry in pool.items()
            if any(p.fullmatch(site) for p in patterns)
        )

