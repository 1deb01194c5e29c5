"""Output checks and simulated metrics of finished runs.

A run passes when the online safety checker was armed, every record
satisfies issue <= grant <= release, every closed-loop request on a
reliable network completed, and the waiting times read off the record
columns are the ones the collector summarised.  Runs of the same
scenario must also agree exactly (see :func:`fingerprint`).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from array import array
from typing import List, Sequence

from repro.metrics.collector import MetricsCollector

from measure import tail_percentile


def safety_armed() -> bool:
    """Whether the collector's online safety check is on by default."""
    return getattr(MetricsCollector(1), "check_safety", True) is True


def fingerprint(result) -> str:
    """Digest of every simulated output of a run (not its host timings)."""
    parts = (
        result.algorithm,
        result.events_processed,
        result.simulated_time,
        repr(result.metrics),
        result.record_columns.content_key(),
        result.messages_dropped,
        result.resend_count,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _columns(result):
    cols = result.record_columns
    to_columns = getattr(cols, "to_columns", None)
    return to_columns() if to_columns is not None else cols


def problems(result, must_complete: bool) -> List[str]:
    """Reasons ``result`` fails its output checks (empty when it passes)."""
    cols = _columns(result)
    found = []
    bad = 0
    for issue, grant, release in zip(cols.issue, cols.grant, cols.release):
        if math.isnan(grant):
            bad += not math.isnan(release)
        elif not issue <= grant or not (math.isnan(release) or grant <= release):
            bad += 1
    if bad:
        found.append(f"{bad} record(s) violate issue <= grant <= release")
    metrics = result.metrics
    if must_complete and (
        metrics.completed != metrics.issued
        or any(math.isnan(release) for release in cols.release)
    ):
        found.append(f"only {metrics.completed} of {metrics.issued} requests completed")
    # Record times are float32: a request issued within rounding of the
    # warm-up boundary may fall on either side of it.
    warmup = metrics.warmup
    ambiguous = sum(1 for issue in cols.issue if abs(issue - warmup) <= 1e-6 * max(warmup, 1.0))
    waits = waits_of(result)
    if abs(len(waits) - metrics.waiting.count) > ambiguous:
        found.append(
            f"{len(waits)} waits in the records, {metrics.waiting.count} in the metrics"
        )
    return found


def waits_of(result) -> array:
    """Waits (ms) of granted requests issued after warm-up, from the records.

    The same sample the collector summarises, read off the float32 record
    columns, so percentiles can be taken over a whole grid of runs.
    """
    cols = _columns(result)
    warmup = result.metrics.warmup
    return array(
        "d",
        (
            grant - issue
            for issue, grant in zip(cols.issue, cols.grant)
            if not math.isnan(grant) and issue >= warmup
        ),
    )


def simulated_metrics(results: Sequence, reliable: Sequence[bool]) -> dict:
    """Simulated end-to-end metrics, pooled over ``results``.

    ``msgs_per_cs`` (every message sent over every completed critical
    section) and ``completion_ratio`` cover every run.  Waits (simulated
    ms) and the use rate cover only the runs on a reliable network
    (``reliable[i]``): under message loss a request whose datagram was
    lost waits out a resend timer, which puts a second mode far out in
    the tail, and how many requests land there swings from seed to seed.
    """
    completed = sum(r.metrics.completed for r in results)
    issued = sum(r.metrics.issued for r in results)
    timed = [r for r, ok in zip(results, reliable) if ok]
    waits: List[float] = []
    for r in timed:
        waits.extend(waits_of(r))
    count = sum(r.metrics.waiting.count for r in timed)
    return {
        "msgs_per_cs": sum(r.metrics.messages_total for r in results) / completed,
        "wait_mean_ms": sum(r.metrics.waiting.mean * r.metrics.waiting.count for r in timed)
        / count,
        "wait_p50_ms": statistics.median(waits),
        "wait_p99_ms": tail_percentile(waits, 99),
        "use_rate_pct": sum(r.metrics.use_rate for r in timed) / len(timed),
        "completion_ratio": completed / issued,
        "wait_samples": len(waits),
    }
