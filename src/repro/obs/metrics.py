"""Lightweight process-local metrics: counters, gauges, timers, histograms.

The registry is the instrumentation primitive of the observability
layer: hot-path call sites (routing matvecs, objective memo lookups,
batch warm starts) increment named counters through the module-level
:data:`METRICS` singleton.  Collection is **off by default** — a
disabled registry's ``increment``/``gauge``/``observe_timer``/
``observe_histogram`` return after one attribute check, so the solver's
inner loop pays essentially nothing until someone opts in via
:func:`enable_metrics` or the :func:`collecting_metrics` context
manager.

All mutation happens under a single lock, so one registry may be
shared by threads (the batch layer's thread-based consumers hammer it
concurrently).  Registries are *process-local*, but worker deltas can
be folded back in: the batch pool snapshots a worker registry before
and after each task, ships :func:`diff_snapshots` with the result, and
the parent applies it with :meth:`MetricsRegistry.merge_snapshot` — so
pooled work shows up in the parent's ``batch.*``/``routing.*``/
``objective.*`` counters (see :func:`repro.core.batch.solve_batch`).

Histograms use the fixed log-spaced second buckets in
:data:`HISTOGRAM_BUCKETS`; fixed bounds keep worker/parent merging a
plain element-wise add and make the Prometheus exposition
(:func:`render_prometheus`) cumulative-bucket correct.

Metric names are dotted strings, ``subsystem.object.event``; the
catalogue lives in ``docs/observability.md``.
"""

from __future__ import annotations

import bisect
import os
import re
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "MetricsRegistry",
    "METRICS",
    "HISTOGRAM_BUCKETS",
    "get_metrics",
    "enable_metrics",
    "disable_metrics",
    "collecting_metrics",
    "diff_snapshots",
    "render_prometheus",
]

#: Upper bounds (seconds) of the fixed latency histogram buckets; one
#: implicit overflow bucket follows the last bound.  Log-spaced from
#: 100µs to 60s — the observed dynamic range of a single gradient
#: projection up through a full decomposed solve.
HISTOGRAM_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Quantiles reported in every histogram snapshot.
_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class _Timer:
    """Context manager recording one monotonic-clock duration."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe_timer(
            self._name, time.perf_counter() - self._start
        )


class _NullTimer:
    """Shared no-op timer handed out by disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Thread-safe named counters, gauges and duration accumulators."""

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._enabled = bool(enabled)
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}  # name -> [count, total_s]
        # name -> [bucket counts (len(HISTOGRAM_BUCKETS)+1), sum, count]
        self._histograms: dict[str, list] = {}

    # -- enablement -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- recording ------------------------------------------------------
    def increment(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op when disabled)."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed ``value``."""
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe_timer(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name``'s count/total.

        Also bumps the paired counter ``<name>.count`` so mean durations
        stay derivable from the counters view alone (``total_s`` lives
        in the timer record, the call count in both).
        """
        if not self._enabled:
            return
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                self._timers[name] = [1, float(seconds)]
            else:
                stats[0] += 1
                stats[1] += float(seconds)
            paired = name + ".count"
            self._counters[paired] = self._counters.get(paired, 0) + 1

    def observe_histogram(self, name: str, seconds: float) -> None:
        """Fold one duration into fixed-bucket histogram ``name``."""
        if not self._enabled:
            return
        value = float(seconds)
        index = bisect.bisect_left(HISTOGRAM_BUCKETS, value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = [[0] * (len(HISTOGRAM_BUCKETS) + 1), 0.0, 0]
                self._histograms[name] = hist
            hist[0][index] += 1
            hist[1] += value
            hist[2] += 1

    def timer(self, name: str) -> "_Timer | _NullTimer":
        """Monotonic-clock scope: ``with registry.timer("solve"): ...``."""
        if not self._enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """All counters whose name starts with ``prefix``, as a copy."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def snapshot(self) -> dict:
        """Everything the registry holds, as plain JSON-ready dicts."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {
                        "count": int(count),
                        "total_s": total,
                        "mean_s": total / count if count else 0.0,
                    }
                    for name, (count, total) in self._timers.items()
                },
                "histograms": {
                    name: _histogram_record(buckets, total, count)
                    for name, (buckets, total, count)
                    in self._histograms.items()
                },
            }

    def merge_snapshot(self, delta: dict) -> None:
        """Fold a snapshot-shaped delta (a worker's) into this registry.

        Counters and timer accumulators add; gauges take the delta's
        value (latest-wins, matching :meth:`gauge`); histogram buckets
        add element-wise.  No-op when disabled, so a parent that never
        opted in cannot be polluted by worker deltas.
        """
        if not self._enabled:
            return
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, stats in delta.get("timers", {}).items():
                mine = self._timers.get(name)
                if mine is None:
                    mine = [0, 0.0]
                    self._timers[name] = mine
                mine[0] += int(stats["count"])
                mine[1] += float(stats["total_s"])
            for name, record in delta.get("histograms", {}).items():
                buckets = list(record["buckets"])
                if len(buckets) != len(HISTOGRAM_BUCKETS) + 1:
                    continue  # foreign bucket layout; refuse to corrupt
                hist = self._histograms.get(name)
                if hist is None:
                    hist = [[0] * (len(HISTOGRAM_BUCKETS) + 1), 0.0, 0]
                    self._histograms[name] = hist
                for index, count in enumerate(buckets):
                    hist[0][index] += count
                hist[1] += float(record["sum_s"])
                hist[2] += int(record["count"])

    def reset(self) -> None:
        """Drop all recorded values (enablement is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()


def _quantile(buckets: list, total_count: int, q: float) -> float:
    """Estimate quantile ``q`` by linear interpolation within buckets.

    The overflow bucket has no upper bound, so estimates landing there
    clamp to the last finite bound.
    """
    if total_count <= 0:
        return 0.0
    target = q * total_count
    cumulative = 0
    for index, count in enumerate(buckets):
        if count == 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative >= target:
            if index >= len(HISTOGRAM_BUCKETS):
                return HISTOGRAM_BUCKETS[-1]
            lower = HISTOGRAM_BUCKETS[index - 1] if index else 0.0
            upper = HISTOGRAM_BUCKETS[index]
            fraction = (target - previous) / count
            return lower + (upper - lower) * fraction
    return HISTOGRAM_BUCKETS[-1]


def _histogram_record(buckets: list, total: float, count: int) -> dict:
    record = {
        "buckets": list(buckets),
        "bounds": list(HISTOGRAM_BUCKETS),
        "sum_s": total,
        "count": int(count),
    }
    for label, q in _QUANTILES:
        record[label] = _quantile(buckets, count, q)
    return record


def diff_snapshots(after: dict, before: dict | None) -> dict:
    """Snapshot-shaped delta of work done between two snapshots.

    This is what a pool worker ships back: counters/timer accumulators
    and histogram buckets subtract (zero entries dropped); gauges keep
    their ``after`` value when it is new or changed.  ``before=None``
    means "everything in ``after``".
    """
    if before is None:
        before = {}
    counters = {}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        change = value - before_counters.get(name, 0)
        if change:
            counters[name] = change
    gauges = {}
    before_gauges = before.get("gauges", {})
    for name, value in after.get("gauges", {}).items():
        if name not in before_gauges or before_gauges[name] != value:
            gauges[name] = value
    timers = {}
    before_timers = before.get("timers", {})
    for name, stats in after.get("timers", {}).items():
        prior = before_timers.get(name, {"count": 0, "total_s": 0.0})
        count = stats["count"] - prior["count"]
        if count:
            total = stats["total_s"] - prior["total_s"]
            timers[name] = {
                "count": count,
                "total_s": total,
                "mean_s": total / count,
            }
    histograms = {}
    before_histograms = before.get("histograms", {})
    for name, record in after.get("histograms", {}).items():
        prior = before_histograms.get(name)
        if prior is None or len(prior["buckets"]) != len(record["buckets"]):
            buckets = list(record["buckets"])
            total = record["sum_s"]
            count = record["count"]
        else:
            buckets = [
                now - then
                for now, then in zip(record["buckets"], prior["buckets"])
            ]
            total = record["sum_s"] - prior["sum_s"]
            count = record["count"] - prior["count"]
        if count:
            histograms[name] = _histogram_record(buckets, total, count)
    return {
        "counters": counters,
        "gauges": gauges,
        "timers": timers,
        "histograms": histograms,
    }


def _prometheus_name(name: str, prefix: str) -> str:
    # Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*.
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _seconds_name(name: str, prefix: str) -> str:
    """Timer/histogram metric name with exactly one ``_seconds`` unit."""
    metric = _prometheus_name(name, prefix)
    return metric if metric.endswith("_seconds") else metric + "_seconds"


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Snapshot as Prometheus text exposition (format version 0.0.4).

    Counters gain ``_total``; timers surface as ``_seconds_count`` /
    ``_seconds_sum`` pairs; histograms emit cumulative ``_bucket``
    series with ``le`` labels plus ``_sum``/``_count``.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prometheus_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]:g}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]:g}")
    for name in sorted(snapshot.get("timers", {})):
        stats = snapshot["timers"][name]
        metric = _seconds_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {stats['count']:g}")
        lines.append(f"{metric}_sum {stats['total_s']:.9g}")
    for name in sorted(snapshot.get("histograms", {})):
        record = snapshot["histograms"][name]
        metric = _seconds_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        bounds = record.get("bounds", list(HISTOGRAM_BUCKETS))
        for bound, count in zip(bounds, record["buckets"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        cumulative += sum(record["buckets"][len(bounds):])
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {record['sum_s']:.9g}")
        lines.append(f"{metric}_count {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry all instrumented call sites report to.
#: Disabled by default so the solver hot path stays unmeasured unless
#: a caller opts in.
METRICS = MetricsRegistry(enabled=False)


def _fresh_lock_in_child() -> None:
    # A child forked while another parent thread held the lock (a
    # daemon's pool worker, say) inherits it held, with no thread left
    # to release it: its first snapshot() would block forever.
    METRICS._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_in_child)


def get_metrics() -> MetricsRegistry:
    """The global registry (see :data:`METRICS`)."""
    return METRICS


def enable_metrics() -> MetricsRegistry:
    """Turn global collection on; returns the registry."""
    METRICS.enable()
    return METRICS


def disable_metrics() -> MetricsRegistry:
    """Turn global collection off; recorded values are kept."""
    METRICS.disable()
    return METRICS


@contextmanager
def collecting_metrics(reset: bool = True) -> Iterator[MetricsRegistry]:
    """Enable the global registry within a block, restoring state after.

    With ``reset`` (default) the registry starts the block empty, so a
    snapshot taken inside covers exactly the block's work::

        with collecting_metrics() as registry:
            solve(problem)
            counts = registry.snapshot()["counters"]
    """
    was_enabled = METRICS.enabled
    if reset:
        METRICS.reset()
    METRICS.enable()
    try:
        yield METRICS
    finally:
        if not was_enabled:
            METRICS.disable()
