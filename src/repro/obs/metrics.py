"""Deterministic metrics: instruments + a simulated-time sampler.

Spans (PR 3) answer "where did the cycles go?", but they are O(events):
at load-engine scale the trace itself becomes the bottleneck, and no
span answers "is the system healthy *right now* in simulated time?".
This module adds the missing layer: O(1)-per-update Counter / Gauge /
Histogram instruments clocked off the same cost-model instruction
counters the tracer uses, snapshotted into a time-series at a
configurable cycle interval.

Design invariants (DESIGN.md §10):

* **Zero cost when off.**  No registry exists by default; every
  hot-path helper (:func:`metric_count` & friends) resolves the active
  tracer's ``metrics`` attribute and returns immediately when there is
  none.  Golden Table 1-4 outputs are byte-identical with metrics off
  *and* on (the registry observes charges, it never adds any).

* **Exact reconciliation.**  The registry accumulates *raw integers*
  per ``(source, domain)`` for every :class:`CostAccountant` field —
  sgx/normal instructions from ``on_charge``, crossings and switchless
  hits from their instants, faults and allocations from dedicated
  forwarding hooks — so :func:`reconcile_metrics` can assert the
  cumulative series equal every live accountant's counters int for
  int, and that the final sample equals the cumulative totals.

* **Deterministic sampling.**  The sample clock is
  ``model.cycles(clock_sgx, clock_normal)`` — never wall time.  A
  sample is taken immediately after the charge that advanced the clock
  across a boundary (multiple of ``interval``); when one charge jumps
  several boundaries a single sample is recorded at the last crossed
  boundary (the series is flat across the gap by construction).  Two
  same-seed runs therefore produce byte-identical exports.
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.cost import accountant as _accountant_mod
from repro.cost.model import DEFAULT_MODEL, CostModel

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "HISTOGRAM_BUCKETS",
    "MetricKey",
    "MetricsSample",
    "MetricsRegistry",
    "MetricsReconcileError",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "active_registry",
    "reconcile_metrics",
    "openmetrics_timeseries",
]

#: Cycles between time-series snapshots (configurable per registry).
DEFAULT_SAMPLE_INTERVAL = 10_000_000

#: Fixed log-bucket upper bounds (powers of 4 from 1 to ~1.1e12 cycles)
#: plus the implicit +Inf bucket.  Fixed boundaries keep every
#: histogram export byte-comparable across runs and scenarios.
HISTOGRAM_BUCKETS: Tuple[int, ...] = tuple(4 ** k for k in range(21))

#: One OpenMetrics second per this many modeled cycles (matches the
#: trace_event convention of 1 trace us = 1K cycles).
CYCLES_PER_OM_SECOND = 1_000_000_000.0

#: ``(name, ((label, value), ...))`` — the identity of one series.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted(labels.items())))


class MetricsReconcileError(AssertionError):
    """Metric series totals disagree with the accountant counters."""


@dataclasses.dataclass
class _Histogram:
    """Cumulative log-bucket histogram (fixed boundaries)."""

    counts: List[int] = dataclasses.field(
        default_factory=lambda: [0] * (len(HISTOGRAM_BUCKETS) + 1)
    )
    count: int = 0
    total: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(HISTOGRAM_BUCKETS, value)] += 1
        self.count += 1
        self.total += value

    def freeze(self) -> Tuple[Tuple[int, ...], int, float]:
        return tuple(self.counts), self.count, self.total

    def quantile(self, q: float) -> float:
        """Upper bucket bound holding the q-quantile (0 if empty)."""
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(q * self.count * 100) // 100))  # ceil
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(HISTOGRAM_BUCKETS):
                    return float(HISTOGRAM_BUCKETS[i])
                return float("inf")
        return float(HISTOGRAM_BUCKETS[-1])  # pragma: no cover


@dataclasses.dataclass
class MetricsSample:
    """One snapshot of every series at a sample boundary."""

    #: Boundary index (``at_cycles == boundary * interval``), or -1 for
    #: the final snapshot :meth:`MetricsRegistry.finalize` stamps at
    #: the end-of-run clock.
    boundary: int
    at_cycles: float
    counters: Dict[MetricKey, int]
    gauges: Dict[MetricKey, float]
    histograms: Dict[MetricKey, Tuple[Tuple[int, ...], int, float]]


class MetricsRegistry:
    """Counter/Gauge/Histogram series sampled on the cost-model clock.

    Attach one to a :class:`repro.obs.Tracer` (``Tracer(metrics=...)``)
    and the tracer forwards every charge and instant; the registry
    samples itself whenever the cycle clock crosses a multiple of
    ``interval``.
    """

    def __init__(
        self,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        model: CostModel = DEFAULT_MODEL,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive cycles")
        self.interval = int(interval)
        self.model = model
        self.counters: Dict[MetricKey, int] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, _Histogram] = {}
        self.samples: List[MetricsSample] = []
        self.clock_cycles = 0.0
        self._next_at = float(self.interval)
        self._finalized = False

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, n: int = 1, **labels: str) -> None:
        """Add ``n`` to a (cumulative, integer) counter series."""
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the instantaneous value of a gauge series."""
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into a log-bucket histogram series."""
        key = _key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = _Histogram()
        hist.observe(value)

    # -- tracer-driven sinks -----------------------------------------------

    def observe_charge(self, source: str, domain: str, sgx: int, normal: int) -> None:
        """Mirror one accountant charge (called by ``Tracer.on_charge``)."""
        if sgx:
            self.inc("sgx_instructions", sgx, source=source, domain=domain)
        if normal:
            self.inc("normal_instructions", normal, source=source, domain=domain)

    def observe_instant(
        self, name: str, source: str, domain: str, count: int
    ) -> None:
        """Mirror one typed instant as an ``event:<name>`` counter."""
        self.inc(f"event:{name}", count, source=source, domain=domain)

    def observe_field(
        self, field: str, source: str, domain: str, count: int
    ) -> None:
        """Mirror an instant-less counter field (faults, allocations)."""
        self.inc(field, count, source=source, domain=domain)

    def on_clock(self, cycles: float) -> None:
        """Advance the sample clock; snapshot at each crossed boundary.

        One charge can cross several boundaries; the series is flat
        between them (the clock advances atomically per charge), so a
        single sample at the *last* crossed boundary loses nothing.
        """
        self.clock_cycles = cycles
        if cycles < self._next_at:
            return
        boundary = int(cycles // self.interval)
        self._snapshot(boundary, boundary * float(self.interval))
        self._next_at = (boundary + 1) * float(self.interval)

    def _snapshot(self, boundary: int, at_cycles: float) -> None:
        self.samples.append(
            MetricsSample(
                boundary=boundary,
                at_cycles=at_cycles,
                counters=dict(self.counters),
                gauges=dict(self.gauges),
                histograms={
                    key: hist.freeze() for key, hist in self.histograms.items()
                },
            )
        )

    def finalize(self) -> MetricsSample:
        """Stamp one last sample at the current clock (idempotent).

        Every export and SLO evaluation calls this so the series always
        ends with the cumulative totals, even when the run stopped
        between boundaries.
        """
        if not self._finalized:
            self._snapshot(-1, self.clock_cycles)
            self._finalized = True
        return self.samples[-1]

    # -- reading -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Sum of a counter family's cumulative value over all labels."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def series_points(self, name: str) -> List[Tuple[float, float]]:
        """``(cycles, cumulative value)`` per sample, family-aggregated.

        Ends with the current totals; a value at time ``t`` is the last
        point at or before ``t`` (step interpolation, 0 before the
        first charge).
        """
        points = [
            (
                s.at_cycles,
                float(sum(v for (n, _), v in s.counters.items() if n == name)),
            )
            for s in self.samples
        ]
        if not self._finalized:
            points.append((self.clock_cycles, float(self.total(name))))
        return points

    def histogram_total(self, name: str) -> _Histogram:
        """Family-wide merged histogram (cumulative, end of run)."""
        out = _Histogram()
        for (n, _), hist in self.histograms.items():
            if n != name:
                continue
            for i, c in enumerate(hist.counts):
                out.counts[i] += c
            out.count += hist.count
            out.total += hist.total
        return out


# ---------------------------------------------------------------------------
# Hot-path helpers (no-ops unless a registry is active)
# ---------------------------------------------------------------------------


def active_registry() -> Optional[MetricsRegistry]:
    """The metrics registry of the globally active tracer, if any."""
    tracer = _accountant_mod.active_tracer()
    return tracer.metrics if tracer is not None else None


def metric_count(name: str, n: int = 1) -> None:
    """Increment an aggregate counter on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.inc(name, n)


def metric_gauge(name: str, value: float) -> None:
    """Set an aggregate gauge on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.set_gauge(name, value)


def metric_observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry."""
    registry = active_registry()
    if registry is not None:
        registry.observe(name, value)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

#: accountant Counter field -> (metric family, flow) pairs the registry
#: mirrors.  ``charge``-flow fields arrive via ``observe_charge``,
#: ``instant``-flow via ``observe_instant``, ``field``-flow via the
#: dedicated ``observe_field`` hook in :class:`CostAccountant`.
_RECONCILED_FAMILIES = (
    ("sgx_instructions", "sgx_instructions"),
    ("normal_instructions", "normal_instructions"),
    ("enclave_crossings", "event:crossing"),
    ("switchless_calls", "event:switchless_hit"),
    ("faults_injected", "faults_injected"),
    ("allocations", "allocations"),
)


def reconcile_metrics(registry: MetricsRegistry, tracer) -> None:
    """Assert series totals equal the accountants *exactly* (integers).

    For every live attached accountant (one left ``enabled=False``,
    e.g. inside :func:`repro.cost.accountant.disabled`, is skipped, and
    so are sources that ``reset()``, like the tracer does) each
    Counter field must equal the registry's cumulative
    series for that ``(source, domain)``, and the finalized last sample
    must equal the cumulative totals.  Raises
    :class:`MetricsReconcileError` listing every mismatch.
    """
    mismatches: List[str] = []
    for acct in tracer.accountants:
        if not acct.enabled or acct.source in tracer.reset_sources:
            continue
        for domain, counter in acct.domains().items():
            labels = (("domain", domain), ("source", acct.source))
            fields = counter.as_dict()
            for field, family in _RECONCILED_FAMILIES:
                got = registry.counters.get((family, labels), 0)
                if got != fields[field]:
                    mismatches.append(
                        f"{acct.source}/{domain}: metric {family}={got} != "
                        f"counter {field}={fields[field]}"
                    )
    # EPC occupancy: the epc_ewb/epc_eldu counter families must equal
    # the page caches' own eviction/reload counters, summed over every
    # cache the tracer saw — and with a single cache, the final gauges
    # must equal its live occupancy.  Skipped while an accountant is
    # disabled (paging done then moves the caches' counters without a
    # matching charge) and, like the check above, for reset sources.
    epcs = list(getattr(tracer, "epcs", ()))
    all_live = all(a.enabled for a in tracer.accountants) and not tracer.reset_sources
    if epcs and all_live:
        for family, field in (("epc_ewb", "evictions"), ("epc_eldu", "reloads")):
            got = registry.total(family)
            want = sum(getattr(epc, field) for epc in epcs)
            if got != want:
                mismatches.append(
                    f"epc: metric {family}={got} != sum of cache {field}={want}"
                )
        if len(epcs) == 1:
            for family, want in (
                ("epc_resident_pages", epcs[0].resident_count),
                ("epc_free_frames", epcs[0].free_frames),
            ):
                gauge = registry.gauges.get((family, ()))
                if gauge is not None and int(gauge) != want:
                    mismatches.append(
                        f"epc: gauge {family}={gauge} != live {want}"
                    )
    final = registry.finalize()
    if final.counters != registry.counters:
        mismatches.append("final sample disagrees with cumulative counters")
    if mismatches:
        raise MetricsReconcileError(
            "metrics do not reconcile with accountants:\n  "
            + "\n  ".join(mismatches)
        )


# ---------------------------------------------------------------------------
# OpenMetrics time-series export
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _om_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _om_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _om_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_om_escape(str(v))}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _om_ts(cycles: float) -> str:
    return f"{cycles / CYCLES_PER_OM_SECOND:.6f}"


def _om_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def openmetrics_timeseries(registry: MetricsRegistry) -> str:
    """The sampled series as OpenMetrics text (timestamped points).

    One MetricPoint per sample per series, timestamped on the modeled
    clock (1 OpenMetrics second = 10^9 cycles).  Purely a function of
    the registry state, so two same-seed runs export byte-identical
    documents.  Ends with ``# EOF`` as the spec requires.
    """
    registry.finalize()
    lines: List[str] = []

    counter_keys = sorted({k for s in registry.samples for k in s.counters})
    gauge_keys = sorted({k for s in registry.samples for k in s.gauges})
    hist_keys = sorted({k for s in registry.samples for k in s.histograms})

    def families(keys: List[MetricKey]) -> List[Tuple[str, List[MetricKey]]]:
        by_family: Dict[str, List[MetricKey]] = {}
        for key in keys:
            by_family.setdefault(key[0], []).append(key)
        return sorted(by_family.items())

    def points(sample_dict_name: str, key: MetricKey):
        """Deduplicated (cycles, value) points for one series."""
        out: List[Tuple[float, Any]] = []
        for sample in registry.samples:
            value = getattr(sample, sample_dict_name).get(key)
            if value is None:
                continue
            if out and out[-1][1] == value and sample.boundary != -1:
                continue
            out.append((sample.at_cycles, value))
        return out

    for family, keys in families(counter_keys):
        name = _om_name(family)
        lines.append(f"# TYPE {name} counter")
        for key in keys:
            for cycles, value in points("counters", key):
                lines.append(
                    f"{name}_total{_om_labels(key[1])} "
                    f"{_om_value(value)} {_om_ts(cycles)}"
                )
    for family, keys in families(gauge_keys):
        name = _om_name(family)
        lines.append(f"# TYPE {name} gauge")
        for key in keys:
            for cycles, value in points("gauges", key):
                lines.append(
                    f"{name}{_om_labels(key[1])} "
                    f"{_om_value(value)} {_om_ts(cycles)}"
                )
    for family, keys in families(hist_keys):
        name = _om_name(family)
        lines.append(f"# TYPE {name} histogram")
        for key in keys:
            for cycles, (counts, count, total) in points("histograms", key):
                ts = _om_ts(cycles)
                acc = 0
                for bound, c in zip(HISTOGRAM_BUCKETS, counts):
                    acc += c
                    le = 'le="%d"' % bound
                    lines.append(
                        f"{name}_bucket{_om_labels(key[1], le)} {acc} {ts}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_om_labels(key[1], inf)} {count} {ts}"
                )
                lines.append(
                    f"{name}_count{_om_labels(key[1])} {count} {ts}"
                )
                lines.append(
                    f"{name}_sum{_om_labels(key[1])} {_om_value(total)} {ts}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
