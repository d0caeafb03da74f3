"""Span-based, cycle-accurate tracer for the cost-model stack.

The paper's evaluation is a cost model — counts of SGX instructions and
normal instructions converted to cycles — so the only clock a faithful
trace needs is that same model.  A :class:`Tracer` keeps two integer
instruction clocks (user-mode SGX and normal x86) advanced by every
charge any attached :class:`repro.cost.CostAccountant` records; a
timestamp is just ``model.cycles(clock_sgx, clock_normal)``.  No wall
time is ever read, so traces are bit-for-bit reproducible across runs
and machines for a fixed seed.

Three invariants the design leans on:

* **Zero cost when off.**  ``accountant.tracer`` is ``None`` by
  default and every instrumentation site goes through the module-level
  :func:`span` / :func:`instant` helpers, which return a shared no-op
  context manager when no tracer is active.  Golden Table 1-4 outputs
  are byte-identical with tracing off *and* on (the tracer observes
  charges, it never adds any).

* **Exact reconciliation.**  Spans accumulate *raw instruction
  integers* per ``(source, domain)`` — not float cycles — so the sum
  over all spans (plus the orphan bucket for charges that land outside
  any span) equals each accountant's counters exactly, int for int.
  :func:`repro.obs.reconcile` asserts this.

* **Strict nesting.**  Spans live on one global stack and only wrap
  synchronous code (an ecall body, one ocall, one record protect);
  instrumentation never spans across a simulator ``yield``.  Global
  nesting therefore implies per-domain nesting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cost import accountant as _accountant_mod
from repro.cost import context as _cost_context
from repro.cost.accountant import CostAccountant
from repro.cost.model import DEFAULT_MODEL, CostModel


@dataclasses.dataclass
class Span:
    """One nested region of (synchronous) work on the cycle timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    domain: str
    source: str
    open_seq: int
    start_sgx: int
    start_normal: int
    close_seq: int = -1
    end_sgx: int = -1
    end_normal: int = -1
    #: Raw instructions charged while this span was innermost, keyed by
    #: the charging accountant's source and its attribution domain.
    self_counts: Dict[Tuple[str, str], List[int]] = dataclasses.field(
        default_factory=dict
    )
    error: bool = False

    @property
    def closed(self) -> bool:
        return self.close_seq >= 0

    def self_instructions(self) -> Tuple[int, int]:
        """Total (sgx, normal) instructions charged directly to this span."""
        sgx = normal = 0
        for s, n in self.self_counts.values():
            sgx += s
            normal += n
        return sgx, normal


@dataclasses.dataclass
class Instant:
    """A point event: crossing, AEX, switchless hit/fallback, fault, ..."""

    seq: int
    name: str
    source: str
    domain: str
    ts_sgx: int
    ts_normal: int
    count: int = 1
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)


class Tracer:
    """Deterministic span recorder driven by the cost model's clock.

    One tracer observes any number of accountants (one per simulated
    party); :meth:`attach` is normally called for you by
    ``CostAccountant.__init__`` while :func:`tracing` is active.
    """

    def __init__(
        self, model: CostModel = DEFAULT_MODEL, metrics: Optional[Any] = None
    ) -> None:
        self.model = model
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` riding
        #: along: every charge/instant is mirrored into it and the
        #: sample clock advances with this tracer's cycle clock.  Stays
        #: ``None`` by default — the metrics layer is strictly opt-in.
        self.metrics = metrics
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.accountants: List[CostAccountant] = []
        self.reset_sources: Set[str] = set()
        #: Live :class:`repro.sgx.epc.EnclavePageCache` objects created
        #: while this tracer was active — transient, consumed by
        #: ``reconcile_metrics`` to
        #: hold the ``epc_*`` metric families equal to the caches'
        #: own eviction/reload counters.
        self.epcs: List[Any] = []
        #: Charges recorded while no span was open, per (source, domain).
        self.orphans: Dict[Tuple[str, str], List[int]] = {}
        self._stack: List[Span] = []
        self._seq = 0
        self._clock_sgx = 0
        self._clock_normal = 0
        self._source_counts: Dict[str, int] = {}

    # -- clock -------------------------------------------------------------

    @property
    def clock(self) -> Tuple[int, int]:
        """Current (sgx, normal) instruction clocks."""
        return self._clock_sgx, self._clock_normal

    def cycles_at(self, sgx: int, normal: int) -> float:
        """Convert an instruction-clock reading to modeled cycles."""
        return self.model.cycles(sgx, normal)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- accountant hookup -------------------------------------------------

    def attach(self, acct: CostAccountant) -> None:
        """Observe ``acct``'s charges; assigns it a unique source label."""
        if acct.tracer is self:
            return
        base = acct.name or "acct"
        n = self._source_counts.get(base, 0)
        self._source_counts[base] = n + 1
        acct.source = base if n == 0 else f"{base}#{n}"
        acct.tracer = self
        self.accountants.append(acct)

    def detach_all(self) -> None:
        """Stop observing every attached accountant (used by ``tracing``)."""
        for acct in self.accountants:
            acct.tracer = None

    # -- charge / event sinks (called by CostAccountant) -------------------

    def on_charge(self, source: str, domain: str, sgx: int, normal: int) -> None:
        """Advance the clock and attribute to the innermost open span."""
        self._clock_sgx += sgx
        self._clock_normal += normal
        if self._stack:
            counts = self._stack[-1].self_counts
        else:
            counts = self.orphans
        key = (source, domain)
        cell = counts.get(key)
        if cell is None:
            counts[key] = [sgx, normal]
        else:
            cell[0] += sgx
            cell[1] += normal
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_charge(source, domain, sgx, normal)
            metrics.on_clock(
                self.model.cycles(self._clock_sgx, self._clock_normal)
            )

    def on_instant(
        self,
        name: str,
        source: str,
        domain: str,
        count: int = 1,
        **args: Any,
    ) -> None:
        """Record a typed point event at the current clock."""
        self.instants.append(
            Instant(
                seq=self._next_seq(),
                name=name,
                source=source,
                domain=domain,
                ts_sgx=self._clock_sgx,
                ts_normal=self._clock_normal,
                count=count,
                args=args,
            )
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_instant(name, source, domain, count)

    def on_field(self, field: str, source: str, domain: str, count: int) -> None:
        """Mirror an instant-less counter field into the metrics registry.

        ``faults_injected`` and ``allocations`` have no instant in the
        trace stream (see ``charge_fault``'s docstring), so the
        accountant forwards them here directly — the metrics layer can
        then reconcile *every* Counter field, not just the traced ones.
        No-op without a registry.
        """
        metrics = self.metrics
        if metrics is not None:
            metrics.observe_field(field, source, domain, count)

    def on_reset(self, source: str) -> None:
        """Note that ``source`` discarded its counters (reconcile skips it)."""
        self.reset_sources.add(source)

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        domain: str = "",
        source: str = "",
    ) -> Iterator[Span]:
        """Record a nested region; charges inside land in its self-counts."""
        parent = self._stack[-1] if self._stack else None
        s = Span(
            span_id=len(self.spans) + 1,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            domain=domain,
            source=source,
            open_seq=self._next_seq(),
            start_sgx=self._clock_sgx,
            start_normal=self._clock_normal,
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            popped = self._stack.pop()
            assert popped is s, "span stack corrupted (overlapping spans)"
            s.close_seq = self._next_seq()
            s.end_sgx = self._clock_sgx
            s.end_normal = self._clock_normal


#: Shared no-op context manager returned when tracing is off.  One
#: instance for the whole process keeps the off-path allocation-free.
_NULL_SPAN = contextlib.nullcontext()


def current_tracer() -> Optional[Tracer]:
    """The globally active tracer installed by :func:`tracing`, if any."""
    return _accountant_mod.active_tracer()


def _resolve() -> Tuple[Optional[Tracer], str, str]:
    """Find the tracer + (source, domain) an instrumentation site uses.

    Preference order: the ambient accountant's tracer (gives the true
    charging source/domain), then the globally active tracer (for sites
    like the transport fabric that run outside any accountant).
    """
    acct = _cost_context.current_accountant()
    if acct is not None and acct.tracer is not None:
        return acct.tracer, acct.source, acct.current_domain
    tracer = _accountant_mod.active_tracer()
    if tracer is not None:
        return tracer, "", ""
    return None, "", ""


def span(name: str, kind: str = "span"):
    """Open a span on the active tracer, or a no-op when tracing is off.

    The source/domain are read from the ambient accountant at open
    time, so instrumentation sites never thread tracer handles around.
    """
    tracer, source, domain = _resolve()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, kind=kind, domain=domain, source=source)


def traced(name: str, kind: str = "span"):
    """Decorator form of :func:`span` for fixed-name synchronous methods.

    Only for plain functions — never decorate a generator with this
    (the span must not stretch across simulator ``yield``s).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with span(name, kind=kind):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def instant(name: str, count: int = 1, **args: Any) -> None:
    """Record a typed point event on the active tracer (no-op when off)."""
    tracer, source, domain = _resolve()
    if tracer is not None:
        tracer.on_instant(name, source, domain, count=count, **args)


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` globally so new accountants auto-attach.

    ``tracing(None)`` is a no-op pass-through, which lets every
    ``run_*(trace=...)`` entry point wrap its body unconditionally.
    Re-entering with the *same* tracer nests fine (the experiment
    runners compose); installing a *different* tracer while one is
    active is almost certainly a bug and raises.
    """
    if tracer is None:
        yield None
        return
    prior = _accountant_mod.active_tracer()
    if prior is tracer:
        yield tracer
        return
    if prior is not None:
        raise RuntimeError("a different tracer is already active")
    _accountant_mod.set_active_tracer(tracer)
    try:
        yield tracer
    finally:
        _accountant_mod.set_active_tracer(prior)
        tracer.detach_all()
