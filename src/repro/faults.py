"""Deterministic fault injection (seeded plans, logged outcomes).

A :class:`FaultPlan` owns a seeded HMAC-DRBG and a list of
:class:`FaultRule` entries.  Instrumented sites across the stack
(datagram fabric, transport, SGX runtime, attestation, record channel)
ask the ambient plan whether to inject a fault at each *opportunity*;
every injection is appended to the plan's :class:`FaultLog`, so two
runs with the same seed and workload produce byte-identical logs.

No plan is active by default, and every hook is a strict no-op in that
case — the golden Table 1-4 baselines are unaffected unless a caller
explicitly activates a plan::

    plan = FaultPlan(seed=7, rules=[FaultRule(DROP, rate=0.05)])
    with active(plan):
        run_sgx_routing(...)
    print(plan.log.digest())

Fault kinds
-----------

Network (injected in :meth:`repro.net.network.Network.transmit`):

* ``drop`` — the datagram vanishes;
* ``duplicate`` — a second copy is delivered after a short delay;
* ``reorder`` — extra latency lets later packets overtake this one;
* ``delay`` — extra latency without reordering intent;
* ``corrupt`` — one random bit of the payload is flipped (the
  transport checksum turns this into a drop + retransmission).

Platform (injected in ``repro.sgx``):

* ``ocall_fail`` — an ocall returns failure (:class:`OcallError`);
* ``aex_storm`` — a burst of asynchronous exits is charged to an ecall;
* ``egetkey_fail`` — a transient EGETKEY failure (retried by callers);
* ``quote_reject`` — the challenger rejects an otherwise-valid quote;
* ``worker_stall`` — a switchless worker misses its polling window,
  forcing the genuine-crossing fallback path;
* ``ring_worker_stall`` — an async-ring worker misses a harvest pass,
  so the triggering submit/reap degrades to a genuine crossing that
  drains the ring;
* ``lost_completion`` — a ring completion write is lost after the work
  ran; the reaper detects the still-pending entry and pays a recovery
  crossing to fetch the result directly (the work is never re-run).

Channel (injected in :class:`repro.net.channel.SecureRecordChannel`):

* ``mac_corrupt`` — a protected record is emitted with a flipped bit,
  so the receiver's MAC check fails (:class:`ProtocolError`).

Scale-out (injected in :mod:`repro.load`):

* ``shard_crash`` — one controller shard enclave dies mid-run; the
  load engine's failover re-homes its ASes onto surviving shards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cost import accountant as cost_accountant_mod
from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.errors import ReproError

__all__ = [
    "DROP", "DUPLICATE", "REORDER", "DELAY", "CORRUPT",
    "OCALL_FAIL", "AEX_STORM", "EGETKEY_FAIL", "QUOTE_REJECT",
    "WORKER_STALL", "RING_WORKER_STALL", "LOST_COMPLETION",
    "MAC_CORRUPT", "SHARD_CRASH", "PAGING_STORM",
    "NETWORK_KINDS", "ALL_KINDS", "FAULT_CLASSES",
    "FaultRule", "FaultEvent", "FaultLog", "FaultPlan",
    "activate", "deactivate", "current_plan", "active", "matrix_plan",
]

# -- fault kinds -----------------------------------------------------------

DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"
DELAY = "delay"
CORRUPT = "corrupt"
OCALL_FAIL = "ocall_fail"
AEX_STORM = "aex_storm"
EGETKEY_FAIL = "egetkey_fail"
QUOTE_REJECT = "quote_reject"
WORKER_STALL = "worker_stall"
RING_WORKER_STALL = "ring_worker_stall"
LOST_COMPLETION = "lost_completion"
MAC_CORRUPT = "mac_corrupt"
SHARD_CRASH = "shard_crash"
PAGING_STORM = "paging_storm"

NETWORK_KINDS = (DROP, DUPLICATE, REORDER, DELAY, CORRUPT)
ALL_KINDS = NETWORK_KINDS + (
    OCALL_FAIL, AEX_STORM, EGETKEY_FAIL, QUOTE_REJECT, WORKER_STALL,
    RING_WORKER_STALL, LOST_COMPLETION, MAC_CORRUPT, SHARD_CRASH,
    PAGING_STORM,
)


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """When and how often to inject one fault kind.

    ``rate`` is the per-opportunity injection probability; 1.0 makes
    the rule deterministic (fires on every opportunity until
    ``max_count`` is exhausted, consuming no randomness).  ``site``
    is a substring filter over the opportunity's site label, e.g.
    ``"ocall:"`` or ``"net:as-3"``.  ``param`` carries a kind-specific
    knob (extra delay in seconds for ``delay``/``reorder``/
    ``duplicate``).
    """

    kind: str
    rate: float = 1.0
    max_count: Optional[int] = None
    site: Optional[str] = None
    param: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"fault rate {self.rate} outside [0, 1]")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injected fault."""

    index: int
    kind: str
    site: str
    detail: str = ""


class FaultLog:
    """Ordered record of every injected fault in a run."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Injection count per fault kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def digest(self) -> str:
        """Hex digest over the full event sequence (reproducibility
        checks compare this across runs)."""
        h = hashlib.sha256()
        for e in self.events:
            h.update(f"{e.index}|{e.kind}|{e.site}|{e.detail}\n".encode())
        return h.hexdigest()

    def to_json(self) -> str:
        """Serialized log (the CI job uploads this as an artifact)."""
        return json.dumps(
            {
                "digest": self.digest(),
                "counts": self.counts(),
                "events": [dataclasses.asdict(e) for e in self.events],
            },
            indent=2,
            sort_keys=True,
        )


class FaultPlan:
    """Seeded rule set deciding which opportunities become faults.

    The same seed and the same sequence of opportunities always yield
    the same decisions (injection randomness comes from a dedicated
    HMAC-DRBG, independent of every other RNG in the system).
    """

    def __init__(
        self,
        seed: object,
        rules: List[FaultRule],
        accountant=None,
    ) -> None:
        self.seed = seed
        self.rules = list(rules)
        self.log = FaultLog()
        #: Fallback accountant for sites with no ambient cost context
        #: (e.g. the datagram fabric); ambient wins when present.
        self.accountant = accountant
        self._rng = Rng(seed, "fault-plan")
        self._fired: Dict[int, int] = {}

    # -- decision core -----------------------------------------------------

    def decide(self, kind: str, site: str, detail: str = "") -> Optional[FaultRule]:
        """Return the rule that fires for this opportunity, or None.

        The first matching rule wins; a probabilistic rule consumes one
        RNG draw per opportunity it is eligible for.
        """
        for index, rule in enumerate(self.rules):
            if rule.kind != kind:
                continue
            if rule.site is not None and rule.site not in site:
                continue
            fired = self._fired.get(index, 0)
            if rule.max_count is not None and fired >= rule.max_count:
                continue
            if rule.rate < 1.0 and self._rng.random() >= rule.rate:
                continue
            self._fired[index] = fired + 1
            self._record(kind, site, detail)
            return rule
        return None

    def exhausted(self) -> bool:
        """True when no rule can ever fire again (every cap is spent).

        Only capped rules can exhaust; any uncapped rule keeps the plan
        live forever.  The cohort cache reads this to resume replaying
        dispatches once all deterministic faults have fired —
        ``decide`` is then a guaranteed no-op that consumes no RNG.
        """
        for index, rule in enumerate(self.rules):
            if rule.max_count is None:
                return False
            if self._fired.get(index, 0) < rule.max_count:
                return False
        return True

    def network_action(self, site: str) -> Optional[Tuple[str, FaultRule]]:
        """One decision per datagram: the first network kind to fire."""
        for kind in NETWORK_KINDS:
            rule = self.decide(kind, site)
            if rule is not None:
                return kind, rule
        return None

    def _record(self, kind: str, site: str, detail: str) -> None:
        self.log.record(
            FaultEvent(index=len(self.log), kind=kind, site=site, detail=detail)
        )
        accountant = cost_context.current_accountant()
        if accountant is None:
            accountant = self.accountant
        if accountant is not None:
            accountant.charge_fault()
        # Publish the injection on the trace timeline (richer than the
        # bare faults_injected counter: carries kind + site).
        tracer = accountant.tracer if accountant is not None else None
        if tracer is not None:
            tracer.on_instant(
                "fault",
                accountant.source,
                accountant.current_domain,
                kind=kind,
                site=site,
            )
        else:
            fallback = cost_accountant_mod.active_tracer()
            if fallback is not None:
                fallback.on_instant("fault", "", "", kind=kind, site=site)

    # -- kind-specific randomness -----------------------------------------

    def corrupt_payload(self, data: bytes) -> bytes:
        """Flip one deterministic-random bit of ``data``."""
        if not data:
            return data
        position = self._rng.randint(0, len(data) - 1)
        bit = 1 << self._rng.randint(0, 7)
        out = bytearray(data)
        out[position] ^= bit
        return bytes(out)

    def extra_delay(self, rule: FaultRule, default: float) -> float:
        """The added latency for delay/reorder/duplicate rules."""
        return rule.param if rule.param is not None else default

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed!r} rules={len(self.rules)} "
            f"injected={len(self.log)}>"
        )


# -- ambient activation ----------------------------------------------------
#
# The simulator is single-threaded and hooks fire from event-loop
# callbacks, so a module global (not a contextvar) is the right scope.

_ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> None:
    """Make ``plan`` the ambient fault plan for every instrumented site."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ReproError("a fault plan is already active")
    _ACTIVE = plan


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def current_plan() -> Optional[FaultPlan]:
    """The ambient plan, or None (the default — all hooks no-op)."""
    return _ACTIVE


@contextlib.contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


# -- the fault matrix ------------------------------------------------------
#
# One single-fault rule set per class; the regression suite runs every
# app scenario under every class.  Rates/caps are sized so the
# scenarios' retry and degradation paths can absorb the injections.

FAULT_CLASSES: Dict[str, List[FaultRule]] = {
    "drop": [FaultRule(DROP, rate=0.03, max_count=40)],
    "duplicate": [FaultRule(DUPLICATE, rate=0.05, max_count=40)],
    "reorder": [FaultRule(REORDER, rate=0.05, max_count=40, param=0.02)],
    "delay": [FaultRule(DELAY, rate=0.05, max_count=40, param=0.05)],
    "corrupt": [FaultRule(CORRUPT, rate=0.02, max_count=20)],
    "ocall_fail": [FaultRule(OCALL_FAIL, max_count=2)],
    "egetkey_fail": [FaultRule(EGETKEY_FAIL, max_count=2)],
    "quote_reject": [FaultRule(QUOTE_REJECT, max_count=1)],
    "worker_stall": [FaultRule(WORKER_STALL, rate=0.25, max_count=50)],
    # Async-ring (switchless v2) classes: a missed harvest pass and a
    # lost completion write.  Both recover through a genuine crossing
    # (drain / direct fetch), so scenarios that adopt rings stay
    # byte-identical; scenarios without rings see no opportunities.
    "ring_worker_stall": [FaultRule(RING_WORKER_STALL, rate=0.25, max_count=50)],
    "lost_completion": [FaultRule(LOST_COMPLETION, rate=0.25, max_count=20)],
    "aex_storm": [FaultRule(AEX_STORM, rate=0.25, max_count=50)],
    "mac_corrupt": [FaultRule(MAC_CORRUPT, max_count=1)],
    # Kills one controller shard mid-run; only the scale-out load
    # engine (repro.load) has shards, so this class is a no-op for the
    # single-controller app scenarios.
    "shard_crash": [FaultRule(SHARD_CRASH, max_count=1)],
    # EPC pressure: a decided event force-evicts a burst of LRU pages
    # (param = burst size) right before a DPI scan replays its page
    # touches, so the scan pays a storm of ELDU reloads + AEX exits.
    # Eviction is transparent — swapped pages reload bit-exact — so
    # every scenario must recover byte-identically; scenarios without
    # an EPC-resident ruleset see no opportunities.
    "paging_storm": [FaultRule(PAGING_STORM, rate=0.25, max_count=20, param=8)],
}


def matrix_plan(fault_class: str, seed: object = 0) -> FaultPlan:
    """A fresh plan for one named fault class of the matrix."""
    if fault_class not in FAULT_CLASSES:
        raise ReproError(f"unknown fault class {fault_class!r}")
    return FaultPlan(seed, FAULT_CLASSES[fault_class])
