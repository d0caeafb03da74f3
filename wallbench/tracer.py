"""Outside-in wall-clock span tracer for the load benchmark.

The tracer wraps the public functions of each layer (named after the
modules they live in) in spans.  A span records its function, start,
end, parent span and the dispatch index it ran under; spans stay in
memory and are reduced to per-layer numbers when the run ends.
Nothing under ``src/`` knows about it: ``install`` rebinds the
functions from outside and ``uninstall`` puts every original back.

Because callers import with ``from x import f``, a module-level
function is rebound in every loaded ``repro.*`` module that holds the
same object.  Methods are patched on their class only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Span stack sentinel: no enclosing span.
NO_PARENT = -1

#: Patch-log marker for an instance attribute that shadowed a method.
_INSTANCE = object()


def _arg_len(i: int) -> Callable:
    """Probe: one item of ``len(args[i])`` bytes (``self`` is ``args[0]``)."""

    def probe(args, kwargs, result):
        return 1, len(args[i])

    return probe


def _ctr(args, kwargs, result):
    return 1, len(result)


def _many(args, kwargs, result):
    return len(args[1]), sum(len(m) for m in args[1])


def _open_many(args, kwargs, result):
    return len(result), len(args[1])


#: (layer, count group, module, qualified name, (items, bytes) probe).
#: Only functions some workload calls are listed (ECB/CBC bulk AES and
#: the switchless/fault charges are on no workload's path); the
#: self-test fails if a listed one records no call.  A call counts
#: toward its group only when no span of the same group encloses it
#: (``hkdf`` calling ``hmac_sha256`` is one symmetric call); self time
#: is summed over every span of the layer.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("crypto.modexp", "crypto.modexp", "repro.crypto.dh", "generate_keypair", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.dh", "shared_secret", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.schnorr", "generate_schnorr_keypair", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.schnorr", "schnorr_sign", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.schnorr", "schnorr_verify", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.rsa", "generate_rsa_keypair", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.rsa", "rsa_sign", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.rsa", "rsa_verify", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.epid", "epid_verify", None),
    ("crypto.modexp", "crypto.modexp", "repro.crypto.epid", "EpidMemberKey.sign", None),
    ("crypto.sym", "crypto.sym", "repro.crypto.aes", "AES.encrypt_block", _arg_len(1)),
    ("crypto.sym", "crypto.sym", "repro.crypto.aes", "AES.ctr_keystream", _ctr),
    ("crypto.sym", "crypto.sym", "repro.crypto.mac", "hmac_sha256", _arg_len(1)),
    ("crypto.sym", "crypto.sym", "repro.crypto.mac", "aes_cmac", _arg_len(1)),
    ("crypto.sym", "crypto.sym", "repro.crypto.kdf", "hkdf", _arg_len(0)),
    ("crypto.sym", "crypto.sym", "repro.crypto.hashes", "sha256", _arg_len(0)),
    *(
        ("wire", "wire", "repro.wire", f"{cls}.{method}", None)
        for cls, methods in (
            ("Writer", ("u8", "u16", "u32", "u64", "varbytes", "raw", "string",
                        "varint", "strings", "getvalue")),
            ("Reader", ("u8", "u16", "u32", "u64", "varbytes", "raw", "string",
                        "varint", "strings")),
        )
        for method in methods
    ),
    ("net.channel", "net.channel", "repro.net.channel", "SecureRecordChannel.protect", _arg_len(1)),
    ("net.channel", "net.channel", "repro.net.channel", "SecureRecordChannel.open", _arg_len(1)),
    ("net.channel", "net.channel", "repro.net.channel", "SecureRecordChannel.protect_many", _many),
    ("net.channel", "net.channel", "repro.net.channel", "SecureRecordChannel.open_many", _open_many),
    ("net.sim", "net.sim.run", "repro.net.sim", "Simulator.run", None),
    ("net.sim", "net.sim.spawn", "repro.net.sim", "Simulator.spawn", None),
    ("sgx", "sgx.ecall", "repro.sgx.enclave", "Enclave.ecall", None),
    ("sgx", "sgx.ecall", "repro.sgx.enclave", "Enclave.ecall_batch", None),
    ("sgx", "sgx.ocall", "repro.sgx.runtime", "EnclaveContext.ocall", None),
    ("sgx.attestation", "sgx.attestation", "repro.sgx.attestation", "ChallengerAttestor.start", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.attestation", "ChallengerAttestor.handle_quote_response", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.attestation", "ChallengerAttestor.handle_finish", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.attestation", "TargetAttestor.handle_challenge", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.attestation", "TargetAttestor.handle_confirm", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.quoting", "QuotingEnclaveProgram.create_quote", None),
    ("sgx.attestation", "sgx.attestation.step", "repro.sgx.quoting", "verify_quote", None),
    ("tls", "tls", "repro.tls.handshake", "TlsClientSession.start", None),
    ("tls", "tls.step", "repro.tls.handshake", "TlsClientSession.handle_server_hello", None),
    ("tls", "tls.step", "repro.tls.handshake", "TlsClientSession.handle_server_finished", None),
    ("tls", "tls.step", "repro.tls.handshake", "TlsServerSession.handle_client_hello", None),
    ("tls", "tls.step", "repro.tls.handshake", "TlsServerSession.handle_client_finished", None),
    ("middlebox.dpi", "middlebox.dpi", "repro.middlebox.dpi", "DpiEngine.inspect", _arg_len(3)),
    *(
        ("cost", "cost", "repro.cost.accountant", f"CostAccountant.{method}", None)
        for method in ("charge_sgx", "charge_normal", "charge_crossing",
                       "charge_allocation", "charge_burst")
    ),
)

#: Count-only hooks (no span): EPC paging instructions by name.
PAGING = {"ewb": "sgx.epc.ewb", "eldb": "sgx.epc.eldu"}

#: The benchmark's own spans: set-up, the timed fold, one dispatch,
#: and one host-speed sample (kept out of the fold's self time).
ROOT_LAYERS = ("load.setup", "load.fold", "load.dispatch", "bench.reference")

#: Layer of in-enclave application code.  Every ecall handler runs in
#: a span of this layer, named ``app:<Program>.<method>``, so ``sgx``
#: self time covers only the crossing machinery around it.
APP_LAYER = "app"


class Tracer:
    """Span recorder plus the patches that feed it."""

    #: (attribute, array typecode) of each per-span column.
    COLUMNS = (
        ("name", "i"), ("parent", "i"), ("dispatch_index", "i"),
        ("start", "d"), ("end", "d"), ("items", "i"), ("nbytes", "q"),
    )

    def __init__(self) -> None:
        #: span-name id -> span name, and -> (layer, count group).
        self.span_names: List[str] = []
        self._kinds: List[Tuple[str, str]] = []
        self._ids: Dict[str, int] = {}
        # One entry per span, in start order, so a parent precedes its
        # children.  Typed columns keep a span at 40 bytes.
        for attr, code in self.COLUMNS:
            setattr(self, attr, array(code))
        self._stack = [NO_PARENT]
        self._dispatch = -1
        self._phase = "other"
        self.counts: Dict[Tuple[str, str], int] = {}
        #: Exact (key, message, signature) inputs seen by schnorr_verify.
        self.schnorr_seen: set = set()
        self._patches: List[Tuple[object, str, object]] = []
        self.wrappers: List[object] = []
        for layer in ROOT_LAYERS:
            self._name_id(layer, layer, layer)

    def _name_id(self, span: str, layer: str, group: str) -> int:
        sid = self._ids.get(span)
        if sid is None:
            sid = self._ids[span] = len(self.span_names)
            self.span_names.append(span)
            self._kinds.append((layer, group))
        return sid

    # -- recording -----------------------------------------------------

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.dispatch_index.append(self._dispatch)
        self.items.append(1)
        self.nbytes.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span of a phase: ``setup`` or ``timed``."""
        prior = self._phase
        self._phase = name
        idx = self._open(self._ids["load.setup" if name == "setup" else "load.fold"])
        try:
            yield
        finally:
            self._close(idx)
            self._phase = prior

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span of one of the benchmark's own layers."""
        idx = self._open(self._ids[layer])
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def dispatch(self, index: int):
        prior = self._dispatch
        self._dispatch = index
        try:
            with self.span("load.dispatch"):
                yield
        finally:
            self._dispatch = prior

    def count(self, key: str, n: int = 1) -> None:
        slot = (self._phase, key)
        self.counts[slot] = self.counts.get(slot, 0) + n

    def _wrap(self, span: str, layer: str, group: str, fn, probe):
        sid = self._name_id(span, layer, group)
        open_, close = self._open, self._close
        items, nbytes = self.items, self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if probe is not None:
                items[idx], nbytes[idx] = probe(args, kwargs, result)
            return result

        return traced

    def _observe_schnorr(self, fn):
        @functools.wraps(fn)
        def observed(group, public, message, signature):
            key = (group.p, group.g, public, bytes(message), signature.e, signature.s)
            self.count("crypto.schnorr_verify.calls")
            if key in self.schnorr_seen:
                self.count("crypto.schnorr_verify.repeats")
            self.schnorr_seen.add(key)
            return fn(group, public, message, signature)

        return observed

    def _observe_paging(self, fn):
        @functools.wraps(fn)
        def observed(instruction, count=1):
            key = PAGING.get(instruction.value)
            if key is not None:
                self.count(key, count)
            return fn(instruction, count)

        return observed

    # -- patching ------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Import every ``repro`` module, then wrap every target."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for layer, group, mod_name, qualname, probe in TARGETS:
            module = sys.modules[mod_name]
            span = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(span, layer, group, original, probe)
                self._patches.append((cls, method, original))
                setattr(cls, method, wrapper)
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(span, layer, group, original, probe)
                if qualname == "schnorr_verify":
                    wrapper = self._observe_schnorr(wrapper)
                self._rebind_everywhere(original, wrapper)
            self.wrappers.append(wrapper)
        self._wrap_ecall_handlers()
        isa = sys.modules["repro.sgx.isa"]
        original = isa.execute_privileged
        wrapper = self._observe_paging(original)
        self._rebind_everywhere(original, wrapper)
        self.wrappers.append(wrapper)

    def _wrap_ecall_handlers(self) -> None:
        """Make ``Enclave._resolve_ecall`` hand out handlers in app spans."""
        cls = sys.modules["repro.sgx.enclave"].Enclave
        original = cls.__dict__["_resolve_ecall"]
        traced: Dict[object, object] = {}

        @functools.wraps(original)
        def resolve(enclave, method):
            handler = original(enclave, method)
            wrapper = traced.get(handler)
            if wrapper is None:
                span = f"{APP_LAYER}:{handler.__qualname__}"
                wrapper = traced[handler] = self._wrap(
                    span, APP_LAYER, APP_LAYER, handler, None
                )
            return wrapper

        self._patches.append((cls, "_resolve_ecall", original))
        setattr(cls, "_resolve_ecall", resolve)
        self.wrappers.append(resolve)

    def count_calls(self, obj, attr: str, key: str) -> None:
        """Count calls to one object's method (an instance-level patch)."""
        original = getattr(obj, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(key)
            return original(*args, **kwargs)

        self._patches.append((obj, attr, _INSTANCE))
        setattr(obj, attr, counted)

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INSTANCE:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------

    def reduce(self) -> dict:
        """Per-phase, per-layer totals from the recorded spans.

        Returns ``{phase: {"self_s": {layer: s}, "calls": {group: n},
        "items": {group: n}, "bytes": {group: n}}}`` plus per-span-name
        call counts under ``"spans"``.
        """
        n = len(self.start)
        child = [0.0] * n
        root = [0] * n
        name, parent = self.name, self.parent
        for i in range(n):
            p = parent[i]
            if p == NO_PARENT:
                root[i] = i
            else:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        phases = {
            self._ids["load.setup"]: "setup",
            self._ids["load.fold"]: "timed",
        }
        out: Dict[str, dict] = {
            phase: {"self_s": {}, "calls": {}, "items": {}, "bytes": {}}
            for phase in ("setup", "timed")
        }
        spans: Dict[str, int] = {}
        for i in range(n):
            span = self.span_names[name[i]]
            spans[span] = spans.get(span, 0) + 1
            phase = phases.get(name[root[i]])
            if phase is None:
                continue
            layer, group = self._kinds[name[i]]
            acc = out[phase]
            acc["self_s"][layer] = (
                acc["self_s"].get(layer, 0.0)
                + (self.end[i] - self.start[i]) - child[i]
            )
            p = parent[i]
            if p != NO_PARENT and self._kinds[name[p]][1] == group:
                continue
            acc["calls"][group] = acc["calls"].get(group, 0) + 1
            acc["items"][group] = acc["items"].get(group, 0) + self.items[i]
            acc["bytes"][group] = acc["bytes"].get(group, 0) + self.nbytes[i]
        for (phase, key), value in self.counts.items():
            if phase in out:
                out[phase]["calls"][key] = value
        out["spans"] = spans
        out["n_spans"] = n
        return out

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {
            "n": len(self.start),
            "columns": self.COLUMNS,
            "span_names": self.span_names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _code in self.COLUMNS:
                getattr(self, attr).tofile(fh)


def read_spans(path: str) -> dict:
    """Load a :meth:`Tracer.dump` file: span names plus each column."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"span_names": header["span_names"]}
        for attr, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, header["n"])
            out[attr] = column
    return out
