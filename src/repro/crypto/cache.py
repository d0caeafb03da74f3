"""Wall-clock crypto caches — invisible to the cost model.

Every primitive in :mod:`repro.crypto` charges *modeled* instruction
costs through :mod:`repro.cost.context`; the Python work it does to
produce the bytes is pure wall-clock overhead.  This module hosts the
machinery that removes that overhead without perturbing the model:

* a process-wide enable switch (:func:`enabled` / :func:`configure` /
  :func:`disabled`), honoring the ``REPRO_NO_CRYPTO_CACHE`` environment
  variable so cold-path baselines are one env var away;
* a registry of every cache so :func:`clear_all` can return the
  process to a cold state (the perf harness and the cache-equivalence
  tests rely on this);
* :func:`memoize_charged`, a memoizer for *pure, deterministic*
  functions that replays the exact integer instruction charges the
  cold computation made, so cached and cold calls are
  indistinguishable to any :class:`~repro.cost.accountant.CostAccountant`;
* detection of the optional C-backed AES kernel (the ``cryptography``
  wheel, when the environment ships it) used by
  :mod:`repro.crypto.aes` for byte-identical fast block operations;
* :func:`fast_modexp`, OpenSSL's ``BN_mod_exp`` through :mod:`ctypes`,
  behind :func:`repro.crypto.numtheory.modexp`.

The hard invariant, pinned by ``tests/crypto/test_cache_equivalence``:
caches change wall-clock time only.  Ciphertexts, MACs, digests and
every cost counter are byte- and integer-identical with caches on or
off.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cost import accountant as accountant_mod
from repro.cost import context as cost_context

__all__ = [
    "enabled",
    "configure",
    "disabled",
    "clear_all",
    "register",
    "CacheStats",
    "memoize_charged",
    "fast_aes_factory",
    "fast_kernels_available",
    "fast_modexp",
    "fast_modexp_available",
]

#: Flipped off by the environment for cold-path baseline runs.
_ENABLED = os.environ.get("REPRO_NO_CRYPTO_CACHE", "") == ""

#: Default bound on memo tables; unique-key workloads (e.g. per-session
#: record keys) must not grow memory without limit.
DEFAULT_MAXSIZE = 16384

#: (cache dict, stats, name) triples for clear_all()/introspection.
_REGISTRY: List[Tuple[dict, "CacheStats", str]] = []


class CacheStats:
    """Hit/miss counters for one cache (perf harness + tests)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def enabled() -> bool:
    """Whether the wall-clock caches (and fast kernels) are active."""
    return _ENABLED


def configure(on: bool) -> None:
    """Globally enable or disable every cache and fast kernel."""
    global _ENABLED
    _ENABLED = bool(on)


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Run the block on the cold path (pure-Python, no memo hits)."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prior


def register(cache: dict, name: str, stats: Optional[CacheStats] = None) -> CacheStats:
    """Track ``cache`` so :func:`clear_all` can empty it; returns stats."""
    if stats is None:
        stats = CacheStats()
    _REGISTRY.append((cache, stats, name))
    return stats


def clear_all() -> None:
    """Empty every registered cache and zero its stats (cold state)."""
    for cache, stats, _name in _REGISTRY:
        cache.clear()
        stats.reset()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Name -> hit/miss counts for every registered cache."""
    out: Dict[str, Dict[str, int]] = {}
    for cache, stats, name in _REGISTRY:
        entry = stats.as_dict()
        entry["entries"] = len(cache)
        out[name] = entry
    return out


def _trim(cache: dict, maxsize: int) -> None:
    """Drop the oldest half of ``cache`` once it outgrows ``maxsize``."""
    if len(cache) < maxsize:
        return
    for key in list(cache.keys())[: maxsize // 2]:
        del cache[key]


# ---------------------------------------------------------------------------
# Charge-replaying memoization
# ---------------------------------------------------------------------------


class _ChargeRecorder:
    """Duck-typed accountant capturing charges for later exact replay.

    Installed as the ambient accountant while a memoized function runs
    cold; the captured integer totals are stored beside the result and
    replayed into the real accountant on both the cold miss and every
    later hit, so the accountant sees identical integers either way.
    ``current_domain`` proxies the real accountant because
    :func:`repro.cost.context.charge_app_normal` inspects it to decide
    the in-enclave inflation factor.
    """

    enabled = True

    def __init__(self, outer: Optional[Any]) -> None:
        self._outer = outer
        self.normal = 0
        self.sgx = 0
        self.crossings = 0
        self.allocations = 0
        self.switchless = 0
        self.faults = 0

    @property
    def current_domain(self) -> str:
        if self._outer is not None:
            return self._outer.current_domain
        return "untrusted"

    def charge_normal(self, count: int) -> None:
        self.normal += int(count)

    def charge_sgx(self, count: int = 1) -> None:
        self.sgx += count

    def charge_crossing(self, count: int = 1) -> None:
        self.crossings += count

    def charge_allocation(self, count: int = 1) -> None:
        self.allocations += count

    def charge_switchless(self, count: int = 1) -> None:
        self.switchless += count

    def charge_fault(self, count: int = 1) -> None:
        self.faults += count

    def charge_burst(
        self,
        sgx: int = 0,
        normal: int = 0,
        crossings: int = 0,
        allocations: int = 0,
        switchless: int = 0,
        faults: int = 0,
    ) -> None:
        self.sgx += sgx
        self.normal += normal
        self.crossings += crossings
        self.allocations += allocations
        self.switchless += switchless
        self.faults += faults

    def charges(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.normal,
            self.sgx,
            self.crossings,
            self.allocations,
            self.switchless,
            self.faults,
        )


def _replay(accountant: Optional[Any], charges: Tuple[int, ...]) -> None:
    if accountant is None:
        return
    normal, sgx, crossings, allocations, switchless, faults = charges
    if accountant_mod.burst_enabled():
        # One coalesced call per burst; integer- and trace-identical to
        # the per-field sequence below (charge_burst's contract).
        accountant.charge_burst(
            sgx=sgx,
            normal=normal,
            crossings=crossings,
            allocations=allocations,
            switchless=switchless,
            faults=faults,
        )
        return
    if normal:
        accountant.charge_normal(normal)
    if sgx:
        accountant.charge_sgx(sgx)
    if crossings:
        accountant.charge_crossing(crossings)
    if allocations:
        accountant.charge_allocation(allocations)
    if switchless:
        accountant.charge_switchless(switchless)
    if faults:
        accountant.charge_fault(faults)


def memoize_charged(
    fn: Optional[Callable] = None,
    *,
    name: Optional[str] = None,
    maxsize: int = DEFAULT_MAXSIZE,
) -> Callable:
    """Memoize a pure function, replaying its exact instruction charges.

    Only for deterministic leaf computations whose sole side effect is
    ambient cost charging (no spans, instants, fault decisions or
    domain switches inside).  The cache key includes the active
    :class:`~repro.cost.model.CostModel` because recorded charges are
    model-dependent.  Unhashable arguments silently take the cold path.
    """

    def decorate(func: Callable) -> Callable:
        cache: Dict[Any, Tuple[Any, Tuple[int, ...]]] = {}
        stats = register(cache, name or func.__qualname__)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return func(*args, **kwargs)
            model = cost_context.current_model()
            try:
                key = (model, args, tuple(sorted(kwargs.items())))
                entry = cache.get(key)
            except TypeError:
                return func(*args, **kwargs)
            accountant = cost_context.current_accountant()
            if entry is None:
                stats.misses += 1
                recorder = _ChargeRecorder(accountant)
                try:
                    with cost_context.use_accountant(recorder):
                        result = func(*args, **kwargs)
                except BaseException:
                    # Raising calls are not cached, but the charges made
                    # before the raise must still land in the real
                    # accountant — failure paths cost the same either way.
                    _replay(accountant, recorder.charges())
                    raise
                _trim(cache, maxsize)
                entry = (result, recorder.charges())
                cache[key] = entry
            else:
                stats.hits += 1
            result, charges = entry
            _replay(accountant, charges)
            return result

        wrapper.cache = cache  # type: ignore[attr-defined]
        wrapper.stats = stats  # type: ignore[attr-defined]
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate


# ---------------------------------------------------------------------------
# Fast AES kernel (optional, byte-identical)
# ---------------------------------------------------------------------------

_FAST_AES: Optional[Any] = None
_FAST_PROBED = False


def _probe_fast_aes() -> Optional[Any]:
    global _FAST_AES, _FAST_PROBED
    if not _FAST_PROBED:
        _FAST_PROBED = True
        try:
            from cryptography.hazmat.primitives.ciphers import (  # noqa: PLC0415
                Cipher,
                algorithms,
                modes,
            )

            _FAST_AES = (Cipher, algorithms, modes)
        except Exception:  # pragma: no cover — environment without the wheel
            _FAST_AES = None
    return _FAST_AES


def fast_kernels_available() -> bool:
    """True when the C-backed AES kernel can be used."""
    return _probe_fast_aes() is not None


def fast_aes_factory(key: bytes) -> Optional[Tuple[Any, Any]]:
    """(encryptor, decryptor) ECB contexts for ``key``, or ``None``.

    ECB contexts are stateless per block, so one pair serves every
    block operation for this key, including bulk CTR keystream
    generation (the counter blocks are built by the caller).  AES is
    AES: the output bytes are identical to the from-scratch T-table
    implementation, which the NIST-vector and cache-equivalence tests
    both pin.
    """
    probed = _probe_fast_aes()
    if probed is None:
        return None
    cipher_cls, algorithms, modes = probed
    cipher = cipher_cls(algorithms.AES(key), modes.ECB())
    return cipher.encryptor(), cipher.decryptor()


# ---------------------------------------------------------------------------
# Fast modexp kernel (OpenSSL BN_mod_exp, same integer as pow)
# ---------------------------------------------------------------------------

#: Tried in order; CPython's ``_hashlib`` links one of them.
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")

#: Output buffer size: moduli wider than 4096 bits take builtin ``pow``.
_MODEXP_MAX_BYTES = 512

#: ``(BN_bin2bn, BN_mod_exp, BN_bn2binpad, out, lock, r, a, p, m, ctx)``:
#: three functions, the output buffer, a lock, then scratch named as in
#: ``BN_mod_exp(r, a, p, m, ctx)``, all living as long as the process.
#: The library is a ``PyDLL``, so no call releases the GIL.  A thread
#: can still be switched out *between* the calls of one exponentiation,
#: so the lock keeps each load, exponentiate, store sequence whole.
_BN: Optional[Tuple[Any, ...]] = None
_BN_PROBED = False


def _probe_fast_modexp() -> Optional[Tuple[Any, ...]]:
    global _BN, _BN_PROBED
    if not _BN_PROBED:
        import ctypes  # noqa: PLC0415 -- kept out of the package's import time

        ptr, cint, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for soname in _LIBCRYPTO_SONAMES:
            try:
                lib = ctypes.PyDLL(soname)
                lib.BN_new.argtypes = lib.BN_CTX_new.argtypes = ()
                lib.BN_new.restype = lib.BN_CTX_new.restype = lib.BN_bin2bn.restype = ptr
                lib.BN_bin2bn.argtypes = (buf, cint, ptr)
                lib.BN_mod_exp.argtypes = (ptr,) * 5
                lib.BN_bn2binpad.argtypes = (ptr, buf, cint)
                lib.BN_mod_exp.restype = lib.BN_bn2binpad.restype = cint
            except (OSError, AttributeError):  # no such library or symbol
                continue
            scratch = (lib.BN_new(), lib.BN_new(), lib.BN_new(), lib.BN_new(), lib.BN_CTX_new())
            if all(scratch):
                functions = (lib.BN_bin2bn, lib.BN_mod_exp, lib.BN_bn2binpad)
                out = ctypes.create_string_buffer(_MODEXP_MAX_BYTES)
                _BN = (*functions, out, threading.Lock(), *scratch)
            break
        _BN_PROBED = True  # last: a concurrent first caller probes too
    return _BN


def fast_modexp_available() -> bool:
    """True when OpenSSL's ``BN_mod_exp`` kernel can be used."""
    return _probe_fast_modexp() is not None


def fast_modexp(base: int, exp: int, mod: int) -> Optional[int]:
    """``pow(base, exp, mod)`` by ``BN_mod_exp``, or ``None`` to decline.

    Declines a negative base or exponent, a modulus below 2 or wider
    than the output buffer, a host with no usable ``libcrypto``, and
    any failing OpenSSL call; the caller then computes it another way.
    """
    bn = _probe_fast_modexp()
    width = (mod.bit_length() + 7) >> 3
    if bn is None or width > _MODEXP_MAX_BYTES or base < 0 or exp < 0 or mod < 2:
        return None
    bin2bn, mod_exp, bn2binpad, out, lock, r, a, p, m, ctx = bn
    base_len = (base.bit_length() + 7) >> 3
    exp_len = (exp.bit_length() + 7) >> 3
    with lock:
        ok = (
            bin2bn(base.to_bytes(base_len, "big"), base_len, a)
            and bin2bn(exp.to_bytes(exp_len, "big"), exp_len, p)
            and bin2bn(mod.to_bytes(width, "big"), width, m)
            and mod_exp(r, a, p, m, ctx)
            and bn2binpad(r, out, width) == width
        )
        return int.from_bytes(out.raw[:width], "big") if ok else None
