"""The modexp kernel and the Schnorr subgroup check.

:func:`repro.crypto.numtheory.modexp` must equal builtin ``pow`` on
every path: OpenSSL's ``BN_mod_exp`` (the kernel), the kernel probe
finding no ``libcrypto``, and the crypto caches disabled -- the last of
which must never reach the kernel.  The kernel's scratch ``BIGNUM``\\ s
are shared by every thread, so concurrent callers must still each get
their own answer.
"""

import contextlib
import ctypes.util
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.dh import MODP_1024
from repro.crypto.drbg import Rng
from repro.crypto.numtheory import is_probable_prime, jacobi, modexp
from repro.crypto.rsa import generate_rsa_keypair, rsa_sign, rsa_verify
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    generate_schnorr_keypair,
    schnorr_sign,
    schnorr_verify,
)

P, G = MODP_1024.p, MODP_1024.g
Q = (P - 1) // 2

#: A 62-bit safe prime (q = 1152921504606849959 is prime).
SMALL_SAFE_P = 2305843009213699919

#: The smallest modulus too wide for the kernel's output buffer.
TOO_WIDE = 1 << (8 * cache._MODEXP_MAX_BYTES)

PATHS = ("kernel", "no-kernel", "disabled")

needs_kernel = pytest.mark.skipif(
    not cache.fast_modexp_available(), reason="no libcrypto with BN_mod_exp"
)


@contextlib.contextmanager
def caches(on):
    prior = cache.enabled()
    cache.configure(on)
    try:
        yield
    finally:
        cache.configure(prior)


@contextlib.contextmanager
def on_path(path):
    """Run the block with modexp on one of its three paths."""
    if path == "kernel":
        with caches(True):
            yield
    elif path == "no-kernel":
        with caches(True), mock.patch.object(cache, "_probe_fast_modexp", return_value=None):
            assert not cache.fast_modexp_available()
            yield
    else:
        with cache.disabled():
            yield


EDGE_CASES = [
    (5, 0, 7),  # exponent 0
    (0, 0, 7),
    (G, 0, P),
    (0, 5, 7),  # base 0
    (0, Q, P),
    (7, 3, 7),  # base >= mod
    (P + 5, Q, P),
    (3 * P + G, 2**200 + 1, P),
    (3, 10**20, 2**64),  # even moduli
    (G, Q, P + 1),
    (12345, 678, 1000),
    (0, 0, 2),  # mod 2
    (1, 9, 2),
    (2**300 + 1, 2**300, 2),
    (-3, 5, 7),  # negative base or exponent
    (-G, Q, P),
    (3, -1, 7),
    (G, -7, P),
    (5, 3, 1),  # modulus below 2
    (3, 65537, TOO_WIDE + 1),  # wider than the output buffer
    (2**5000 + 3, 3, TOO_WIDE - 1),  # widest modulus the kernel serves
]


class TestModexpMatchesPow:
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(min_value=-50, max_value=2**80),
        exps=st.lists(
            st.integers(min_value=0, max_value=2**90) | st.sampled_from([0, 1, 2, 63, 64]),
            min_size=1,
            max_size=6,
        ),
        mod=st.integers(min_value=2, max_value=2**70) | st.integers(min_value=2, max_value=70),
    )
    def test_small_moduli(self, base, exps, mod):
        for path in PATHS:
            with on_path(path):
                for exp in exps:
                    assert modexp(base, exp, mod) == pow(base, exp, mod)

    @settings(max_examples=10, deadline=None)
    @given(exps=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=3, max_size=5))
    def test_modp1024_generator(self, exps):
        for path in PATHS:
            with on_path(path):
                for exp in exps:
                    assert modexp(G, exp, P) == pow(G, exp, P)

    def test_wide_and_negative_exponents_fall_back(self):
        # The kernel declines negative exponents (modular inverses), so
        # pow computes them; exponents wider than the modulus it serves.
        wide = (1 << 1100) + 12345
        with caches(True):
            assert modexp(G, wide, P) == pow(G, wide, P)
            assert modexp(G, -7, P) == pow(G, -7, P)
            assert modexp(3, -1, 7) == pow(3, -1, 7)
        assert cache.fast_modexp(G, -7, P) is None
        if cache.fast_modexp_available():
            assert cache.fast_modexp(G, wide, P) == pow(G, wide, P)

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(min_value=-50, max_value=2**1100),
        exp=st.integers(min_value=-3, max_value=2**1100) | st.sampled_from([0, 1, 2, Q]),
        mod=st.integers(min_value=2, max_value=2**1100)
        | st.integers(min_value=2, max_value=70)
        | st.sampled_from([P, P + 1]),
    )
    def test_property(self, path, base, exp, mod):
        try:
            expected = pow(base, exp, mod)
        except ValueError:  # negative exponent, base not invertible
            with on_path(path), pytest.raises(ValueError):
                modexp(base, exp, mod)
            return
        with on_path(path):
            assert modexp(base, exp, mod) == expected

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("base,exp,mod", EDGE_CASES)
    def test_edge_cases(self, path, base, exp, mod):
        with on_path(path):
            assert modexp(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize("path", PATHS)
    def test_zero_modulus_raises_like_pow(self, path):
        with on_path(path), pytest.raises(ValueError):
            modexp(3, 5, 0)


class TestKernel:
    @needs_kernel
    @settings(max_examples=100, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=2**4200),
        exp=st.integers(min_value=0, max_value=2**1100),
        bits=st.integers(min_value=2, max_value=8 * cache._MODEXP_MAX_BYTES),
        low=st.integers(min_value=0),
    )
    def test_serves_every_eligible_input(self, base, exp, bits, low):
        mod = (1 << (bits - 1)) | (low % (1 << (bits - 1)))
        assert cache.fast_modexp(base, exp, mod) == pow(base, exp, mod)

    @needs_kernel
    def test_modexp_uses_kernel(self):
        with caches(True), mock.patch.object(cache, "fast_modexp", wraps=cache.fast_modexp) as spy:
            assert modexp(G, Q, P) == 1
        spy.assert_called_once_with(G, Q, P)

    @needs_kernel
    def test_openssl_failure_falls_back_to_pow(self):
        bin2bn, _mod_exp, *rest = cache._probe_fast_modexp()
        failing = (bin2bn, lambda *args: 0, *rest)
        with caches(True), mock.patch.object(cache, "_BN", failing):
            assert cache.fast_modexp(G, Q, P) is None
            assert modexp(G, 12345, P) == pow(G, 12345, P)

    def test_declines_too_wide_modulus(self):
        assert cache.fast_modexp(3, 5, TOO_WIDE + 1) is None
        assert cache.fast_modexp(3, 5, TOO_WIDE - 1) == pow(3, 5, TOO_WIDE - 1)

    @pytest.mark.parametrize("base,exp,mod", [(-3, 5, 7), (3, -1, 7), (5, 3, 1), (3, 5, 0)])
    def test_declines_negative_operands_and_tiny_moduli(self, base, exp, mod):
        assert cache.fast_modexp(base, exp, mod) is None

    def test_disabled_never_calls_kernel(self):
        forbidden = AssertionError("kernel called")
        with cache.disabled(), mock.patch.object(cache, "fast_modexp", side_effect=forbidden):
            for base, exp, mod in EDGE_CASES:
                assert modexp(base, exp, mod) == pow(base, exp, mod)
            assert is_probable_prime(P, Rng(b"mr"))
            author = generate_rsa_keypair(512, Rng(b"rsa"))
            signature = rsa_sign(author, b"m")
            assert rsa_verify(author.public_key(), b"m", signature)
            key = generate_schnorr_keypair(Rng(b"cold"))
            assert schnorr_verify(key.group, key.y, b"m", schnorr_sign(key, b"m"))


class TestProbe:
    @contextlib.contextmanager
    def probing(self, *sonames):
        """A fresh probe over ``sonames``; the real one is restored after."""
        with mock.patch.multiple(
            cache, _LIBCRYPTO_SONAMES=sonames, _BN=None, _BN_PROBED=False
        ), caches(True):
            yield

    def test_missing_library_falls_back_to_pow(self):
        with self.probing("libno-such-crypto.so.0"):
            assert not cache.fast_modexp_available()
            assert cache.fast_modexp(G, Q, P) is None
            assert modexp(G, 12345, P) == pow(G, 12345, P)

    def test_missing_symbol_falls_back_to_pow(self):
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no C library to load")
        with self.probing(libc):
            assert not cache.fast_modexp_available()
            assert modexp(G, 12345, P) == pow(G, 12345, P)

    @needs_kernel
    def test_later_soname_is_tried(self):
        with self.probing("libno-such-crypto.so.0", *cache._LIBCRYPTO_SONAMES):
            assert cache.fast_modexp_available()
            assert modexp(G, 12345, P) == pow(G, 12345, P)


class TestThreads:
    THREADS = 8
    ITERATIONS = 250

    def test_concurrent_callers_get_their_own_results(self):
        # Every thread shares the kernel's scratch BIGNUMs and BN_CTX.
        # A tiny switch interval makes the interpreter hand the GIL over
        # between nearly every pair of calls inside one exponentiation.
        rnd = random.Random(0)
        jobs = []
        for _ in range(self.THREADS):
            inputs = []
            for _ in range(self.ITERATIONS):
                bits = rnd.choice((64, 256, 512))
                mod = rnd.getrandbits(bits) | 1 | (1 << (bits - 1))
                base, exp = rnd.getrandbits(bits), rnd.getrandbits(bits)
                inputs.append((base, exp, mod, pow(base, exp, mod)))
            jobs.append(inputs)
        wrong = []

        def work(inputs):
            for base, exp, mod, expected in inputs:
                if modexp(base, exp, mod) != expected:
                    wrong.append((base, exp, mod))

        threads = [threading.Thread(target=work, args=(inputs,)) for inputs in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caches(True):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestSubgroupCheck:
    def test_jacobi_matches_euler_criterion(self):
        for y in range(1, 2000):
            euler = pow(y, (SMALL_SAFE_P - 1) // 2, SMALL_SAFE_P)
            assert jacobi(y, SMALL_SAFE_P) == (1 if euler == 1 else -1)
        assert jacobi(SMALL_SAFE_P, SMALL_SAFE_P) == 0

    @settings(max_examples=20, deadline=None)
    @given(y=st.integers(min_value=2, max_value=P - 2))
    def test_jacobi_is_subgroup_membership_on_modp1024(self, y):
        assert (jacobi(y, P) == 1) == (pow(y, Q, P) == 1)

    def test_negated_key_signatures_rejected(self):
        # The holder of x signs for p - y.  Without the subgroup check
        # every signature whose challenge is odd verifies (about half).
        key = generate_schnorr_keypair(Rng(b"negated-key"))
        negated = SchnorrKeyPair(group=key.group, x=key.x, y=P - key.y)
        for i in range(20):
            message = b"forged %d" % i
            sig = schnorr_sign(negated, message)
            assert not schnorr_verify(key.group, negated.y, message, sig)
            assert schnorr_verify(key.group, key.y, message, schnorr_sign(key, message))
