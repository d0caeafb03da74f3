"""Cache equivalence: the fast paths are invisible to the cost model.

The contract behind every cache in :mod:`repro.crypto.cache` is that
it may change *wall time only*.  For any input, running a primitive

* cold (caches disabled — the pure-Python oracle),
* on a cache **miss** (caches enabled, freshly cleared), and
* on a cache **hit** (caches enabled, warmed by a prior call)

must produce byte-identical output and *integer-equal* cost counters.
These hypothesis properties pin that contract for every cached kernel:
AES block ops, CTR keystreams, ECB/CBC, HMAC, CMAC, HKDF, and the
public-key path -- DH, Schnorr signing, the memoized Schnorr verify
(accepting and rejecting), RSA key generation, signing and verifying,
and Miller-Rabin -- over the ``BN_mod_exp`` modexp kernel.

The record-channel regression at the bottom pins the satellite fix:
one key-schedule expansion per distinct session key, while
``cipher_init_normal`` is still charged once per cipher instance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import context as cost_context
from repro.cost.accountant import CostAccountant
from repro.crypto import cache
from repro.crypto import dh
from repro.crypto.aes import AES, key_schedule_stats
from repro.crypto.drbg import Rng
from repro.crypto.kdf import hkdf
from repro.crypto.mac import aes_cmac, cmac_verify, hmac_sha256, hmac_verify
from repro.crypto.modes import CtrStream, cbc_encrypt, ecb_decrypt, ecb_encrypt
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.rsa import generate_rsa_keypair, rsa_sign, rsa_verify
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    generate_schnorr_keypair,
    schnorr_sign,
    schnorr_verify,
)

KEYS = st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32)
SETTINGS = settings(max_examples=25, deadline=None)


def _measure(op):
    """Run ``op`` under a fresh accountant; return (output, counters)."""
    acct = CostAccountant()
    with cost_context.use_accountant(acct):
        out = op()
    counters = {
        domain: counter.as_dict() for domain, counter in acct.snapshot().items()
    }
    return out, counters


@pytest.fixture
def caches_on():
    """Caches on for one test, whatever ``REPRO_NO_CRYPTO_CACHE`` says."""
    prior = cache.enabled()
    cache.configure(True)
    yield
    cache.configure(prior)


def assert_equivalent(op):
    """Cold, cache-miss and cache-hit runs of ``op`` must agree exactly."""
    cache.clear_all()
    with cache.disabled():
        cold_out, cold_counters = _measure(op)
    cache.clear_all()
    miss_out, miss_counters = _measure(op)  # populates the caches
    hit_out, hit_counters = _measure(op)  # served from them
    assert miss_out == cold_out
    assert hit_out == cold_out
    assert miss_counters == cold_counters
    assert hit_counters == cold_counters


class TestCacheEquivalence:
    @SETTINGS
    @given(key=KEYS, block=st.binary(min_size=16, max_size=16))
    def test_aes_block(self, key, block):
        assert_equivalent(lambda: AES(key).encrypt_block(block))
        assert_equivalent(
            lambda: AES(key).decrypt_block(AES(key).encrypt_block(block))
        )

    @SETTINGS
    @given(
        key=KEYS,
        lengths=st.lists(st.integers(min_value=0, max_value=100), max_size=5),
    )
    def test_ctr_keystream(self, key, lengths):
        def op():
            stream = CtrStream(key, b"nonce")
            return b"".join(stream.keystream(n) for n in lengths)

        assert_equivalent(op)

    @SETTINGS
    @given(key=KEYS, plaintext=st.binary(max_size=96))
    def test_ecb_cbc(self, key, plaintext):
        padded = plaintext + b"\x00" * (-len(plaintext) % 16)
        assert_equivalent(
            lambda: ecb_decrypt(AES(key), ecb_encrypt(AES(key), padded))
        )
        assert_equivalent(lambda: cbc_encrypt(AES(key), b"\x01" * 16, padded))

    @SETTINGS
    @given(key=st.binary(max_size=80), message=st.binary(max_size=200))
    def test_hmac(self, key, message):
        def op():
            tag = hmac_sha256(key, message)
            assert hmac_verify(key, message, tag)
            return tag

        assert_equivalent(op)

    @SETTINGS
    @given(key=st.binary(min_size=16, max_size=16), message=st.binary(max_size=100))
    def test_cmac(self, key, message):
        def op():
            tag = aes_cmac(key, message)
            assert cmac_verify(key, message, tag)
            return tag

        assert_equivalent(op)

    @SETTINGS
    @given(
        ikm=st.binary(min_size=1, max_size=64),
        salt=st.binary(max_size=32),
        info=st.binary(max_size=32),
        length=st.integers(min_value=1, max_value=128),
    )
    def test_hkdf(self, ikm, salt, info, length):
        assert_equivalent(lambda: hkdf(ikm, salt=salt, info=info, length=length))


class TestPublicKeyEquivalence:
    SEEDS = st.binary(min_size=1, max_size=16)
    PK_SETTINGS = settings(max_examples=8, deadline=None)

    @PK_SETTINGS
    @given(seed=SEEDS, message=st.binary(max_size=64))
    def test_schnorr_sign_and_verify(self, seed, message):
        def op():
            key = generate_schnorr_keypair(Rng(seed))
            sig = schnorr_sign(key, message)
            return key.y, sig, schnorr_verify(key.group, key.y, message, sig)

        assert_equivalent(op)
        assert op()[2] is True

    @PK_SETTINGS
    @given(seed=SEEDS, message=st.binary(max_size=64))
    def test_schnorr_verify_rejections(self, seed, message):
        key = generate_schnorr_keypair(Rng(seed))
        sig = schnorr_sign(key, message)
        negated = SchnorrKeyPair(group=key.group, x=key.x, y=key.group.p - key.y)
        forged = schnorr_sign(negated, message)
        q = (key.group.p - 1) // 2

        def op():
            return (
                schnorr_verify(key.group, key.y, message + b"!", sig),
                schnorr_verify(key.group, negated.y, message, forged),
                schnorr_verify(key.group, key.y, message, SchnorrSignature(e=1, s=q)),
                schnorr_verify(key.group, 1, message, sig),
            )

        assert_equivalent(op)
        assert op() == (False, False, False, False)

    @PK_SETTINGS
    @given(seed=SEEDS)
    def test_dh_exchange(self, seed):
        def op():
            rng = Rng(seed)
            a = dh.generate_keypair(dh.MODP_1024, rng)
            b = dh.generate_keypair(dh.MODP_1024, rng)
            return dh.shared_secret(a, b.public), dh.shared_secret(b, a.public)

        assert_equivalent(op)
        left, right = op()
        assert left == right


class _CountingRng(Rng):
    """An :class:`Rng` that counts its ``randint`` draws (MR witnesses)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randint(self, low, high):
        self.draws += 1
        return super().randint(low, high)


class TestRsaAndPrimalityEquivalence:
    """The exponentiations routed through the kernel: RSA and Miller-Rabin."""

    RSA_SEEDS = [0, 1, 2, 97]
    PRIMES = [
        dh.MODP_1024.p,
        (dh.MODP_1024.p - 1) // 2,
        2**127 - 1,
        2**521 - 1,
    ]
    #: Composites with no factor below 200, so trial division passes
    #: them on to the witnesses: a Carmichael number (211 * 421 * 631),
    #: a product of two Mersenne primes, and an RSA-style modulus.
    COMPOSITES = [
        211 * 421 * 631,
        (2**61 - 1) * (2**89 - 1),
        (2**127 - 1) * (2**521 - 1),
    ]

    @pytest.mark.parametrize("seed", RSA_SEEDS)
    def test_rsa_keygen_sign_verify(self, seed):
        message = b"rsa-%d" % seed

        def op():
            key = generate_rsa_keypair(512, Rng(seed))
            public = key.public_key()
            signature = rsa_sign(key, message)
            tampered = bytes([signature[0] ^ 1]) + signature[1:]
            return (
                key,
                signature,
                rsa_verify(public, message, signature),
                rsa_verify(public, message + b"!", signature),
                rsa_verify(public, message, tampered),
            )

        assert_equivalent(op)
        assert op()[2:] == (True, False, False)

    @pytest.mark.parametrize("seed", RSA_SEEDS)
    def test_miller_rabin(self, seed):
        def op():
            verdicts = []
            for n in self.PRIMES + self.COMPOSITES:
                rng = _CountingRng(seed)
                # The next draw pins where the witness stream stopped.
                verdicts.append((is_probable_prime(n, rng), rng.draws, rng.randbits(64)))
            return verdicts

        assert_equivalent(op)
        verdicts = op()
        for verdict, draws, _ in verdicts[: len(self.PRIMES)]:
            assert verdict is True
            assert draws == 40  # every round drew its witness
        for verdict, _, _ in verdicts[len(self.PRIMES) :]:
            assert verdict is False


class TestRecordChannelKeySchedule:
    """Satellite fix: one key-schedule expansion per session key."""

    def _channel_pair(self):
        from repro.net.channel import SecureRecordChannel
        from repro.sgx.attestation import SessionKeys

        keys = SessionKeys.derive(b"cache-regression", b"\x24" * 32)
        return (
            SecureRecordChannel(keys, "initiator"),
            SecureRecordChannel(keys, "responder"),
        )

    def test_one_expansion_per_session_key(self, caches_on):
        cache.clear_all()
        base = key_schedule_stats()
        initiator, responder = self._channel_pair()
        for _ in range(20):
            assert responder.open(initiator.protect(b"payload")) == b"payload"
        after = key_schedule_stats()
        misses = after["misses"] - base["misses"]
        # A channel pair touches exactly two distinct AES session keys
        # (initiator-enc and responder-enc); every further cipher
        # construction and record must hit the schedule cache.
        assert misses == 2
        assert after["hits"] > base["hits"]

    def test_cipher_init_still_charged_per_instance(self):
        cache.clear_all()
        key = b"\x13" * 16
        model = cost_context.current_model()

        def build_twice():
            AES(key)
            AES(key)

        _, counters = _measure(build_twice)
        normal = counters["untrusted"]["normal_instructions"]
        assert normal == 2 * model.cipher_init_normal

    def test_channel_bytes_unchanged_by_cache_state(self):
        cache.clear_all()
        with cache.disabled():
            initiator, _ = self._channel_pair()
            cold = [initiator.protect(b"rec-%d" % i) for i in range(5)]
        cache.clear_all()
        initiator, _ = self._channel_pair()
        warm = [initiator.protect(b"rec-%d" % i) for i in range(5)]
        assert warm == cold


class TestCachePlumbing:
    def test_disabled_context_restores(self, caches_on):
        assert cache.enabled()
        with cache.disabled():
            assert not cache.enabled()
        assert cache.enabled()

    def test_memoize_replays_charges_on_raise(self):
        calls = []

        @cache.memoize_charged(name="raise-probe")
        def sometimes(fail):
            calls.append(fail)
            cost_context.charge_normal(7)
            if fail:
                raise ValueError("boom")
            return b"ok"

        cache.clear_all()
        _, counters = _measure(lambda: pytest.raises(ValueError, sometimes, True))
        assert counters["untrusted"]["normal_instructions"] == 7
        # Raising calls are never cached: the next call runs again.
        _, counters = _measure(lambda: pytest.raises(ValueError, sometimes, True))
        assert counters["untrusted"]["normal_instructions"] == 7
        assert calls == [True, True]
