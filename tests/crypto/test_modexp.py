"""Fixed-base modexp tables and the Schnorr subgroup check.

:func:`repro.crypto.numtheory.modexp` must equal builtin ``pow`` on
every path: first sighting, table build, table hit, over-wide and
negative exponents, tiny odd and even moduli.  The table LRU must keep
a hot base (the group generator) alive under pressure from many other
recurring bases, and with the crypto caches disabled no table may be
built at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.dh import MODP_1024
from repro.crypto.drbg import Rng
from repro.crypto.numtheory import MAX_TABLES, jacobi, modexp
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    generate_schnorr_keypair,
    schnorr_sign,
    schnorr_verify,
)

P, G = MODP_1024.p, MODP_1024.g


def modexp_stats():
    """Tables served (hits), tables built (misses), tables held."""
    return cache.cache_stats()["modexp-tables"]

Q = (P - 1) // 2

#: A 62-bit safe prime (q = 1152921504606849959 is prime).
SMALL_SAFE_P = 2305843009213699919


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
        # Each exponent three times: first sighting, table build, table hit.
        cache.clear_all()
        for exp in exps:
            for _ in range(3):
                assert modexp(base, exp, mod) == pow(base, exp, mod)

    @settings(max_examples=10, deadline=None)
    @given(exps=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=3, max_size=5))
    def test_modp1024_generator(self, exps):
        cache.clear_all()
        for exp in exps:
            assert modexp(G, exp, P) == pow(G, exp, P)
        assert modexp_stats()["entries"] == 1

    def test_table_path_runs(self):
        cache.clear_all()
        base = 0xC0FFEE
        for exp in (5, 2**40 + 3, 0, 2**60 - 1):
            assert modexp(base, exp, P) == pow(base, exp, P)
        stats = modexp_stats()
        assert stats["misses"] == 1  # built on the second sighting
        assert stats["hits"] == 3

    def test_wide_and_negative_exponents_fall_back(self):
        cache.clear_all()
        wide = (1 << 1100) + 12345
        for _ in range(3):
            assert modexp(G, wide, P) == pow(G, wide, P)
            assert modexp(G, -7, P) == pow(G, -7, P)
            assert modexp(3, -1, 7) == pow(3, -1, 7)
        assert modexp_stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestTableCache:
    MOD = (1 << 127) - 1

    def _use(self, base, exp=0xABCDEF):
        assert modexp(base, exp, self.MOD) == pow(base, exp, self.MOD)

    def test_hot_base_survives_lru_pressure(self):
        cache.clear_all()
        hot = 2
        self._use(hot)
        self._use(hot)  # table built
        for other in range(3, 3 + MAX_TABLES + 8):
            self._use(other)
            self._use(other)  # another table, evicting the coldest
            self._use(hot)
        assert modexp_stats()["entries"] == MAX_TABLES
        built = modexp_stats()["misses"]
        hits = modexp_stats()["hits"]
        self._use(hot)
        assert modexp_stats()["misses"] == built  # not rebuilt
        assert modexp_stats()["hits"] == hits + 1

    def test_cold_base_is_evicted(self):
        cache.clear_all()
        self._use(2)
        self._use(2)
        for other in range(3, 3 + MAX_TABLES):
            self._use(other)
            self._use(other)
        hits = modexp_stats()["hits"]
        self._use(2)  # evicted: a fresh first sighting, served by pow
        assert modexp_stats()["hits"] == hits

    def test_disabled_builds_no_table(self):
        cache.clear_all()
        with cache.disabled():
            for exp in (3, 5, 7, 11):
                assert modexp(G, exp, P) == pow(G, exp, P)
            key = generate_schnorr_keypair(Rng(b"cold"))
            sig = schnorr_sign(key, b"m")
            assert schnorr_verify(key.group, key.y, b"m", sig)
            assert schnorr_verify(key.group, key.y, b"m", sig)
        assert modexp_stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert cache.cache_stats()["modexp-seen"]["entries"] == 0


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
