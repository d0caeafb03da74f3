"""Number-theoretic primitives for the public-key code.

Miller-Rabin primality testing, deterministic prime generation from a
DRBG, extended Euclid, modular inverse, the Jacobi symbol, and
:func:`modexp`, the one modular exponentiation the DH and Schnorr
code goes through.  Everything here is deterministic given the
caller's :class:`~repro.crypto.drbg.Rng`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.crypto import cache
from repro.crypto.drbg import Rng
from repro.errors import CryptoError

__all__ = ["is_probable_prime", "generate_prime", "egcd", "modinv", "jacobi", "modexp"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


def is_probable_prime(n: int, rng: Rng, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Rng, rounds: int = 40) -> int:
    """A random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError("prime size too small")
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # exact width, odd
        if is_probable_prime(candidate, rng, rounds):
            return candidate


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``: 1, -1 or 0.

    For a prime ``n`` it is the Legendre symbol, so for a safe prime
    ``p = 2q + 1`` a value ``0 < y < p`` lies in the order-``q``
    subgroup exactly when ``jacobi(y, p) == 1`` -- the same answer as
    ``pow(y, q, p) == 1`` at about a fifteenth of the cost.
    """
    if n <= 0 or n % 2 == 0:
        raise CryptoError("Jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Fixed-base exponentiation for recurring bases (wall-clock only)
# ---------------------------------------------------------------------------

#: BGMW window: a table holds ``base^(2^(6i))`` for each 6-bit digit of
#: the modulus width -- 171 powers, about 29 KiB, at 1024 bits.
_WINDOW = 6
_DIGIT = (1 << _WINDOW) - 1

#: Tables kept at once.  Least recently used goes first, so the group
#: generator -- the base of most exponentiations -- is never evicted.
MAX_TABLES = 32

#: Bound on the record of bases seen once (most are one-off DH peers).
_MAX_SEEN = 1024

_TABLES: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
_SEEN: Dict[Tuple[int, int], None] = {}
#: hits = exponentiations served from a table, misses = tables built.
_TABLE_STATS = cache.register(_TABLES, "modexp-tables")
cache.register(_SEEN, "modexp-seen")


def _digits(mod: int) -> int:
    return -(-mod.bit_length() // _WINDOW)


def _build_table(base: int, mod: int) -> List[int]:
    power = base % mod
    table = [power]
    for _ in range(_digits(mod) - 1):
        power = pow(power, 1 << _WINDOW, mod)
        table.append(power)
    return table


def _fixed_base(table: List[int], exp: int, mod: int) -> int:
    """BGMW: bucket the table entries by digit, then fold the buckets.

    ``base^exp = prod_d (prod_{e_i = d} T_i)^d``, and the product over
    ``d = 63 .. 1`` takes two multiplications per digit value with a
    running partial product -- about 240 multiplications in all at
    1024 bits, against about 1200 for square-and-multiply.
    """
    buckets: List = [None] * (_DIGIT + 1)
    i = 0
    while exp:
        d = exp & _DIGIT
        if d:
            prior = buckets[d]
            buckets[d] = table[i] if prior is None else prior * table[i] % mod
        exp >>= _WINDOW
        i += 1
    run = acc = 1
    for d in range(_DIGIT, 0, -1):
        bucket = buckets[d]
        if bucket is not None:
            run = run * bucket % mod
        acc = acc * run % mod
    return acc % mod


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``, faster for a base that recurs.

    The first time a ``(base, mod)`` pair is seen this is builtin
    ``pow``.  From the second time on, a fixed-base table for the pair
    is built (about the cost of one ``pow`` at 1024 bits) and
    kept in an LRU of :data:`MAX_TABLES`; each use then costs about a
    quarter of ``pow``.  Negative exponents, exponents wider than the
    modulus, moduli below 2 and runs with the crypto caches disabled
    always take builtin ``pow``.  The result is the same integer on
    every path.
    """
    if not cache.enabled() or exp < 0 or mod < 2:
        return pow(base, exp, mod)
    if exp.bit_length() > _WINDOW * _digits(mod):
        return pow(base, exp, mod)
    key = (base, mod)
    table = _TABLES.get(key)
    if table is not None:
        _TABLES.move_to_end(key)
    elif key in _SEEN:
        del _SEEN[key]
        table = _TABLES[key] = _build_table(base, mod)
        _TABLE_STATS.misses += 1
        if len(_TABLES) > MAX_TABLES:
            _TABLES.popitem(last=False)
    else:
        if len(_SEEN) >= _MAX_SEEN:
            _SEEN.clear()
        _SEEN[key] = None
        return pow(base, exp, mod)
    _TABLE_STATS.hits += 1
    return _fixed_base(table, exp, mod)
