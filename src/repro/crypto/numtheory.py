"""Number-theoretic primitives for the public-key code.

Miller-Rabin primality testing, deterministic prime generation from a
DRBG, extended Euclid, modular inverse, the Jacobi symbol, and
:func:`modexp`, the one modular exponentiation behind DH, Schnorr, RSA
and the Miller-Rabin witnesses.  Everything here is deterministic given
the caller's :class:`~repro.crypto.drbg.Rng`.
"""

from __future__ import annotations

from typing import Tuple

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
        x = modexp(a, d, n)
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


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``, by OpenSSL's ``BN_mod_exp`` where it can.

    The kernel is :func:`repro.crypto.cache.fast_modexp`.  Builtin
    ``pow`` serves every call with the crypto caches disabled and every
    call the kernel declines.  The result is the same integer either
    way.
    """
    result = cache.fast_modexp(base, exp, mod) if cache.enabled() else None
    return pow(base, exp, mod) if result is None else result
