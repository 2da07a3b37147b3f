"""Sweeps over the whole unit group of Z/p.

Tables are cached for the last few moduli because the classification and
verification layers reuse them heavily within one p; they are tuples, so
cached entries cannot be mutated by callers.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .framing import odd_lifts
from .modring import TABLE_CACHE_SIZE, inverse, require_odd, units

BACKEND = "python"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def invariant_table(p: int) -> tuple[int, ...]:
    """Framing values (a-1)(b-1)/4 mod p for every q in [0, p); -1 at non-units.

    a and b are the odd lifts of q and q^-1, so the division by 4 is exact
    over the integers.
    """
    require_odd(p)
    table = [-1] * p
    for q in range(1, p):
        if gcd(q, p) == 1:
            a, b = odd_lifts(p, q)
            table[q] = (a - 1) * (b - 1) // 4 % p
    return tuple(table)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def residue_table(p: int) -> tuple[int, ...]:
    """Same values as invariant_table, computed entirely inside Z/p.

    Uses (2 - q - q^-1) * 4^-1 mod p, which never leaves the ring; serves as
    an independent route against the integer odd-lift computation.
    """
    require_odd(p)
    inv4 = inverse(4, p)
    table = [-1] * p
    for q in units(p):
        table[q] = (2 - q - inverse(q, p)) * inv4 % p
    return tuple(table)


def first_bad_lift(p: int, q: int, max_shift: int) -> int | None:
    """First value (a+2jp-1)(b+2kp-1)/4 mod p that differs from F(L(p, q)), or None.

    a and b are the odd lifts of q and q^-1; tries every 0 <= j, k <= max_shift.
    """
    a, b = odd_lifts(p, q)
    base = (a - 1) * (b - 1) // 4 % p
    b_lifts = [b + 2 * k * p - 1 for k in range(max_shift + 1)]
    for j in range(max_shift + 1):
        aj = a + 2 * j * p - 1
        for bk in b_lifts:
            value = aj * bk // 4 % p
            if value != base:
                return value
    return None


def lift_mismatch(p: int, max_shift: int) -> int:
    """First unit whose invariant depends on the choice of odd lifts, or -1."""
    require_odd(p)
    for q in units(p):
        if first_bad_lift(p, q, max_shift) is not None:
            return q
    return -1
