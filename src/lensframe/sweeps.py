"""Sweeps over the whole unit group of Z/p.

Tables are cached for the latest modulus because the classification and
verification layers reuse them heavily within one p; they are tuples, so
cached entries cannot be mutated by callers.  Every sweep reads its units
and their inverses from unit_group, so each inverse is computed once per p.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .framing import odd_lift
from .modring import inverse, require_odd, units

BACKEND = "python"

# Per-modulus tables kept by the sweeps: sweeps go in increasing p and reuse
# a p's tables only while that p is swept, so one modulus keeps every hit and
# memory holds one p's tables.
TABLE_CACHE_SIZE = 1


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def unit_group(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The units of Z/p in increasing order, and q^-1 at each unit q in [0, p) (0 at non-units)."""
    require_odd(p)
    group = units(p)
    inverses = [0] * p
    for q, q_inv in zip(group, map(pow, group, repeat(-1), repeat(p))):
        inverses[q] = q_inv
    return group, tuple(inverses)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def invariant_table(p: int) -> tuple[int, ...]:
    """Framing values (a-1)(b-1)/4 mod p for every q in [0, p); -1 at non-units.

    a and b are the odd lifts of q and q^-1, so the division by 4 is exact
    over the integers.
    """
    group, inverses = unit_group(p)
    table = [-1] * p
    for q in group:
        table[q] = (odd_lift(q, p) - 1) * (odd_lift(inverses[q], p) - 1) // 4 % p
    return tuple(table)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def residue_table(p: int) -> tuple[int, ...]:
    """Same values as invariant_table, computed entirely inside Z/p.

    Uses (2 - q - q^-1) * 4^-1 mod p, which never leaves the ring; serves as
    an independent route against the integer odd-lift computation.
    """
    group, inverses = unit_group(p)
    inv4 = inverse(4, p)
    table = [-1] * p
    for q in group:
        table[q] = (2 - q - inverses[q]) * inv4 % p
    return tuple(table)


def first_bad_lift(p: int, q: int, q_inv: int, max_shift: int) -> int | None:
    """First value (a+2jp-1)(b+2kp-1)/4 mod p that differs from F(L(p, q)), or None.

    a and b are the odd lifts of the unit q and of its inverse q_inv, both in
    [1, p); tries every 0 <= j, k <= max_shift, j in the outer loop.
    """
    a = odd_lift(q, p) - 1
    b = odd_lift(q_inv, p) - 1
    base = a * b // 4 % p
    step = 2 * p
    stop = step * (max_shift + 1)
    b_lifts = range(b, b + stop, step)
    for aj in range(a, a + stop, step):
        for bk in b_lifts:
            value = aj * bk // 4 % p
            if value != base:
                return value
    return None


def lift_mismatch(p: int, max_shift: int) -> tuple[int, int] | None:
    """(q, first_bad_lift's value) at the first unit q whose invariant depends on the odd lifts, or None."""
    group, inverses = unit_group(p)
    for q in group:
        # Swapping q and q^-1 swaps a with b and j with k: each class {q, q^-1} is swept once, at its smaller member.
        if q <= inverses[q] and (value := first_bad_lift(p, q, inverses[q], max_shift)) is not None:
            return q, value
    return None
