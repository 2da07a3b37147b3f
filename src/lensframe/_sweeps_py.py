"""Pure-Python sweeps over the unit group of Z/p.

This is the fallback twin of the compiled module ``_sweeps_cy``; the
dispatcher in ``sweeps`` picks whichever is importable.  The two
implementations must stay in lockstep (tests/test_sweeps.py compares them
entry by entry).
"""

from __future__ import annotations

from .modring import require_odd


def invariant_table(p: int) -> tuple[int, ...]:
    """Framing values (a-1)(b-1)/4 mod p for every q in [0, p); -1 at non-units.

    a and b are the odd representatives in [0, 2p) of q and of q^-1, so the
    division by 4 is exact over the integers.
    """
    require_odd(p)
    table = [-1] * p
    for q in range(1, p):
        try:
            inv = pow(q, -1, p)
        except ValueError:
            continue
        a = q if q & 1 else q + p
        b = inv if inv & 1 else inv + p
        table[q] = ((a - 1) * (b - 1) // 4) % p
    return tuple(table)


def residue_table(p: int) -> tuple[int, ...]:
    """Same values as invariant_table, computed entirely inside Z/p.

    Uses (2 - q - q^-1) * 4^-1 mod p, which never leaves the ring; serves as
    an independent route against the integer odd-lift computation.
    """
    require_odd(p)
    inv4 = pow(4, -1, p)
    table = [-1] * p
    for q in range(1, p):
        try:
            inv = pow(q, -1, p)
        except ValueError:
            continue
        table[q] = (2 - q - inv) * inv4 % p
    return tuple(table)


def lift_mismatch(p: int, max_shift: int) -> int:
    """First unit whose invariant depends on the choice of odd lifts, or -1.

    Tries every lift pair a + 2jp, b + 2kp with 0 <= j, k <= max_shift against
    the canonical lifts; a clean sweep returns -1.
    """
    require_odd(p)
    for q in range(1, p):
        try:
            inv = pow(q, -1, p)
        except ValueError:
            continue
        a = q if q & 1 else q + p
        b = inv if inv & 1 else inv + p
        base = ((a - 1) * (b - 1) // 4) % p
        for j in range(max_shift + 1):
            aj = a + 2 * j * p
            for k in range(max_shift + 1):
                bk = b + 2 * k * p
                if ((aj - 1) * (bk - 1) // 4) % p != base:
                    return q
    return -1
