"""Equivalence relations on odd-order lens spaces and fibers of the invariant.

For odd p the fiber of F through a unit q is the set of units x with
(x - q)(x - q^-1) = 0 mod p.  F separates L(p, .) up to oriented
homeomorphism (every fiber is an inverse pair {q, q^-1}) exactly when p is
an odd prime, or p = 3l with l >= 5 prime.

Proof sketch.  By the CRT the fiber is the product of the local solution
sets mod each prime power l^e that exactly divides p, and every solution
is a unit.  With d = min(v_l(q^2 - 1), e) the local count is 2 when d = 0,
2 l^d when 0 < 2d < e, and l^floor(e/2) when 2d >= e.  At a prime (e = 1)
it is at most 2, and mod 3 every unit has d = e = 1, so one solution: at
p prime or p = 3l each fiber has at most two members and is {q, q^-1}.
Any other odd composite p has a factor l^e with e >= 2, where q = 1 has
l^floor(e/2) >= 3 local solutions, or two prime factors >= 5, where a unit
that is +-1 modulo neither has a fiber of at least 4.
"""

from __future__ import annotations

import math
from enum import Enum, unique

from . import sweeps
from .modring import (
    is_odd_part_square,
    is_odd_part_square_up_to_sign,
    is_prime,
    require_odd,
    require_odd_prime,
)


@unique
class RelationKind(Enum):
    """Which identification of L(p, .) spaces is being queried."""

    ORIENTED_HOMEO = "oriented-homeo"
    HOMEO = "homeo"
    ORIENTED_HOMOTOPY = "oriented-homotopy"
    HOMOTOPY = "homotopy"
    FRAMING_EQUAL = "framing-equal"


# The members as plain globals: related() tests kind against them on every
# call, and reading RelationKind.X costs several times a global lookup.
_ORIENTED_HOMEO, _HOMEO, _ORIENTED_HOMOTOPY, _HOMOTOPY, _FRAMING_EQUAL = RelationKind


def related(kind: RelationKind, p: int, q: int, q2: int) -> bool:
    """Whether L(p, q) and L(p, q2) are identified under the given relation.

    Every kind tests the unit q * q2 (p odd), with no inverse or table and at
    most one pow per prime factor of p: q2 = q or q * q2 = 1 is the oriented
    homeomorphism orbit {q, q^-1}, mirrors add q2 = -q and q * q2 = -1;
    q2/q = q * q2 / q^2 is a square (up to sign) when q * q2 is; framing
    values agree exactly when (q - q2)(q * q2 - 1) = 0 mod p.
    """
    require_odd(p)
    product = q * q2 % p
    if math.gcd(product, p) != 1:
        raise ValueError(f"{q if math.gcd(q, p) != 1 else q2} is not a unit mod {p}")
    if kind is _FRAMING_EQUAL:
        return (q - q2) * (product - 1) % p == 0
    if kind is _ORIENTED_HOMEO:
        return (q - q2) % p == 0 or product == 1
    if kind is _HOMEO:
        return (q - q2) % p == 0 or (q + q2) % p == 0 or product == 1 or product == p - 1
    if kind is _ORIENTED_HOMOTOPY:
        return is_odd_part_square(product, p)
    if kind is _HOMOTOPY:
        return is_odd_part_square_up_to_sign(product, p)
    raise ValueError(f"unknown relation kind {kind!r}")


def quadratic_roots(p: int, c: int) -> set[int]:
    """All units q2 of a prime field Z/p whose framing value equals c.

    Found by exhaustive scan of the in-ring route (2 - q2 - q2^-1) * 4^-1, so
    the result doubles as an independent oracle for the odd-lift computation.
    The same condition reads q2^2 - (2 - 4c) q2 + 1 = 0 over Z/p, a quadratic,
    hence the result has size 0, 1 or 2.
    """
    require_odd_prime(p)
    if not 0 <= c < p:
        raise ValueError(f"class value {c} out of range [0, {p})")
    table = sweeps.residue_table(p)
    return {q2 for q2 in range(1, p) if table[q2] == c}


def verify_prime_classification(p: int) -> bool:
    """Check that framing values separate units exactly into inverse pairs.

    Equivalent to: framing values agree exactly when the spaces are oriented
    homeomorphic.  Exhaustive over all units of the odd prime p, by counting:
    when F(q) = F(q^-1) at every unit, each fiber is a union of the (p + 1)/2
    inverse classes ({1}, {p - 1} and (p - 3)/2 pairs), so the fibers are
    exactly those classes if and only if F takes (p + 1)/2 distinct values.
    """
    require_odd_prime(p)
    table = sweeps.invariant_table(p)
    _, inverses = sweeps.unit_group(p)
    symmetric = all(table[q] == table[inverses[q]] for q in range(1, p))
    return symmetric and len(set(table[1:])) == (p + 1) // 2


def collision_scan(p: int) -> list[tuple[int, int]]:
    """All unordered unit pairs with equal framing value that are not inverse pairs.

    Only for odd composite p.  The result is empty exactly when p = 3l with
    l >= 5 prime (see the module docstring).  One pass over the units in
    increasing order pairs each q with the earlier units of its value.
    """
    require_odd(p)
    if is_prime(p):
        raise ValueError(
            f"p must be composite, got prime {p} (use verify_prime_classification)"
        )
    table = sweeps.invariant_table(p)
    group, inverses = sweeps.unit_group(p)
    seen: dict[int, list[int]] = {}
    pairs: list[tuple[int, int]] = []
    for q in group:
        earlier = seen.setdefault(table[q], [])
        inv_q = inverses[q]
        for q0 in earlier:
            if q0 != inv_q:
                pairs.append((q0, q))
        earlier.append(q)
    return sorted(pairs)
