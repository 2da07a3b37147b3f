"""Exhaustive references that the tests check the package's arithmetic against."""

from functools import cache

from lensframe import sweeps
from lensframe.classify import RelationKind
from lensframe.framing import odd_lift
from lensframe.modring import inverse, is_odd_part_square, require_odd, units


@cache
def square_units(m: int) -> frozenset[int]:
    """The squares inside the unit group of Z/m, by exhaustive enumeration."""
    return frozenset(u * u % m for u in units(m))


@cache
def orbit_keys(p: int) -> dict[int, dict[RelationKind, int]]:
    """Each unit q of Z/p (p odd) -> the least member of its orbit under each geometric kind.

    The orbits are listed, not tested: {q, q^-1} (mirrors add -q and -q^-1) for
    the homeomorphism kinds, the coset q*S of the unit squares S for oriented
    homotopy, and q*S together with -q*S for homotopy.
    """
    squares = square_units(p)
    coset_min = {}
    for q in units(p):
        if q not in coset_min:
            coset = {s * q % p for s in squares}
            coset_min.update(dict.fromkeys(coset, min(coset)))
    keys = {}
    for q in units(p):
        inv_q = inverse(q, p)
        keys[q] = {
            RelationKind.ORIENTED_HOMEO: min(q, inv_q),
            RelationKind.HOMEO: min(q, inv_q, p - q, p - inv_q),
            RelationKind.ORIENTED_HOMOTOPY: coset_min[q],
            RelationKind.HOMOTOPY: min(coset_min[q], coset_min[p - q]),
        }
    return keys


def fibers(p: int) -> dict[int, frozenset[int]]:
    """The units of Z/p (p odd) grouped by framing value: value -> its fiber."""
    require_odd(p)
    table = sweeps.invariant_table(p)
    grouped: dict[int, set[int]] = {}
    for q in units(p):
        grouped.setdefault(table[q], set()).add(q)
    return {v: frozenset(s) for v, s in grouped.items()}


def related_by_inverses(kind: RelationKind, p: int, q: int, q2: int) -> bool:
    """The relations by the inverse route, the oracle for classify.related, which takes none.

    Both inverses, membership in the orbit {q, q^-1} (mirrors add -q and -q^-1),
    squares tested on the ratio q2/q, and the framing values by their odd-lift formula.
    """
    require_odd(p)
    inv_q = inverse(q, p)
    inv_q2 = inverse(q2, p)
    q, q2 = q % p, q2 % p
    if kind is RelationKind.FRAMING_EQUAL:
        return _framing(p, q, inv_q) == _framing(p, q2, inv_q2)
    if kind is RelationKind.ORIENTED_HOMEO:
        return q2 in (q, inv_q)
    if kind is RelationKind.HOMEO:
        return q2 in (q, inv_q, p - q, p - inv_q)
    ratio = q2 * inv_q % p
    if kind is RelationKind.ORIENTED_HOMOTOPY:
        return is_odd_part_square(ratio, p)
    if kind is RelationKind.HOMOTOPY:
        return is_odd_part_square(ratio, p) or is_odd_part_square(p - ratio, p)
    raise ValueError(f"unknown relation kind {kind!r}")


def lift_mismatch(p: int, max_shift: int, lift=odd_lift) -> tuple[int, int] | None:
    """Oracle of sweeps.lift_mismatch: (q, value) at the first unit q whose lifted values differ, or None.

    Every unit is tried, none skipped for its inverse.  a and b are the lifts
    that lift gives q and q^-1; the values (a + 2jp - 1)(b + 2kp - 1)/4 mod p
    go in (j, k) order, and value is the first unlike (a - 1)(b - 1)/4 mod p.
    """
    for q in units(p):
        a, b = lift(q, p), lift(inverse(q, p), p)
        base = (a - 1) * (b - 1) // 4 % p
        for j in range(max_shift + 1):
            for k in range(max_shift + 1):
                value = (a + 2 * j * p - 1) * (b + 2 * k * p - 1) // 4 % p
                if value != base:
                    return q, value
    return None


def even_lift(v: int, p: int) -> int:
    """The even member of {v, v + p}: a wrong lift, under which the lift sweep has failures to report."""
    return v if v % 2 == 0 else v + p


def _framing(p: int, q: int, q_inv: int) -> int:
    return (odd_lift(q, p) - 1) * (odd_lift(q_inv, p) - 1) // 4 % p
