"""The framing invariant of odd-order lens spaces and the tightness obstruction.

A lens space L(p, q) with p odd carries a residue class mod p built from odd
integer lifts of q and q^-1; the class does not depend on the choice of odd
lifts and changes sign (after recentring by -1/2) under orientation reversal.
For a general free quotient of the 3-sphere, pulled-back framings live in
Z/m where m is the group order, halved when H_1(.; Z/2) is nonzero; a
nonzero pullback class rules out a universally tight positive contact
structure on the quotient.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .modring import Modulus, Record, inverse, require_odd

# Each framing class carries a Modulus; point queries at the same p share one.
MODULUS_CACHE_SIZE = 4096
_modulus = lru_cache(maxsize=MODULUS_CACHE_SIZE)(Modulus)


class LensSpace(Record):
    """Oriented lens space L(p, q): gcd(p, q) = 1 and q stored in [1, p-1].

    The same space with the opposite orientation is L(p, p - q).
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if p < 2:
            raise ValueError(f"group order must be >= 2, got {p}")
        if not 1 <= q <= p - 1:
            raise ValueError(f"q must lie in [1, {p - 1}], got {q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"not a lens space: gcd({p}, {q}) != 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def reversed(self) -> LensSpace:
        """Orientation reversal."""
        return LensSpace(self.p, self.p - self.q)

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


class FramingClass(Record):
    """A residue class of pulled-back framings, carrying its modulus."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: Modulus) -> None:
        if not 0 <= value < modulus.m:
            raise ValueError(f"class value {value} out of range [0, {modulus.m})")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus.m})"


def framing_modulus(group_order: int, h1_z2_trivial: bool) -> Modulus:
    """Modulus of the framing class for a free quotient by a group of this order.

    Pullbacks of framings differ by multiples of the group order when
    H_1(M; Z/2) = 0 and by multiples of half the order otherwise; an odd-order
    quotient always has H_1(M; Z/2) = 0.
    """
    if group_order < 2:
        raise ValueError(f"group order must be >= 2, got {group_order}")
    if h1_z2_trivial:
        return Modulus(group_order)
    if group_order % 2 == 1:
        raise ValueError(
            f"inconsistent input: odd group order {group_order} forces H1(M; Z/2) = 0"
        )
    if group_order // 2 < 2:
        raise ValueError("group order 2 with nontrivial H1 mod 2 leaves a degenerate modulus")
    return Modulus(group_order // 2)


class QuotientData(Record):
    """A free spherical quotient: group order, H_1(.; Z/2) flag, pullback class."""

    __slots__ = ("group_order", "h1_z2_trivial", "pullback_class")

    def __init__(self, group_order: int, h1_z2_trivial: bool, pullback_class: FramingClass) -> None:
        expected = framing_modulus(group_order, h1_z2_trivial)
        if pullback_class.modulus != expected:
            m = pullback_class.modulus.m
            raise ValueError(f"pullback class modulus {m} does not match the required modulus {expected.m}")
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "h1_z2_trivial", h1_z2_trivial)
        object.__setattr__(self, "pullback_class", pullback_class)


def odd_lift(v: int, p: int) -> int:
    """The odd member of {v, v + p} for v in [0, p) and odd p: an odd lift in [0, 2p)."""
    return v if v & 1 else v + p


def odd_lifts(p: int, q: int) -> tuple[int, int]:
    """Odd representatives in [0, 2p) of a unit q in [1, p) and of q^-1, for odd p >= 3."""
    require_odd(p)
    return odd_lift(q, p), odd_lift(inverse(q, p), p)


def framing_value(p: int, q: int) -> int:
    """F(L(p, q)) as a plain int, for odd p and a unit q in [1, p)."""
    require_odd(p)
    return (odd_lift(q, p) - 1) * (odd_lift(inverse(q, p), p) - 1) // 4 % p


def framing_invariant(space: LensSpace) -> FramingClass:
    """Framing class of L(p, q) for odd p: (a-1)(b-1)/4 reduced mod p.

    a and b are the odd representatives of q and q^-1, so (a-1)(b-1) is
    divisible by 4 over the integers before any reduction; the resulting
    residue is independent of which odd lifts are taken.
    """
    return FramingClass(framing_value(space.p, space.q), _modulus(space.p))


def framing_invariant_residue(space: LensSpace) -> FramingClass:
    """Redundant evaluation route that never leaves Z/p: (2 - q - q^-1) * 4^-1.

    Expanding (a-1)(b-1)/4 with ab = 1 mod p gives this form; both routes
    must agree, which the test suite checks exhaustively.  4^-1 = ((p+1)/2)^2.
    """
    p, q = space.p, space.q
    require_odd(p)
    return FramingClass((2 - q - inverse(q, p)) * ((p + 1) // 2) ** 2 % p, _modulus(p))


def normalized_framing_invariant(space: LensSpace) -> FramingClass:
    """Framing class recentred so that orientation reversal negates it.

    Declares the left-invariant framing to be -1/2 instead of 0, realised
    inside Z/p as subtraction of 2^-1 = (p+1)/2 (p odd makes 2 a unit).
    """
    p = space.p
    return FramingClass((framing_value(p, space.q) - (p + 1) // 2) % p, _modulus(p))


def equivariant_map_degree(space: LensSpace, k: int) -> int:
    """Degree of a comparison map built from the odd lifts plus a local degree-k insertion.

    Equals (a-1)(b-1)/4 + k*p as a plain integer; reduction mod p recovers
    the framing invariant for every k.
    """
    a, b = odd_lifts(space.p, space.q)
    return (a - 1) * (b - 1) // 4 + k * space.p


def universally_tight_obstructed(data: QuotientData) -> bool:
    """True when the pullback class forbids a universally tight positive contact structure.

    Class 0 is the left-invariant framing of the 3-sphere, the framing
    associated to its unique positive tight contact structure; a quotient
    whose framings pull back to any other class cannot carry a universally
    tight positive contact structure.
    """
    return data.pullback_class.value != 0
