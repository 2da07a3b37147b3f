"""Connected sums of odd lens spaces as multisets of summands.

Uniqueness of prime decompositions reduces homeomorphism questions about
sums to summand-by-summand matching; for the homotopy relations the same
matching is used as a sufficient certificate only.  The search routine
recovers pairs of sums that match under oriented homotopy equivalence but
not under oriented homeomorphism.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice, repeat
from operator import attrgetter

from .classify import _FRAMING_EQUAL, _HOMEO, _HOMOTOPY, _ORIENTED_HOMEO, _ORIENTED_HOMOTOPY, RelationKind, related
from .framing import LensSpace
from .modring import inverse, is_odd_part_square, is_odd_part_square_up_to_sign, is_prime, units

_GEOMETRIC_KINDS = (_ORIENTED_HOMEO, _HOMEO, _ORIENTED_HOMOTOPY, _HOMOTOPY)


@dataclass(frozen=True)
class SumOfLens:
    """Connected sum of odd-order lens spaces; the empty sum is the 3-sphere."""

    summands: tuple[LensSpace, ...] = ()

    def __post_init__(self) -> None:
        spaces = tuple(sorted(self.summands, key=attrgetter("p", "q")))
        for space in spaces:
            _require_odd_order(space)
        object.__setattr__(self, "summands", spaces)

    def __str__(self) -> str:
        if not self.summands:
            return "S3"
        return "#".join(str(space) for space in self.summands)


def _require_odd_order(space: LensSpace) -> None:
    if space.p % 2 == 0:
        raise ValueError(f"summand {space} has even order")


def _require_matching_kind(kind: RelationKind) -> None:
    if kind is _FRAMING_EQUAL:
        raise ValueError(f"{kind.value} does not induce summand matching on sums")
    if kind not in _GEOMETRIC_KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")


def canonical_key(space: LensSpace, kind: RelationKind) -> tuple[int, int]:
    """(p, least residue in q's kind-orbit): find_exotic_pairs' grouping key; sums match through related()."""
    _require_matching_kind(kind)
    _require_odd_order(space)
    p, q = space.p, space.q
    if kind is _ORIENTED_HOMEO or kind is _HOMEO:
        # The orbit is {q, q^-1}; mirror images add {-q, -q^-1}.
        q_inv = inverse(q, p)
        return p, min(q, q_inv) if kind is _ORIENTED_HOMEO else min(q, q_inv, p - q, p - q_inv)
    # related()'s test: u is in q's orbit exactly when u * q = (u / q) * q^2 is a
    # square (up to sign).  A non-unit u fails it at a prime factor it shares with p.
    square = is_odd_part_square if kind is _ORIENTED_HOMOTOPY else is_odd_part_square_up_to_sign
    return p, next(u for u in range(1, p) if square(u * q % p, p))


def sums_equivalent(a: SumOfLens, b: SumOfLens, kind: RelationKind) -> bool:
    """Whether the two sums match summand-for-summand under the relation, as related() decides it.

    For the homeomorphism kinds this decides equivalence of the sums outright
    (prime decompositions are unique); for the homotopy kinds a match is a
    sufficient certificate, and a failed match only means no certificate.
    Greedy matching is exact: each kind's classes are group orbits on the units of Z/p.
    """
    _require_matching_kind(kind)
    if [s.p for s in a.summands] != [t.p for t in b.summands]:
        return False
    unmatched = list(b.summands)  # each of a's summands takes the first related one left in b
    for s in a.summands:
        i = next((i for i, t in enumerate(unmatched) if t.p == s.p and related(kind, s.p, s.q, t.q)), None)
        if i is None:
            return False
        del unmatched[i]
    return True


class ExoticPairs:
    """The pairs found by find_exotic_pairs: a sized view that generates them on each pass.

    Holds the sums and their homotopy groups, never the pairs: one head per
    sum, in the order the sums were made.  len() counts the pairs without
    generating any, and every pass yields them in the same order.  The view
    keeps every sum alive as long as it lives.
    """

    __slots__ = ("_heads",)

    def __init__(self, heads: list[tuple[list[SumOfLens], int]]) -> None:
        # Each head is (a homotopy group, the index of a sum in it), pairing that
        # sum with the group's later sums; a group's last sum pairs with none,
        # so its head counts 0 and yields an empty islice.
        self._heads = heads

    def __len__(self) -> int:
        return sum(len(group) - index - 1 for group, index in self._heads)

    def __iter__(self) -> Iterator[tuple[SumOfLens, SumOfLens]]:
        return chain.from_iterable(
            zip(repeat(group[index]), islice(group, index + 1, None)) for group, index in self._heads
        )


def find_exotic_pairs(max_p: int, num_summands: int) -> ExoticPairs:
    """Pairs of sums of odd-prime lens spaces that are homotopy-matched but not homeomorphic.

    Enumerates sums with num_summands summands of odd prime order <= max_p,
    one representative per oriented-homeomorphism class, and returns every
    unordered pair matching under ORIENTED_HOMOTOPY while differing under
    ORIENTED_HOMEO.  Each pair is listed once, with its sums in (p, q) order,
    sorted by the (p, q) tuples of the first sum, then of the second.

    The arguments are checked and the sums made and grouped at once, in one
    pass over the sums in that order; the pairs come from the returned
    ExoticPairs, a sized view that generates them in that order on each
    pass, so memory holds the sums but not the pairs.
    """
    if max_p < 3:
        raise ValueError(f"max_p must be >= 3, got {max_p}")
    if num_summands not in (1, 2):
        raise ValueError(f"num_summands must be 1 or 2, got {num_summands}")
    # One space per oriented-homeo class, in (p, q) order: units(p) is increasing.
    spaces = [s for p in range(3, max_p + 1, 2) if is_prime(p)
              for s in map(LensSpace, repeat(p), units(p)) if canonical_key(s, _ORIENTED_HOMEO)[1] == s.q]
    homotopy_key = {(s.p, s.q): canonical_key(s, RelationKind.ORIENTED_HOMOTOPY) for s in spaces}

    # combinations_with_replacement yields every sum once, in (p, q)-tuple
    # order, so each homotopy group lists its sums in order and the heads
    # come in the order of their first sums: the pairs' order, unsorted.
    # The key holds p, so one dict over all p-multisets separates them.
    by_homotopy: dict[tuple[tuple[int, int], ...], list[SumOfLens]] = {}
    heads = []
    for summands in combinations_with_replacement(spaces, num_summands):
        group = by_homotopy.setdefault(tuple(sorted(homotopy_key[s.p, s.q] for s in summands)), [])
        heads.append((group, len(group)))
        group.append(SumOfLens(summands))
    return ExoticPairs(heads)
