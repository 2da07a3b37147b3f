"""Connected sums of odd lens spaces as multisets of summands.

Uniqueness of prime decompositions reduces homeomorphism questions about
sums to summand-by-summand matching; for the homotopy relations the same
matching is used as a sufficient certificate only.  The search routine
recovers pairs of sums that match under oriented homotopy equivalence but
not under oriented homeomorphism.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, combinations_with_replacement, islice, repeat
from operator import attrgetter

from .classify import _FRAMING_EQUAL, _ORIENTED_HOMOTOPY, RelationKind, related
from .framing import LensSpace
from .modring import Record, is_prime
from .sweeps import unit_group


class SumOfLens(Record):
    """Connected sum of odd-order lens spaces; the empty sum is the 3-sphere."""

    __slots__ = ("summands",)

    def __init__(self, summands: tuple[LensSpace, ...] = ()) -> None:
        spaces = tuple(sorted(summands, key=attrgetter("p", "q")))
        for space in spaces:
            if space.p % 2 == 0:
                raise ValueError(f"summand {space} has even order")
        object.__setattr__(self, "summands", spaces)

    def __str__(self) -> str:
        if not self.summands:
            return "S3"
        return "#".join(str(space) for space in self.summands)


def sums_equivalent(a: SumOfLens, b: SumOfLens, kind: RelationKind) -> bool:
    """Whether the two sums match summand-for-summand under the relation, as related() decides it.

    For the homeomorphism kinds this decides equivalence of the sums outright
    (prime decompositions are unique); for the homotopy kinds a match is a
    sufficient certificate, and a failed match only means no certificate.
    Greedy matching is exact: each kind's classes are group orbits on the units of Z/p.
    """
    if kind is _FRAMING_EQUAL:
        raise ValueError(f"{kind.value} does not induce summand matching on sums")
    if not isinstance(kind, RelationKind):
        raise ValueError(f"unknown relation kind {kind!r}")
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
    # One space per oriented-homeo class {q, q^-1}, its smaller member, in (p, q)
    # order.  At a prime p oriented homotopy has two classes, the squares and
    # the non-squares, so whether q is related to 1 names q's class.
    spaces = []
    homotopy_class = {}
    for p in filter(is_prime, range(3, max_p + 1, 2)):
        units_p, inverses = unit_group(p)
        for q in units_p:
            if q <= inverses[q]:
                spaces.append(LensSpace(p, q))
                homotopy_class[p, q] = related(_ORIENTED_HOMOTOPY, p, 1, q)

    # combinations_with_replacement yields every sum once, in (p, q)-tuple
    # order, so each homotopy group lists its sums in order and the heads
    # come in the order of their first sums: the pairs' order, unsorted.
    # The key holds p, so one dict over all p-multisets separates them.
    by_homotopy: dict[tuple[tuple[int, bool], ...], list[SumOfLens]] = {}
    heads = []
    for summands in combinations_with_replacement(spaces, num_summands):
        group = by_homotopy.setdefault(tuple(sorted((s.p, homotopy_class[s.p, s.q]) for s in summands)), [])
        heads.append((group, len(group)))
        group.append(SumOfLens(summands))
    return ExoticPairs(heads)
