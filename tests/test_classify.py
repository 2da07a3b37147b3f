import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensframe import modring, sweeps
from lensframe.classify import (
    RelationKind,
    collision_scan,
    quadratic_roots,
    related,
    verify_prime_classification,
)
from lensframe.verify import run_verification
from lensframe.connectsum import SumOfLens, sums_equivalent
from lensframe.framing import LensSpace, framing_invariant
from lensframe.modring import is_prime, units

import reference

RK = RelationKind
GEOMETRIC = (RK.ORIENTED_HOMEO, RK.HOMEO, RK.ORIENTED_HOMOTOPY, RK.HOMOTOPY)


def poly_roots(p, c):
    # independent oracle: evaluate x^2 - (2 - 4c) x + 1 at every x
    return {x for x in range(1, p) if (x * x - (2 - 4 * c) * x + 1) % p == 0}


def brute_collisions(p):
    values = {q: framing_invariant(LensSpace(p, q)).value for q in units(p)}
    pairs = []
    for q in units(p):
        for q2 in units(p):
            if q < q2 and values[q] == values[q2] and q2 != pow(q, -1, p):
                pairs.append((q, q2))
    return pairs


def test_oriented_homeo_examples():
    assert related(RK.ORIENTED_HOMEO, 5, 2, 3)  # 3 = 2^-1 mod 5
    assert not related(RK.ORIENTED_HOMEO, 7, 1, 6)
    assert related(RK.HOMEO, 7, 1, 6)  # mirror image


def test_oriented_homotopy_examples():
    assert related(RK.ORIENTED_HOMOTOPY, 5, 1, 4)  # -1 = 2^2 mod 5
    assert related(RK.ORIENTED_HOMOTOPY, 7, 1, 2)  # 3^2 = 2 mod 7
    assert not related(RK.ORIENTED_HOMOTOPY, 7, 1, 6)


def test_framing_equal_matches_invariant():
    for p in (5, 7, 9, 15):
        for q in units(p):
            for q2 in units(p):
                expected = (
                    framing_invariant(LensSpace(p, q)).value
                    == framing_invariant(LensSpace(p, q2)).value
                )
                assert related(RK.FRAMING_EQUAL, p, q, q2) == expected


def test_point_queries_build_no_per_modulus_tables(monkeypatch):
    p = 10**7 + 19  # a prime = 11 mod 12: -1 is a non-square and 3 a square

    def no_units(m):
        raise AssertionError(f"units({m}) was listed")

    for module in (modring, sweeps):
        monkeypatch.setattr(module, "units", no_units)
    caches = (sweeps.unit_group, sweeps.invariant_table)
    before = [cache.cache_info() for cache in caches]
    half = (p + 1) // 2
    assert related(RK.ORIENTED_HOMEO, p, 2, half)
    assert related(RK.HOMEO, p, 2, p - half)
    assert not related(RK.ORIENTED_HOMEO, p, 2, p - half)
    assert related(RK.FRAMING_EQUAL, p, 2, half)
    assert not related(RK.FRAMING_EQUAL, p, 2, 3)
    assert related(RK.ORIENTED_HOMOTOPY, p, 1, 3)
    assert not related(RK.ORIENTED_HOMOTOPY, p, 3, p - 12)
    assert related(RK.HOMOTOPY, p, 3, p - 12)

    def at_p(*qs):
        return SumOfLens(tuple(LensSpace(p, q) for q in qs))

    assert sums_equivalent(at_p(2, 3), at_p(3, half), RK.ORIENTED_HOMEO)
    assert not sums_equivalent(at_p(2, 3), at_p(3, p - half), RK.ORIENTED_HOMEO)
    assert sums_equivalent(at_p(2, 3), at_p(3, p - half), RK.HOMEO)
    assert not sums_equivalent(at_p(2, 3), at_p(3, 4), RK.HOMEO)
    assert sums_equivalent(at_p(1, 3), at_p(3, 12), RK.ORIENTED_HOMOTOPY)
    assert not sums_equivalent(at_p(1, 3), at_p(3, p - 12), RK.ORIENTED_HOMOTOPY)
    assert sums_equivalent(at_p(1, 3), at_p(3, p - 12), RK.HOMOTOPY)
    assert not sums_equivalent(at_p(1, 3), at_p(1), RK.HOMOTOPY)  # every unit is +-a square at this p
    assert [cache.cache_info() for cache in caches] == before


def test_related_input_validation():
    # every kind, as the inverse route reports it: the argument as passed, q before q2
    for kind in RK:
        for q, q2, bad in ((3, 1, 3), (1, 6, 6), (-3, 1, -3), (1, 15, 15), (3, 6, 3), (0, 0, 0)):
            for route in (related, reference.related_by_inverses):
                with pytest.raises(ValueError, match=rf"^{bad} is not a unit mod 9$"):
                    route(kind, 9, q, q2)
        with pytest.raises(ValueError, match=r"^p must be odd and >= 3, got 8$"):
            related(kind, 8, 1, 3)


# Odd p up to 10**6: any odd number, so composites too, or a prime power, or
# a product of primes = 1 and = 3 mod 4, where the sign of HOMOTOPY matters.
ODD_P_TO_MILLION = st.one_of(
    st.integers(1, 499_999).map(lambda n: 2 * n + 1),
    st.sampled_from([f**e for f in (3, 5, 7, 11, 13, 997) for e in range(1, 13) if f**e <= 10**6]),
    st.sampled_from([15, 21, 65, 105, 1155, 3 * 5 * 7 * 11 * 13 * 17, 5 * 13 * 17 * 29, 3 * 7 * 11 * 19 * 23]),
)


@st.composite
def relation_query(draw):
    """(p, q, q2) with q, q2 unreduced: u + k*p for k in [-3, 3]; q2 is often in q's orbits."""
    p = draw(ODD_P_TO_MILLION)
    unit = st.integers(1, p - 1).filter(lambda u: math.gcd(u, p) == 1)
    q = draw(unit)
    s = draw(unit)
    inv = pow(q, -1, p)
    q2 = draw(st.one_of(unit, st.sampled_from([q, inv, p - q, p - inv, q * s * s % p, (p - q) * s * s % p])))
    shift = st.integers(-3, 3).map(lambda k: k * p)
    return p, q + draw(shift), q2 + draw(shift)


@settings(max_examples=400, deadline=None)
@given(relation_query())
def test_related_matches_the_inverse_route(query):
    p, q, q2 = query
    for kind in RK:
        assert related(kind, p, q, q2) == reference.related_by_inverses(kind, p, q, q2)


def test_related_matches_the_enumerated_orbits():
    # every pair of units, against the orbits listed by reference.orbit_keys
    for p in (5, 7, 9, 15):
        keys = reference.orbit_keys(p)
        for kind in GEOMETRIC:
            for q in units(p):
                for q2 in units(p):
                    assert related(kind, p, q, q2) == (keys[q][kind] == keys[q2][kind]), (kind, p, q, q2)


def test_related_joins_each_unit_to_its_orbits_least_member():
    # all odd p <= 255: three prime factors at 105, 165, 195, 255; prime powers at 9, 27, 125, 243;
    # then the p < 2000 with four odd prime factors, whose orbits' least members lie furthest out
    for p in [*range(3, 256, 2), 1155, 1365, 1785, 1995]:
        keys = reference.orbit_keys(p)
        for kind in GEOMETRIC:
            least = {q: key[kind] for q, key in keys.items()}
            for q, u in least.items():
                assert related(kind, p, q, u), (kind, p, q, u)
            for u, u2 in combinations(sorted(set(least.values())), 2):
                assert not related(kind, p, u, u2), (kind, p, u, u2)
            if kind is RK.ORIENTED_HOMOTOPY and is_prime(p):
                # two classes, squares and non-squares: find_exotic_pairs names each by relation to 1
                assert len(set(least.values())) == 2, p


def test_relations_are_equivalences():
    for p in range(3, 26, 2):
        us = units(p)
        for kind in RK:
            for a in us:
                assert related(kind, p, a, a)
            for a in us:
                for b in us:
                    assert related(kind, p, a, b) == related(kind, p, b, a)
            for a in us:
                for b in us:
                    if not related(kind, p, a, b):
                        continue
                    for c in us:
                        if related(kind, p, b, c):
                            assert related(kind, p, a, c)


def test_implication_lattice():
    for p in range(3, 50, 2):
        us = units(p)
        for a in us:
            for b in us:
                if related(RK.ORIENTED_HOMEO, p, a, b):
                    assert related(RK.HOMEO, p, a, b)
                    assert related(RK.ORIENTED_HOMOTOPY, p, a, b)
                    assert related(RK.FRAMING_EQUAL, p, a, b)
                if related(RK.ORIENTED_HOMOTOPY, p, a, b):
                    assert related(RK.HOMOTOPY, p, a, b)


def test_quadratic_roots_examples():
    assert poly_roots(5, 3) == {2, 3}  # reduces to x^2 + 1 = 0 mod 5
    assert quadratic_roots(5, 3) == {2, 3}
    assert quadratic_roots(5, 0) == {1}  # double root of (x - 1)^2
    assert quadratic_roots(7, 4) == set()  # 4 is not a framing value mod 7


def test_quadratic_roots_match_polynomial_oracle():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for c in range(p):
            assert quadratic_roots(p, c) == poly_roots(p, c)


def test_quadratic_roots_input_validation():
    with pytest.raises(ValueError, match="prime"):
        quadratic_roots(9, 1)
    with pytest.raises(ValueError, match="prime"):
        quadratic_roots(2, 0)
    with pytest.raises(ValueError, match="range"):
        quadratic_roots(7, 7)


def test_fiber_examples():
    assert reference.fibers(5) == {
        0: frozenset({1}),
        3: frozenset({2, 3}),
        1: frozenset({4}),
    }
    assert reference.fibers(3) == {0: frozenset({1}), 1: frozenset({2})}
    # recomputed by brute force: {2, 4} share value 6, {3, 5} share value 2
    assert reference.fibers(7) == {
        0: frozenset({1}),
        2: frozenset({3, 5}),
        6: frozenset({2, 4}),
        1: frozenset({6}),
    }


def test_fibers_partition_units_and_close_under_inverse():
    for p in range(3, 200, 2):
        fibers = reference.fibers(p)
        assert type(fibers) is dict
        seen = set()
        for value, fiber in fibers.items():
            assert not (fiber & seen)
            seen |= fiber
            for q in fiber:
                assert framing_invariant(LensSpace(p, q)).value == value
                assert pow(q, -1, p) in fiber
        assert seen == set(units(p))


def test_fibers_reject_even_p():
    with pytest.raises(ValueError, match="odd"):
        reference.fibers(8)


def test_prime_classification_examples():
    assert verify_prime_classification(3)
    assert verify_prime_classification(5)
    assert verify_prime_classification(997)


# True framing values at p = 7 are 1:0, 2:6, 3:2, 4:6, 5:2, 6:1; 3 and 5 are inverses.
BROKEN_TABLES_AT_7 = {
    "symmetric-3-values": {3: 6, 5: 6},
    "asymmetric-4-values": {3: 6},
}


@pytest.mark.parametrize("changes", BROKEN_TABLES_AT_7.values(), ids=BROKEN_TABLES_AT_7)
def test_prime_classification_fails_on_a_broken_table(monkeypatch, changes):
    true_table = sweeps.invariant_table

    def broken_table(p):
        table = list(true_table(p))
        if p == 7:
            for q, value in changes.items():
                table[q] = value
        return tuple(table)

    monkeypatch.setattr(sweeps, "invariant_table", broken_table)
    assert not verify_prime_classification(7)
    report = run_verification(7)
    assert ("prime-classification", 7, None, None, True, False) in report.failures


def fiber_collisions(p):
    pairs = []
    for fiber in reference.fibers(p).values():
        members = sorted(fiber)
        for i, q in enumerate(members):
            pairs += [(q, q2) for q2 in members[i + 1 :] if q * q2 % p != 1]
    return sorted(pairs)


def test_prime_check_and_collision_scan_match_the_fiber_oracle():
    for p in range(3, 600, 2):
        if is_prime(p):
            exact = all(fiber == {q, pow(q, -1, p)} for fiber in reference.fibers(p).values() for q in fiber)
            assert verify_prime_classification(p) == exact
        else:
            found = collision_scan(p)
            assert found == fiber_collisions(p)
            # The composite case of the theorem in classify's docstring.
            assert (not found) == (p % 3 == 0 and is_prime(p // 3) and p // 3 >= 5)


def test_prime_classification_requires_odd_prime():
    with pytest.raises(ValueError, match="prime"):
        verify_prime_classification(9)
    with pytest.raises(ValueError, match="prime"):
        verify_prime_classification(2)


def test_collision_scan_examples():
    assert collision_scan(15) == []
    assert collision_scan(21) == []
    # order 9 is the first composite where the invariant fails to separate
    assert brute_collisions(9) == [(1, 4), (1, 7), (2, 8), (5, 8)]
    assert collision_scan(9) == [(1, 4), (1, 7), (2, 8), (5, 8)]


def test_collision_scan_matches_brute_force():
    for p in (9, 15, 21, 25, 27, 33, 35, 45, 49):
        assert collision_scan(p) == brute_collisions(p)


def test_collision_scan_rejects_primes_and_even():
    with pytest.raises(ValueError, match="composite"):
        collision_scan(7)
    with pytest.raises(ValueError, match="odd"):
        collision_scan(10)


def test_roots_agree_with_fibers_for_primes():
    for p in (3, 5, 7, 11, 13, 31):
        fibers = reference.fibers(p)
        for c in range(p):
            assert quadratic_roots(p, c) == set(fibers.get(c, frozenset()))
