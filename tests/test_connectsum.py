import random
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest

from lensframe.classify import RelationKind
from lensframe.connectsum import SumOfLens, find_exotic_pairs, sums_equivalent
from lensframe.framing import LensSpace
from lensframe.modring import units
from reference import orbit_keys

RK = RelationKind
GEOMETRIC = (RK.ORIENTED_HOMEO, RK.HOMEO, RK.ORIENTED_HOMOTOPY, RK.HOMOTOPY)


def lens_sum(*pairs):
    return SumOfLens(tuple(LensSpace(p, q) for p, q in pairs))


def all_sums(ps):
    spaces = [LensSpace(p, q) for p in ps for q in units(p)]
    sums = [SumOfLens()]
    sums.extend(SumOfLens((s,)) for s in spaces)
    sums.extend(SumOfLens(pair) for pair in combinations_with_replacement(spaces, 2))
    return sums


def orbit_key_list(total, kind):
    # the sum's summands as a sorted list of (p, least member of the orbit)
    return sorted((x.p, orbit_keys(x.p)[x.q][kind]) for x in total.summands)


def test_sum_is_sorted_and_printable():
    s = lens_sum((7, 3), (5, 1))
    assert [(x.p, x.q) for x in s.summands] == [(5, 1), (7, 3)]
    assert str(s) == "L(5,1)#L(7,3)"
    assert str(SumOfLens()) == "S3"


def test_sum_rejects_even_order():
    with pytest.raises(ValueError, match="even"):
        lens_sum((4, 1))


def test_order5_double_sums_homotopy_matched_not_homeomorphic():
    a = lens_sum((5, 1), (5, 1))
    b = lens_sum((5, 1), (5, 4))
    assert sums_equivalent(a, b, RK.ORIENTED_HOMOTOPY)
    assert not sums_equivalent(a, b, RK.ORIENTED_HOMEO)


def test_empty_sums_are_equivalent():
    assert sums_equivalent(SumOfLens(), SumOfLens(), RK.HOMEO)


def test_empty_sums_reject_the_framing_kind():
    # The kind is checked before any summand is, so an empty sum cannot skip it.
    with pytest.raises(ValueError, match="summand matching"):
        sums_equivalent(SumOfLens(), SumOfLens(), RK.FRAMING_EQUAL)
    # related() rejects a kind given by its value the same way.
    with pytest.raises(ValueError, match="^unknown relation kind 'homeo'$"):
        sums_equivalent(SumOfLens(), SumOfLens(), "homeo")


# The two rejections canonical_key made, now made by sums_equivalent alone,
# on a sum that has a summand to match.
def test_canonical_key_rejects_framing_kind():
    s = lens_sum((5, 2))
    with pytest.raises(ValueError, match="summand matching"):
        sums_equivalent(s, s, RK.FRAMING_EQUAL)


def test_canonical_key_rejects_a_non_kind():
    s = lens_sum((5, 2))
    with pytest.raises(ValueError, match="^unknown relation kind 'homeo'$"):
        sums_equivalent(s, s, "homeo")


def test_sums_equivalence_properties_small():
    sums = all_sums((3, 5, 7, 9))
    for kind in GEOMETRIC:
        keys = {i: orbit_key_list(s, kind) for i, s in enumerate(sums)}
        for i, a in enumerate(sums):
            assert sums_equivalent(a, a, kind)
            for j in range(i + 1, len(sums)):
                forward = sums_equivalent(a, sums[j], kind)
                assert forward == sums_equivalent(sums[j], a, kind)
                # matching orbit keys is transitive, so this pins the relation
                assert forward == (keys[i] == keys[j])


def test_sums_equivalence_sampled_up_to_11():
    sums = all_sums((3, 5, 7, 9, 11))
    rng = random.Random(20260809)
    for kind in GEOMETRIC:
        for _ in range(2000):
            a, b = rng.choice(sums), rng.choice(sums)
            assert sums_equivalent(a, b, kind) == (orbit_key_list(a, kind) == orbit_key_list(b, kind))


def test_sums_equivalent_matches_the_key_oracle_with_repeated_orders():
    # Every pair of 3-summand sums over p in {5, 9, 15} that share their orders,
    # against the sorted orbit keys: sums_equivalent asks related() alone.
    spaces = [LensSpace(p, q) for p in (5, 9, 15) for q in units(p)]
    by_orders = {}
    for summands in combinations_with_replacement(spaces, 3):
        by_orders.setdefault(tuple(s.p for s in summands), []).append(SumOfLens(summands))
    assert len(by_orders) == 10
    for kind in GEOMETRIC:
        for group in by_orders.values():
            keys = [orbit_key_list(s, kind) for s in group]
            for i, j in combinations_with_replacement(range(len(group)), 2):
                assert sums_equivalent(group[i], group[j], kind) == (keys[i] == keys[j]), (group[i], group[j])
    # and a seeded sample of pairs of one to three summands whose orders differ
    sums = [SumOfLens(summands) for n in (1, 2, 3) for summands in combinations_with_replacement(spaces, n)]
    rng = random.Random(20261019)
    samples = (rng.sample(sums, 2) for _ in range(1000))
    pairs = [(a, b) for a, b in samples if [s.p for s in a.summands] != [s.p for s in b.summands]]
    assert len(pairs) > 500
    for kind in GEOMETRIC:
        for a, b in pairs:
            assert not sums_equivalent(a, b, kind), (a, b)


def test_homeo_matching_implies_homotopy_matching():
    sums = all_sums((3, 5, 7, 9))
    for i, a in enumerate(sums):
        for b in sums[i + 1 :]:
            if sums_equivalent(a, b, RK.ORIENTED_HOMEO):
                assert sums_equivalent(a, b, RK.ORIENTED_HOMOTOPY)


def test_search_examples():
    pairs7 = find_exotic_pairs(7, 1)
    assert (lens_sum((7, 1)), lens_sum((7, 2))) in pairs7
    pairs5 = find_exotic_pairs(5, 2)
    assert (lens_sum((5, 1), (5, 1)), lens_sum((5, 1), (5, 4))) in pairs5
    assert list(find_exotic_pairs(3, 1)) == []


def test_search_argument_validation():
    with pytest.raises(ValueError, match="num_summands"):
        find_exotic_pairs(7, 3)
    with pytest.raises(ValueError, match="max_p"):
        find_exotic_pairs(2, 1)


def test_search_results_recheck_and_are_unique():
    for summands in (1, 2):
        pairs = find_exotic_pairs(11, summands)
        assert len(set(pairs)) == len(pairs)
        for a, b in pairs:
            assert len(a.summands) == summands
            assert sorted(x.p for x in a.summands) == sorted(x.p for x in b.summands)
            assert sums_equivalent(a, b, RK.ORIENTED_HOMOTOPY)
            assert not sums_equivalent(a, b, RK.ORIENTED_HOMEO)


def brute_force_exotic_pairs(max_p, num_summands):
    # Every unordered pair of sums of oriented-homeo representatives, kept by
    # the two relations and sorted by the (p, q) tuples of both sums.
    primes = [p for p in range(3, max_p + 1, 2) if all(p % d for d in range(3, p, 2))]
    reps = sorted({(p, min(q, pow(q, -1, p))) for p in primes for q in units(p)})
    spaces = [LensSpace(p, q) for p, q in reps]
    sums = [SumOfLens(summands) for summands in combinations_with_replacement(spaces, num_summands)]
    pairs = [
        (a, b)
        for a, b in combinations(sums, 2)
        if sums_equivalent(a, b, RK.ORIENTED_HOMOTOPY) and not sums_equivalent(a, b, RK.ORIENTED_HOMEO)
    ]

    def pq(total):
        return tuple((s.p, s.q) for s in total.summands)

    return sorted(pairs, key=lambda pair: (pq(pair[0]), pq(pair[1])))


@pytest.mark.parametrize("num_summands", [1, 2])
def test_search_matches_brute_force_in_order(num_summands):
    for max_p in range(3, 14):
        view = find_exotic_pairs(max_p, num_summands)
        pairs = list(view)
        assert pairs == brute_force_exotic_pairs(max_p, num_summands), max_p
        # The view counts its pairs without generating them, and every pass repeats the first.
        assert len(view) == len(pairs), max_p
        assert list(view) == pairs, max_p


def test_grouping_keeps_nothing_transient():
    # The sums are made and grouped in one pass, in output order, so the peak
    # is the memory the view keeps; a ratio holds across Python versions.
    tracemalloc.start()
    try:
        view = find_exotic_pairs(41, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(view) > 0
    assert peak <= 1.1 * held, (peak, held)
