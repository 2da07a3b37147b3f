import pytest

from lensframe import framing
from lensframe.framing import (
    FramingClass,
    LensSpace,
    QuotientData,
    equivariant_map_degree,
    framing_invariant,
    framing_invariant_residue,
    framing_modulus,
    normalized_framing_invariant,
    universally_tight_obstructed,
)
from lensframe.modring import Modulus, units


def oracle_invariant(p, q):
    """Independent route: find the odd lifts and the inverse by raw scanning."""
    a = next(n for n in range(2 * p) if n % 2 == 1 and n % p == q % p)
    q_inv = next(n for n in range(1, p) if n * q % p == 1)
    b = next(n for n in range(2 * p) if n % 2 == 1 and n % p == q_inv)
    assert (a - 1) * (b - 1) % 4 == 0
    return (a - 1) * (b - 1) // 4 % p


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (5, 4, 1),  # q = -1: lifts 9, 9 give 64/4 = 16 = 1
        (5, 2, 3),  # lifts 7, 3 give 12/4 = 3
        (7, 3, 2),  # lifts 3, 5 give 8/4 = 2
        (9, 2, 1),  # lifts 11, 5 give 40/4 = 10 = 1
    ],
)
def test_invariant_frozen_examples(p, q, expected):
    assert oracle_invariant(p, q) == expected
    cls = framing_invariant(LensSpace(p, q))
    assert cls.value == expected
    assert cls.modulus == Modulus(p)


def test_invariant_vanishes_at_q_1():
    for p in range(3, 120, 2):
        assert framing_invariant(LensSpace(p, 1)).value == 0


def test_invariant_matches_oracle():
    for p in range(3, 80, 2):
        for q in units(p):
            assert framing_invariant(LensSpace(p, q)).value == oracle_invariant(p, q)


def test_even_p_rejected():
    for fn in (framing_invariant, framing_invariant_residue, normalized_framing_invariant):
        with pytest.raises(ValueError, match="odd"):
            fn(LensSpace(4, 1))
    with pytest.raises(ValueError, match="odd"):
        equivariant_map_degree(LensSpace(4, 1), 0)


def test_lens_space_validation():
    with pytest.raises(ValueError, match="not a lens space"):
        LensSpace(9, 6)
    with pytest.raises(ValueError):
        LensSpace(5, 0)
    with pytest.raises(ValueError):
        LensSpace(5, 5)
    with pytest.raises(ValueError):
        LensSpace(1, 1)


def test_orientation_reversal_and_str():
    assert LensSpace(7, 3).reversed() == LensSpace(7, 4)
    assert str(LensSpace(7, 3)) == "L(7,3)"
    assert str(framing_invariant(LensSpace(5, 2))) == "3 (mod 5)"


def test_normalized_examples():
    # 2^-1 mod 5 is 3, so the shift subtracts 3
    assert normalized_framing_invariant(LensSpace(5, 1)).value == 2
    assert normalized_framing_invariant(LensSpace(5, 4)).value == 3
    assert normalized_framing_invariant(LensSpace(5, 2)).value == 0


def test_classes_at_one_p_share_one_modulus():
    classes = (
        framing_invariant(LensSpace(7, 3)),
        normalized_framing_invariant(LensSpace(7, 2)),
        framing_invariant_residue(LensSpace(7, 5)),
    )
    assert all(cls.modulus is classes[0].modulus for cls in classes)
    assert classes[0].modulus == Modulus(7)
    assert framing._modulus.cache_info().maxsize == framing.MODULUS_CACHE_SIZE


def test_normalized_antisymmetry():
    for p in range(3, 100, 2):
        for q in units(p):
            lhs = normalized_framing_invariant(LensSpace(p, p - q)).value
            rhs = -normalized_framing_invariant(LensSpace(p, q)).value % p
            assert lhs == rhs


def test_raw_values_of_q_and_minus_q_sum_to_one():
    for p in range(3, 100, 2):
        for q in units(p):
            total = (
                framing_invariant(LensSpace(p, q)).value
                + framing_invariant(LensSpace(p, p - q)).value
            ) % p
            assert total == 1


def test_symmetric_in_q_and_its_inverse():
    for p in range(3, 100, 2):
        for q in units(p):
            q_inv = pow(q, -1, p)
            assert framing_invariant(LensSpace(p, q)) == framing_invariant(LensSpace(p, q_inv))


def test_lift_choice_is_immaterial():
    for p in range(3, 60, 2):
        for q in units(p):
            base = framing_invariant(LensSpace(p, q)).value
            a = q if q % 2 == 1 else q + p
            q_inv = pow(q, -1, p)
            b = q_inv if q_inv % 2 == 1 else q_inv + p
            for j in range(6):
                for k in range(6):
                    shifted = (a + 2 * j * p - 1) * (b + 2 * k * p - 1) // 4 % p
                    assert shifted == base


def test_degree_examples():
    assert equivariant_map_degree(LensSpace(5, 2), 0) == 3
    assert equivariant_map_degree(LensSpace(5, 2), 1) == 8
    assert equivariant_map_degree(LensSpace(7, 3), -1) == -5


def test_degree_reduces_to_invariant():
    for p in (5, 9, 15, 49):
        for q in units(p):
            base = framing_invariant(LensSpace(p, q)).value
            for k in range(-10, 11):
                assert equivariant_map_degree(LensSpace(p, q), k) % p == base


def test_residue_route_agrees():
    for p in range(3, 100, 2):
        for q in units(p):
            space = LensSpace(p, q)
            assert framing_invariant(space) == framing_invariant_residue(space)


def test_framing_modulus_examples():
    assert framing_modulus(5, True) == Modulus(5)
    assert framing_modulus(120, True) == Modulus(120)
    assert framing_modulus(8, False) == Modulus(4)


def test_framing_modulus_errors():
    with pytest.raises(ValueError, match="inconsistent"):
        framing_modulus(7, False)
    with pytest.raises(ValueError, match="degenerate"):
        framing_modulus(2, False)
    with pytest.raises(ValueError, match="group order"):
        framing_modulus(1, True)


def test_quotient_data_invariants():
    with pytest.raises(ValueError, match="modulus"):
        QuotientData(8, False, FramingClass(1, Modulus(8)))
    with pytest.raises(ValueError, match="inconsistent"):
        QuotientData(7, False, FramingClass(1, Modulus(7)))
    with pytest.raises(ValueError, match="range"):
        FramingClass(5, Modulus(5))


def test_obstruction_examples():
    # order-120 quotient with trivial H1 mod 2: class 1 obstructs, class 0 does not
    m = Modulus(120)
    assert universally_tight_obstructed(QuotientData(120, True, FramingClass(1, m)))
    assert not universally_tight_obstructed(QuotientData(120, True, FramingClass(0, m)))
    assert universally_tight_obstructed(QuotientData(8, False, FramingClass(1, Modulus(4))))
    for n in (3, 12, 120):
        assert not universally_tight_obstructed(QuotientData(n, True, FramingClass(0, Modulus(n))))
