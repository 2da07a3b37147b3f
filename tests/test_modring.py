import copy
import pickle
from array import array

import pytest

from lensframe.connectsum import SumOfLens
from lensframe.framing import FramingClass, LensSpace, QuotientData, odd_lift, odd_lifts
from lensframe.modring import (
    Modulus,
    inverse,
    is_odd_part_square,
    is_odd_part_square_up_to_sign,
    is_prime,
    is_square_unit,
    prime_factors,
    require_odd,
    require_odd_prime,
    units,
)
from lensframe.verify import VerificationReport
from reference import square_units


def brute_inverse(v, m):
    # independent oracle: scan for the inverse instead of running Euclid
    for s in range(1, m):
        if v * s % m == 1:
            return s
    return None


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


def test_modulus_rejects_bad_modulus():
    for m in (-2, 0, 1):
        with pytest.raises(ValueError, match=f"^modulus must be >= 2, got {m}$"):
            Modulus(m)
    assert Modulus(2).m == 2


def test_mod_inverse_examples():
    assert inverse(2, 5) == 3
    assert inverse(1, 7) == 1
    assert brute_inverse(3, 7) == 5
    assert inverse(3, 7) == 5


def test_mod_inverse_rejects_non_units():
    with pytest.raises(ValueError, match="not a unit"):
        inverse(6, 9)
    with pytest.raises(ValueError, match="not a unit"):
        inverse(0, 7)


def test_inverse_takes_any_representative():
    assert inverse(-1, 7) == 6
    assert inverse(12, 5) == 3
    with pytest.raises(ValueError, match="^12 is not a unit mod 9$"):
        inverse(12, 9)


def test_require_odd():
    for p in (3, 9, 10**7 + 19):
        require_odd(p)
    for p in (-3, 1, 2, 8):
        with pytest.raises(ValueError, match=f"^p must be odd and >= 3, got {p}$"):
            require_odd(p)


def test_require_odd_prime():
    for p in (3, 5, 997, 10**7 + 19):
        require_odd_prime(p)
    for p in (-3, 0, 1, 2, 9, 15, 10**7 + 21):
        with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
            require_odd_prime(p)


def test_mod_inverse_matches_brute_force_scan():
    for m in range(2, 60):
        for v in units(m):
            assert inverse(v, m) == brute_inverse(v, m)


def test_mod_inverse_involution_and_product():
    for m in (5, 9, 15, 49, 121):
        for v in units(m):
            s = inverse(v, m)
            assert 0 <= s < m
            assert inverse(s, m) == v
            assert v * s % m == 1


def test_odd_representative_examples():
    assert odd_lift(3, 7) == 3
    assert odd_lift(2, 5) == 7
    assert odd_lift(4, 5) == 9
    assert odd_lifts(5, 2) == (7, 3)


def test_odd_representative_requires_odd_modulus():
    # odd_lift itself trusts its caller; odd_lifts, which checks, is the entry point.
    with pytest.raises(ValueError, match="^p must be odd and >= 3, got 4$"):
        odd_lifts(4, 1)


def test_odd_representative_properties():
    for m in range(3, 200, 2):
        for v in range(m):
            rep = odd_lift(v, m)
            assert rep % 2 == 1
            assert rep % m == v
            assert 0 <= rep < 2 * m


def test_is_square_unit_examples():
    assert is_square_unit(4, 5)
    # squares mod 7 are {1, 2, 4}: 3^2 = 9 = 2
    assert is_square_unit(2, 7)
    # squares mod 5 are {1, 4}
    assert not is_square_unit(2, 5)
    # any representative: -1 = 4 (mod 5), 16 = 2 (mod 7)
    assert is_square_unit(-1, 5)
    assert is_square_unit(16, 7)


def test_is_square_unit_rejects_non_units():
    with pytest.raises(ValueError, match="^3 is not a unit mod 9$"):
        is_square_unit(3, 9)


@pytest.mark.parametrize("m", [0, -7])
def test_is_square_unit_rejects_moduli_below_2(m):
    with pytest.raises(ValueError, match=f"^modulus must be >= 2, got {m}$"):
        is_square_unit(1, m)


def test_euler_criterion_agrees_on_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101):
        for v in range(1, p):
            euler = pow(v, (p - 1) // 2, p) == 1
            assert is_square_unit(v, p) == euler


def test_square_detection_multiplicative_on_primes():
    # a product of two units is a square iff both or neither are
    for p in (5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                lhs = is_square_unit(a * b, p)
                rhs = is_square_unit(a, p) == is_square_unit(b, p)
                assert lhs == rhs


def test_square_detection_matches_enumeration():
    # every m <= 255, even ones included; among them 105, 165, 195 and 255
    # (three prime factors) and 9, 27, 125 and 243 (odd prime powers)
    for m in range(2, 256):
        squares = square_units(m)
        for v in units(m):
            assert is_square_unit(v, m) == (v in squares)


def test_odd_part_square_matches_enumeration():
    # every m <= 255, even ones included: a square mod the odd part of m
    for m in range(2, 256):
        odd = m // (m & -m)
        for v in units(m):
            assert is_odd_part_square(v, m) == (odd == 1 or v % odd in square_units(odd))


def test_product_square_is_coset_membership():
    # the identity behind related(): u * v is a square exactly when u is in
    # the coset v * squares, since u * v = (u / v) * v^2; non-units fail both tests
    for m in range(3, 256, 2):
        squares = square_units(m)
        for v in units(m):
            coset = {v * s % m for s in squares}
            for u in units(m):
                assert is_odd_part_square(u * v % m, m) == (u in coset)
        for v in set(range(m)) - set(units(m)):
            assert not is_odd_part_square(v, m)
            assert not is_odd_part_square_up_to_sign(v, m)


def test_square_up_to_sign_matches_enumeration():
    # every odd m <= 300, each unit also as v + k*m above m and below 0
    for m in range(3, 301, 2):
        squares = square_units(m)
        for v in units(m):
            expected = v in squares or m - v in squares
            for k in (-2, -1, 0, 1, 2):
                assert is_odd_part_square_up_to_sign(v + k * m, m) == expected


def test_prime_factors_match_sieve():
    flags = sieve(1000)
    for n in range(1, 1001):
        assert prime_factors(n) == tuple(f for f in range(2, n + 1) if flags[f] and n % f == 0)
    assert prime_factors(10**7 + 19) == (10**7 + 19,)


def test_prime_factors_stop_at_the_root_of_the_cofactor():
    # Trial division up to sqrt(3**40) would take about 3.5e9 steps.
    assert prime_factors(3**40) == (3,)
    assert is_prime(3**40) is False


def test_is_prime_examples():
    assert is_prime(5)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_matches_sieve():
    flags = sieve(10000)
    for n in range(1, 10001):
        assert is_prime(n) == flags[n]


# (record, its repr, what the no-argument constructor gives or None when it needs arguments)
_RECORDS = [
    (Modulus(5), "Modulus(m=5)", None),
    (LensSpace(3, 1), "LensSpace(p=3, q=1)", None),
    (FramingClass(3, Modulus(5)), "FramingClass(value=3, modulus=Modulus(m=5))", None),
    (
        QuotientData(8, False, FramingClass(1, Modulus(4))),
        "QuotientData(group_order=8, h1_z2_trivial=False, "
        "pullback_class=FramingClass(value=1, modulus=Modulus(m=4)))",
        None,
    ),
    (
        SumOfLens((LensSpace(5, 2), LensSpace(3, 1))),
        "SumOfLens(summands=(LensSpace(p=3, q=1), LensSpace(p=5, q=2)))",
        SumOfLens(()),
    ),
    (
        VerificationReport(29, [("antisymmetry", 3, 1, 2, 1, 0)], 1.5, {15: array("I", [1, 4])}),
        "VerificationReport(checks_run=29, failures=[('antisymmetry', 3, 1, 2, 1, 0)], elapsed_ms=1.5, "
        "collisions={15: array('I', [1, 4])})",
        VerificationReport(0, [], 0.0, {}),
    ),
]


def _matched(record):
    match record:
        case Modulus(m):
            return (m,)
        case LensSpace(p, q):
            return p, q
        case FramingClass(value, modulus):
            return value, modulus
        case QuotientData(order, h1_trivial, pullback):
            return order, h1_trivial, pullback
        case SumOfLens(summands):
            return (summands,)
        case VerificationReport(checks, failures, elapsed, collisions):
            return checks, failures, elapsed, collisions


@pytest.mark.parametrize("record, text, default", _RECORDS, ids=[type(r).__name__ for r, _, _ in _RECORDS])
def test_value_types_keep_the_frozen_record_contract(record, text, default):
    cls = type(record)
    names = cls.__match_args__
    fields = tuple(getattr(record, name) for name in names)
    twin = type("Twin", (cls,), {})(*fields)  # same fields, another class
    assert _matched(record) == fields
    assert record == cls(*fields) == cls(**dict(zip(names, fields)))
    assert record != fields and fields != record and record != twin and twin != record
    try:
        field_hash = hash(fields)
    except TypeError:  # VerificationReport's list and dict fields are unhashable, and so is the report
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*fields)) == field_hash
    assert repr(record) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == fields
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record
    if default is not None:
        assert cls() == default
        # Each record gets its own empty list and dict.
        first, second = _matched(cls()), _matched(cls())
        assert all(a is not b for a, b in zip(first, second) if isinstance(a, (list, dict)))
