"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run ``pytest -s`` to see them;
a failed assertion surfaces through pytest as usual).  Where a criterion
states a runtime budget the elapsed time is asserted too.
"""

import csv
import io
import time

from lensframe import sweeps
from lensframe.classify import (
    RelationKind,
    quadratic_roots,
    related,
    verify_prime_classification,
)
from lensframe.cli import TABLE_COLUMNS, main
from lensframe.connectsum import SumOfLens, sums_equivalent
from lensframe.framing import (
    FramingClass,
    LensSpace,
    QuotientData,
    framing_invariant,
    framing_invariant_residue,
    normalized_framing_invariant,
    universally_tight_obstructed,
)
from lensframe.modring import Modulus, is_prime, units
from reference import square_units

ODD_TO_499 = range(3, 500, 2)


def _finish(name, start, budget=None):
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    tail = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    print(f"{'PASS' if ok else 'FAIL'} {name} [{tail}]")
    assert ok, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def test_criterion_01_anchor_values():
    start = time.perf_counter()
    for p in range(3, 1002, 2):
        assert framing_invariant(LensSpace(p, 1)).value == 0
        assert framing_invariant(LensSpace(p, p - 1)).value == 1
    _finish("1: F(L(p,1)) = 0 and F(L(p,p-1)) = 1 for odd p in [3, 1001]", start, 1.0)


def test_criterion_02_representative_independence():
    start = time.perf_counter()
    for p in ODD_TO_499:
        assert sweeps.lift_mismatch(p, 5) is None
    _finish("2: invariant independent of odd lifts (j, k <= 5) for odd p <= 499", start, 30.0)


def test_criterion_03_normalized_antisymmetry():
    start = time.perf_counter()
    for p in ODD_TO_499:
        table = sweeps.invariant_table(p)
        for q in units(p):
            assert (table[q] + table[p - q]) % p == 1
    # the recentred statement itself, at scalar level
    for p in range(3, 60, 2):
        for q in units(p):
            lhs = normalized_framing_invariant(LensSpace(p, p - q)).value
            assert lhs == -normalized_framing_invariant(LensSpace(p, q)).value % p
    _finish("3: normalized antisymmetry (raw values sum to 1) for odd p <= 499", start, 5.0)


def test_criterion_04_prime_fibers_are_inverse_pairs():
    start = time.perf_counter()
    for p in range(3, 998, 2):
        if is_prime(p):
            assert verify_prime_classification(p)
    # same statement as a biconditional over unit pairs, on sampled primes
    for p in (3, 5, 7, 11, 13, 97):
        for q in units(p):
            for q2 in units(p):
                assert related(RelationKind.FRAMING_EQUAL, p, q, q2) == related(
                    RelationKind.ORIENTED_HOMEO, p, q, q2
                )
    _finish("4: fibers are exactly {q, q^-1} for every odd prime <= 997", start, 60.0)


def test_criterion_05_quadratic_root_oracle():
    start = time.perf_counter()
    for p in ODD_TO_499:
        if not is_prime(p):
            continue
        table = sweeps.invariant_table(p)
        for q in units(p):
            assert quadratic_roots(p, table[q]) == {q, pow(q, -1, p)}
    _finish("5: quadratic roots of the framing value recover {q, q^-1}, primes <= 499", start, 30.0)


def test_criterion_06_connected_sum_example():
    start = time.perf_counter()
    a = SumOfLens((LensSpace(5, 1), LensSpace(5, 1)))
    b = SumOfLens((LensSpace(5, 1), LensSpace(5, 4)))
    assert sums_equivalent(a, b, RelationKind.ORIENTED_HOMOTOPY)
    assert not sums_equivalent(a, b, RelationKind.ORIENTED_HOMEO)
    _finish("6: L(5,1)#L(5,1) homotopy-matched to L(5,1)#L(5,4) but not homeomorphic", start)


def test_criterion_07_contact_obstruction():
    start = time.perf_counter()
    m = Modulus(120)
    assert universally_tight_obstructed(QuotientData(120, True, FramingClass(1, m)))
    assert not universally_tight_obstructed(QuotientData(120, True, FramingClass(0, m)))
    _finish("7: order-120 quotient: pullback class 1 obstructed, class 0 not", start)


def test_criterion_08_both_evaluation_routes_agree():
    start = time.perf_counter()
    for p in ODD_TO_499:
        assert sweeps.invariant_table(p) == sweeps.residue_table(p)
    for p in range(3, 60, 2):
        for q in units(p):
            space = LensSpace(p, q)
            assert framing_invariant(space) == framing_invariant_residue(space)
    _finish("8: odd-lift route equals in-ring route for all odd p <= 499", start)


def _homotopy_key(p, q, signed):
    orbit = {s * q % p for s in square_units(p)}
    if signed:
        orbit |= {p - v for v in orbit}
    return min(orbit)


def test_criterion_09_relation_properties():
    start = time.perf_counter()
    for p in range(3, 201, 2):
        us = units(p)
        table = sweeps.invariant_table(p)
        keys = {}
        for q in us:
            inv_q = pow(q, -1, p)
            keys[q] = (
                min(q, inv_q),
                min(q, inv_q, p - q, p - inv_q),
                _homotopy_key(p, q, False),
                _homotopy_key(p, q, True),
                table[q],
            )
        for i, q in enumerate(us):
            kq = keys[q]
            for q2 in us[i:]:
                kq2 = keys[q2]
                oh = related(RelationKind.ORIENTED_HOMEO, p, q, q2)
                h = related(RelationKind.HOMEO, p, q, q2)
                oht = related(RelationKind.ORIENTED_HOMOTOPY, p, q, q2)
                ht = related(RelationKind.HOMOTOPY, p, q, q2)
                fe = related(RelationKind.FRAMING_EQUAL, p, q, q2)
                # relation == orbit-key equality pins reflexivity, symmetry
                # and transitivity in one stroke
                assert oh == (kq[0] == kq2[0])
                assert h == (kq[1] == kq2[1])
                assert oht == (kq[2] == kq2[2])
                assert ht == (kq[3] == kq2[3])
                assert fe == (kq[4] == kq2[4])
                if oh:
                    assert h and oht and fe
                if oht:
                    assert ht
    _finish("9: equivalence relations and implication lattice, odd p <= 200", start)


def test_criterion_10_csv_round_trip(capsys):
    start = time.perf_counter()
    assert main(["table", "3", "199", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(TABLE_COLUMNS)
    rebuilt = [",".join(rows[0])]
    for row in rows[1:]:
        p, q = int(row[0]), int(row[1])
        row[5] = str(framing_invariant(LensSpace(p, q)).value)
        rebuilt.append(",".join(row))
    assert "\n".join(rebuilt) + "\n" == out
    _finish("10: CSV table round-trips bit-exactly for p <= 199", start)
