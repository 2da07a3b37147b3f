import pytest

from lensframe import sweeps
from lensframe.framing import LensSpace, framing_invariant, framing_invariant_residue
from lensframe.modring import inverse, units
from lensframe.sweeps import TABLE_CACHE_SIZE

SAMPLE_P = [3, 5, 7, 9, 15, 21, 45, 99, 121, 499, 997]


def test_unit_group_matches_units_and_inverse():
    for p in range(3, 1000, 2):
        group, inverses = sweeps.unit_group(p)
        assert group == units(p)
        assert len(inverses) == p
        unit_set = set(group)
        for q in range(p):
            assert inverses[q] == (inverse(q, p) if q in unit_set else 0)


def test_unit_group_cache_is_bounded():
    assert sweeps.unit_group.cache_info().maxsize == TABLE_CACHE_SIZE


def test_invariant_table_matches_scalar_route():
    for p in SAMPLE_P:
        table = sweeps.invariant_table(p)
        unit_set = set(units(p))
        assert len(table) == p
        assert table[0] == -1
        for q in range(1, p):
            if q in unit_set:
                assert table[q] == framing_invariant(LensSpace(p, q)).value
            else:
                assert table[q] == -1


def test_residue_table_matches_scalar_route():
    for p in SAMPLE_P:
        table = sweeps.residue_table(p)
        for q in units(p):
            assert table[q] == framing_invariant_residue(LensSpace(p, q)).value


def test_lift_sweeps_come_back_clean():
    for p in SAMPLE_P:
        assert sweeps.lift_mismatch(p, 5) == -1


def test_kernels_reject_bad_p():
    for fn in (sweeps.unit_group, sweeps.invariant_table, sweeps.residue_table):
        with pytest.raises(ValueError):
            fn(8)
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        sweeps.lift_mismatch(8, 2)


def test_tables_are_immutable_and_cached():
    first = sweeps.invariant_table(45)
    assert isinstance(first, tuple)
    assert sweeps.invariant_table(45) is first


def test_backend_reports_name():
    assert sweeps.BACKEND == "python"
