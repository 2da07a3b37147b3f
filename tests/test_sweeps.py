import pytest

import reference
from lensframe import sweeps
from lensframe.framing import LensSpace, framing_invariant, framing_invariant_residue, odd_lift
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


def test_invariant_table_lifts_every_unit_for_its_own_value(monkeypatch):
    # Each value comes from its own unit's lift and its inverse's, so every unit
    # is lifted twice.  A table that copied F(q^-1) from F(q) would lift each once,
    # and verify's inverse-symmetry check would then compare a value with itself.
    lifted = []

    def counted(v, p):
        lifted.append(v)
        return odd_lift(v, p)

    monkeypatch.setattr(sweeps, "odd_lift", counted)
    sweeps.invariant_table.cache_clear()
    try:
        for p in (5, 7, 9, 15):
            lifted.clear()
            sweeps.invariant_table(p)
            assert sorted(lifted) == sorted(2 * units(p))
    finally:
        sweeps.invariant_table.cache_clear()


def test_residue_table_matches_scalar_route():
    for p in SAMPLE_P:
        table = sweeps.residue_table(p)
        for q in units(p):
            assert table[q] == framing_invariant_residue(LensSpace(p, q)).value


def test_lift_sweeps_come_back_clean():
    for p in SAMPLE_P:
        assert sweeps.lift_mismatch(p, 5) is None


def _even_in_top_third(v, p):
    # Even lifts only above 2p/3: the first failing unit then varies with p.
    return odd_lift(v, p) + (p if 3 * v > 2 * p else 0)


@pytest.mark.parametrize("lift", [odd_lift, reference.even_lift, _even_in_top_third])
def test_class_sweep_matches_the_per_unit_oracle(monkeypatch, lift):
    # Each class {q, q^-1} is swept once, at its smaller member; the oracle tries every
    # unit.  Under a wrong lift both must still name the same first unit and value.
    monkeypatch.setattr(sweeps, "odd_lift", lift)
    found = []
    for p in range(3, 302, 2):
        found.append(reference.lift_mismatch(p, 5, lift))
        assert sweeps.lift_mismatch(p, 5) == found[-1]
    first_units = [q for q, _ in filter(None, found)]
    if lift is odd_lift:
        assert first_units == []
    else:
        # The even lift fails at q = 1 for every p; the top-third lift at many different units.
        assert len(first_units) >= 149
        assert len(set(first_units)) >= (1 if lift is reference.even_lift else 10)


@pytest.mark.parametrize("lifts", [{1: 1, 2: 2}, {1: 2, 2: 1}], ids=["last_j", "last_k"])
def test_first_bad_lift_tries_the_last_shift_of_each_lift(monkeypatch, lifts):
    # At p = 3 each lookup makes one of a, b zero, so the base value is 0 and a product
    # differs from it only once that side is shifted (j = 1, or k = 1): a sweep that stops
    # one shift short in that range finds nothing.
    monkeypatch.setattr(sweeps, "odd_lift", lambda v, p: lifts[v])
    assert sweeps.first_bad_lift(3, 1, 2, 1) == 1
    assert sweeps.first_bad_lift(3, 1, 2, 0) is None


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
