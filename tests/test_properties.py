"""Property tests of the invariant's identities at random odd p, bigint p included."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lensframe import sweeps
from lensframe.cli import TABLE_COLUMNS, main
from lensframe.framing import (
    LensSpace,
    framing_invariant,
    framing_invariant_residue,
    framing_value,
    normalized_framing_invariant,
    odd_lifts,
)
from lensframe.modring import inverse

# Odd p from 3 up to about 2**21, or beyond 2**65 where no machine word holds the lift products.
ODD_P = st.one_of(st.integers(1, 2**20), st.integers(2**64, 2**80)).map(lambda n: 2 * n + 1)
SHIFTS = st.integers(0, 2**32)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def unit_of_odd_p(draw):
    p = draw(ODD_P)
    q = draw(st.integers(1, p - 1).filter(lambda q: math.gcd(q, p) == 1))
    return p, q


@PROPERTY_SETTINGS
@given(unit_of_odd_p(), SHIFTS, SHIFTS)
def test_any_odd_lifts_give_the_invariant(unit, j, k):
    p, q = unit
    a, b = odd_lifts(p, q)
    lifted = (a + 2 * j * p - 1) * (b + 2 * k * p - 1)
    assert lifted % 4 == 0
    assert lifted // 4 % p == framing_value(p, q)
    assert sweeps.first_bad_lift(p, q, inverse(q, p), 2) is None


@PROPERTY_SETTINGS
@given(unit_of_odd_p())
def test_inverse_symmetry(unit):
    p, q = unit
    assert framing_value(p, inverse(q, p)) == framing_value(p, q)


@PROPERTY_SETTINGS
@given(unit_of_odd_p())
def test_raw_antisymmetry(unit):
    p, q = unit
    assert (framing_value(p, q) + framing_value(p, p - q)) % p == 1


@PROPERTY_SETTINGS
@given(unit_of_odd_p())
def test_evaluation_routes_agree(unit):
    space = LensSpace(*unit)
    assert framing_invariant(space) == framing_invariant_residue(space)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 499).map(lambda n: 2 * n + 1))
def test_sweeps_agree_and_come_back_clean(p):
    assert sweeps.invariant_table(p) == sweeps.residue_table(p)
    assert sweeps.lift_mismatch(p, 2) is None


def _table_text(p_min, p_max, fmt):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["table", str(p_min), str(p_max), "--format", fmt]) == 0
    return stdout.getvalue()


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 301).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 301))))
def test_cli_table_round_trips(p_range):
    p_min, p_max = p_range
    plain = [line.split() for line in _table_text(p_min, p_max, "plain").splitlines()]
    comma = list(csv.reader(io.StringIO(_table_text(p_min, p_max, "csv"))))
    assert tuple(plain[0]) == tuple(comma[0]) == TABLE_COLUMNS
    rows = [tuple(map(int, row)) for row in plain[1:]]
    assert [tuple(map(int, row)) for row in comma[1:]] == rows
    objects = json.loads(_table_text(p_min, p_max, "json"))
    assert all(tuple(obj) == TABLE_COLUMNS for obj in objects)
    assert [tuple(obj.values()) for obj in objects] == rows

    odd_ps = range(p_min | 1, p_max + 1, 2)
    assert [row[:2] for row in rows] == [(p, q) for p in odd_ps for q in range(1, p) if math.gcd(q, p) == 1]
    for p, q, q_inv, odd_q, odd_q_inv, value, normalized in rows:
        space = LensSpace(p, q)
        assert value == framing_invariant(space).value
        assert normalized == normalized_framing_invariant(space).value
        assert q * q_inv % p == 1
        assert odd_q % 2 == odd_q_inv % 2 == 1
        assert (odd_q % p, odd_q_inv % p) == (q, q_inv)


# The point commands' ints: small ones, with 0, negatives and even numbers among them, and
# 40-digit ones, each also as the odd 2n + 1 that a valid call needs.
SMALL_OR_HUGE = st.one_of(
    st.integers(-10, 130), st.integers(10**39, 10**40), st.integers(-(10**40), -(10**39))
)
POINT_INT = st.one_of(SMALL_OR_HUGE, SMALL_OR_HUGE.map(lambda n: 2 * n + 1))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["invariant", "obstruct", "table", "verify", "search"]))
    if command == "invariant":
        args = [draw(POINT_INT), draw(POINT_INT), *draw(st.sampled_from([[], ["--normalized"]]))]
    elif command == "obstruct":
        args = [draw(POINT_INT), draw(POINT_INT), *draw(st.sampled_from([[], ["--h1-nontrivial"]]))]
    elif command == "table":
        args = [draw(st.integers(-5, 30)), draw(st.integers(-5, 30))]
    elif command == "verify":
        args = [draw(st.integers(-5, 30))]
    else:
        args = [draw(st.integers(-5, 13)), *draw(st.sampled_from([[], [1], [2], [3]]))]
    fmt = draw(st.sampled_from(["plain", "csv", "json"]))
    return [command, *map(str, args), "--format", fmt]


@settings(max_examples=200, deadline=None)
@given(cli_argv(), st.booleans())
def test_cli_argv_fuzz_exits_cleanly(argv, to_file):
    known = b"bytes from before the run\n"
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.txt"
        target.write_bytes(known)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(target)] if to_file else argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 1:
            assert target.read_bytes() == known
        assert os.listdir(tmp) == ["out.txt"]
