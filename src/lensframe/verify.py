"""Exhaustive checks of the framing invariant over every odd p up to a bound, as one report."""

from __future__ import annotations

import time
from array import array
from itertools import chain

from . import classify, sweeps
from .modring import Record, is_prime

# verify tries the lifts a + 2jp, b + 2kp of every unit for 0 <= j, k <= MAX_SHIFT.
MAX_SHIFT = 5

# verify keeps collision residues in array("I"), so max_p must stay below this.
VERIFY_P_LIMIT = 1 << 8 * array("I").itemsize


class VerificationReport(Record):
    """Outcome of a verification run; failures empty means overall pass.

    failures lists (check, p, q, q2, expected, actual); collisions maps each
    composite p with colliding units to its pairs (q, q2), kept flat as q, q2,
    q, q2, ... in one array("I") of unsigned ints (8 bytes a pair; VERIFY_P_LIMIT
    keeps every residue in range). elapsed_ms covers the sweep and the scans.
    """

    __slots__ = ("checks_run", "failures", "elapsed_ms", "collisions")

    def __init__(self, checks_run: int = 0, failures: list[tuple] | None = None, elapsed_ms: float = 0.0,
                 collisions: dict[int, array] | None = None) -> None:
        object.__setattr__(self, "checks_run", checks_run)
        object.__setattr__(self, "failures", [] if failures is None else failures)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)
        object.__setattr__(self, "collisions", {} if collisions is None else collisions)


def run_verification(max_p: int) -> VerificationReport:
    """Sweep all odd p <= max_p; composite-order collisions are informational."""
    if max_p < 3:
        raise ValueError(f"max_p must be >= 3, got {max_p}")
    if max_p >= VERIFY_P_LIMIT:
        raise ValueError(f"max_p must be < {VERIFY_P_LIMIT}, got {max_p}")
    start = time.perf_counter()
    checks_run, failures, collisions = 0, [], {}
    for p in range(3, max_p + 1, 2):
        table = sweeps.invariant_table(p)
        unit_values, inverses = sweeps.unit_group(p)
        # Per unit: (MAX_SHIFT + 1)**2 lift products (made once per class {q, q^-1}, counted for
        # both), then inverse symmetry, antisymmetry, and its share of the prime check or collision scan.
        checks_run += len(unit_values) * ((MAX_SHIFT + 1) ** 2 + 3)

        mismatch = sweeps.lift_mismatch(p, MAX_SHIFT)
        if mismatch is not None:
            bad, actual = mismatch
            failures.append(("representative-independence", p, bad, None, table[bad], actual))

        for q in unit_values:
            q_inv = inverses[q]
            if table[q] != table[q_inv]:
                failures.append(("inverse-symmetry", p, q, q_inv, table[q], table[q_inv]))
            raw_sum = (table[q] + table[p - q]) % p
            if raw_sum != 1:
                failures.append(("antisymmetry", p, q, p - q, 1, raw_sum))

        if is_prime(p):
            if not classify.verify_prime_classification(p):
                failures.append(("prime-classification", p, None, None, True, False))
        else:
            found = classify.collision_scan(p)
            if found:
                collisions[p] = array("I", chain.from_iterable(found))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(checks_run, failures, elapsed_ms, collisions)
