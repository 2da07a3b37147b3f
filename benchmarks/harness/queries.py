"""The `queries` workload's call stream: record layout, generation and oracle answers.

child.py reads the records and answers them through lensframe; the parent
answers them with the harness's own arithmetic.  Both sides use this file.
"""

from __future__ import annotations

import math
import random
from array import array

import arith

QUERY_COUNT = 150_000
QUERY_MAX_P = 1999
BATCH = 1000  # answers per stdout line
RECORD = 10  # op, kind index, then up to four (p, q) pairs, zero-padded
OP_RELATED, OP_FRAMING, OP_NORMALIZED, OP_SUMS = range(4)


def _unit(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randrange(1, p)
        if math.gcd(q, p) == 1:
            return q


def _related_unit(rng: random.Random, p: int, q: int) -> int:
    # Half the time a unit the relations may identify with q, so answers are mixed.
    if rng.random() < 0.5:
        return _unit(rng, p)
    inv = arith.inverse(q, p)
    s = _unit(rng, p)
    return rng.choice((q, inv, p - q, p - inv, q * s * s % p))


def generate(seed: int, count: int = QUERY_COUNT) -> array:
    """The seeded call stream, RECORD ints per call; every p is odd and <= QUERY_MAX_P.

    65% related(), 15% each framing_invariant and normalized_framing_invariant,
    5% sums_equivalent: a sums call costs about 25 related() calls, so a
    larger share would leave little time for the inverse path.
    """
    rng = random.Random(seed)
    odd_p = range(3, QUERY_MAX_P + 1, 2)
    records = array("i")
    for _ in range(count):
        r = rng.random()
        p = rng.choice(odd_p)
        q = _unit(rng, p)
        if r < 0.65:
            kind = rng.randrange(len(arith.KINDS))
            rec = [OP_RELATED, kind, p, q, _related_unit(rng, p, q)]
        elif r < 0.95:
            rec = [OP_FRAMING if r < 0.80 else OP_NORMALIZED, 0, p, q]
        else:
            p2 = rng.choice(odd_p)
            q2 = _unit(rng, p2)
            if rng.random() < 0.9:
                other = [p, _related_unit(rng, p, q), p2, _related_unit(rng, p2, q2)]
            else:
                p3, p4 = rng.choice(odd_p), rng.choice(odd_p)
                other = [p3, _unit(rng, p3), p4, _unit(rng, p4)]
            rec = [OP_SUMS, rng.randrange(len(arith.GEOMETRIC_KINDS)), p, q, p2, q2, *other]
        records.extend(rec + [0] * (RECORD - len(rec)))
    return records


def expected_answer(rec) -> int:
    """The oracle's answer to one record, as child.py encodes it (booleans as 0/1)."""
    op, kind, p, q = rec[:4]
    if op == OP_RELATED:
        return int(arith.related(arith.KINDS[kind], p, q, rec[4]))
    if op == OP_FRAMING:
        return arith.framing(p, q)
    if op == OP_NORMALIZED:
        return arith.normalized_framing(p, q)
    a = tuple(sorted(((p, q), (rec[4], rec[5]))))
    b = tuple(sorted(((rec[6], rec[7]), (rec[8], rec[9]))))
    return int(arith.sums_equivalent(a, b, arith.GEOMETRIC_KINDS[kind]))


def oracle_answers(records: array) -> list[int]:
    return [expected_answer(records[i : i + RECORD]) for i in range(0, len(records), RECORD)]
