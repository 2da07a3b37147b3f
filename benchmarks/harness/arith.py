"""The harness's own integer arithmetic, used to check lensframe's answers.

Nothing here imports lensframe.  Where lensframe tests a square unit by
membership in an enumerated set of squares, this module uses Euler's
criterion at each prime factor, so the two can only agree by being right.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product

KINDS = ("oriented-homeo", "homeo", "oriented-homotopy", "homotopy", "framing-equal")
GEOMETRIC_KINDS = KINDS[:4]


def inverse(a: int, m: int) -> int:
    """a^-1 mod m by the extended Euclidean algorithm; a must be a unit."""
    r0, r1, x0, x1 = a % m, m, 1, 0
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        x0, x1 = x1, x0 - k * x1
    if r0 != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    return x0 % m


def odd_lift(v: int, p: int) -> int:
    return v if v % 2 else v + p


def framing(p: int, q: int) -> int:
    """F(L(p, q)) = (a - 1)(b - 1) / 4 mod p from odd lifts of q and q^-1."""
    a, b = odd_lift(q, p), odd_lift(inverse(q, p), p)
    return (a - 1) * (b - 1) // 4 % p


def normalized_framing(p: int, q: int) -> int:
    return (framing(p, q) - inverse(2, p)) % p


@cache
def units(p: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, p) if math.gcd(q, p) == 1)


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        found.append(n)
    return tuple(found)


def totient(n: int) -> int:
    for ell in prime_factors(n):
        n = n // ell * (ell - 1)
    return n


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


def is_square_unit(x: int, p: int) -> bool:
    """Whether the unit x is a square mod odd p: a quadratic residue mod every prime factor."""
    return all(pow(x, (ell - 1) // 2, ell) == 1 for ell in prime_factors(p))


def related(kind: str, p: int, q: int, q2: int) -> bool:
    q, q2 = q % p, q2 % p
    inv = inverse(q, p)
    if kind == "oriented-homeo":
        return q2 in (q, inv)
    if kind == "homeo":
        return q2 in (q, inv, p - q, p - inv)
    if kind == "framing-equal":
        return framing(p, q) == framing(p, q2)
    ratio = q2 * inv % p
    if kind == "oriented-homotopy":
        return is_square_unit(ratio, p)
    return is_square_unit(ratio, p) or is_square_unit(p - ratio, p)


def sums_equivalent(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...], kind: str) -> bool:
    """Whether some bijection of the summands pairs each with a related one."""
    if len(a) != len(b):
        return False
    return any(
        all(pa == pb and related(kind, pa, qa, qb) for (pa, qa), (pb, qb) in zip(a, perm))
        for perm in permutations(b)
    )


def collisions(p: int) -> list[tuple[int, int]]:
    """Unit pairs q < q2 of composite odd p with equal F that are not inverse pairs."""
    fibers: dict[int, list[int]] = {}
    for q in units(p):
        fibers.setdefault(framing(p, q), []).append(q)
    return sorted(
        (q, q2)
        for fiber in fibers.values()
        for q, q2 in combinations(fiber, 2)
        if q2 != inverse(q, p)
    )


def collision_line(p: int) -> str | None:
    """The line `lensframe verify` prints for p, or None when p has no collisions."""
    pairs = collisions(p)
    if not pairs:
        return None
    return f"note: composite p={p} collisions: " + " ".join(f"({a},{b})" for a, b in pairs)


def table_lines(p: int) -> list[str]:
    """The CSV rows `lensframe table` prints for p."""
    half = inverse(2, p)
    lines = []
    for q in units(p):
        qi = inverse(q, p)
        f = framing(p, q)
        lines.append(f"{p},{q},{qi},{odd_lift(q, p)},{odd_lift(qi, p)},{f},{(f - half) % p}")
    return lines


def search_lines(p1: int, p2: int) -> list[str]:
    """The lines `lensframe search MAX 2` prints for sums L(p1,.)#L(p2,.), p1 <= p2 prime.

    One sum per multiset of oriented-homeomorphism classes; two sums are
    listed when their summands match class for class under oriented
    homotopy equivalence, which at prime p is the Legendre symbol of q.
    """
    reps = {p: sorted({min(q, inverse(q, p)) for q in units(p)}) for p in (p1, p2)}
    if p1 == p2:
        sums = [((p1, r1), (p1, r2)) for r1, r2 in combinations_with_replacement(reps[p1], 2)]
    else:
        sums = [((p1, r1), (p2, r2)) for r1, r2 in product(reps[p1], reps[p2])]
    groups: dict[tuple, list] = {}
    for s in sums:
        key = tuple(sorted((p, is_square_unit(q, p)) for p, q in s))
        groups.setdefault(key, []).append(s)
    pairs = sorted(pair for group in groups.values() for pair in combinations(sorted(group), 2))
    return [f"{_render_sum(a)} ~h {_render_sum(b)} (not homeo)" for a, b in pairs]


def _render_sum(s) -> str:
    return "#".join(f"L({p},{q})" for p, q in s)
