"""Exact arithmetic in Z/m on plain ints: inverses, units, unit squares, primality.

Everything here is a pure function of its inputs; the values, and the Record
base every value type builds on, are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from functools import lru_cache


class Record:
    """Base of the immutable value types: a subclass names its fields, in order, in __slots__,
    and its __init__ checks its arguments and stores each with object.__setattr__. Records of
    one class are equal, hash and pickle by their field tuple; fields cannot be reassigned."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign or delete {name!r}")

    __delattr__ = __setattr__


class Modulus(Record):
    """A modulus m >= 2 for residue arithmetic."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        object.__setattr__(self, "m", m)


def require_odd(p: int) -> None:
    """Reject p unless it is odd and >= 3, the domain of the sweeps and relations."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")


def require_odd_prime(p: int) -> None:
    """Reject p unless it is an odd prime, the domain of the prime classification."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def inverse(v: int, m: int) -> int:
    """Inverse in [0, m) of the unit v (any integer representative) of Z/m."""
    try:
        return pow(v, -1, m)
    except ValueError:
        raise ValueError(f"{v} is not a unit mod {m}") from None


def units(m: int) -> tuple[int, ...]:
    """All unit residues of Z/m in increasing order."""
    return tuple(v for v in range(1, m) if math.gcd(v, m) == 1)


@lru_cache(maxsize=4096)
def prime_factors(m: int) -> tuple[int, ...]:
    """The distinct prime factors of m >= 1 in increasing order, by trial division."""
    factors = []
    f = 2
    while f * f <= m:  # m is the cofactor still unfactored
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return tuple(factors + [m] if m > 1 else factors)


def is_odd_part_square(v: int, m: int) -> bool:
    """Whether the unit v is a square mod the odd part of m, by Euler's criterion at each odd prime
    factor (Hensel's lemma lifts it to the prime powers), stopping at the first non-residue.
    False whenever v shares an odd prime with m, where the Euler test gives 0."""
    for f in prime_factors(m):
        if f != 2 and pow(v, (f - 1) // 2, f) != 1:
            return False
    return True


def is_odd_part_square_up_to_sign(v: int, m: int) -> bool:
    """Whether v or -v is a square mod the odd part of m: chi_f(v) = 1 at every prime factor f,
    or chi_f(v) = chi_f(-1) = (-1)^((f-1)/2) at every f, in one pass (f = 2 passes both)."""
    plain = signed = True
    for f in prime_factors(m):
        euler = pow(v, (f - 1) // 2, f)
        plain, signed = plain and euler == 1, signed and euler == (f - 1 if f & 2 else 1)
        if not (plain or signed):
            return False
    return True


def is_square_unit(v: int, m: int) -> bool:
    """Whether some unit n satisfies n^2 = v in Z/m, decided without enumerating units.

    is_odd_part_square decides the odd part of m; mod 2^e, squares are the units = 1 mod min(2^e, 8).
    """
    Modulus(m)  # rejects m < 2
    if math.gcd(v, m) != 1:
        raise ValueError(f"{v} is not a unit mod {m}")
    return (v - 1) % min(m & -m, 8) == 0 and is_odd_part_square(v, m)


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n), by prime_factors; plenty for desk-scale n."""
    return n >= 2 and prime_factors(n) == (n,)
