"""Exhaustive references that the tests check the package's arithmetic against."""

from functools import cache

from lensframe.modring import units


@cache
def square_units(m: int) -> frozenset[int]:
    """The squares inside the unit group of Z/m, by exhaustive enumeration."""
    return frozenset(u * u % m for u in units(m))
