"""Framing invariants of odd-order lens spaces.

Computes the residue class mod p attached to L(p, q) via odd lifts of q and
q^-1, the equivalence relations it detects, connected-sum comparisons, and
the obstruction to universally tight positive contact structures on free
spherical quotients.
"""

from .classify import (
    RelationKind,
    collision_scan,
    quadratic_roots,
    related,
    verify_prime_classification,
)
from .connectsum import SumOfLens, find_exotic_pairs, sums_equivalent
from .framing import (
    FramingClass,
    LensSpace,
    QuotientData,
    equivariant_map_degree,
    framing_invariant,
    framing_invariant_residue,
    framing_modulus,
    normalized_framing_invariant,
    universally_tight_obstructed,
)
from .modring import Modulus, is_prime, is_square_unit
from .sweeps import BACKEND

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "FramingClass",
    "LensSpace",
    "Modulus",
    "QuotientData",
    "RelationKind",
    "SumOfLens",
    "collision_scan",
    "equivariant_map_degree",
    "find_exotic_pairs",
    "framing_invariant",
    "framing_invariant_residue",
    "framing_modulus",
    "is_prime",
    "is_square_unit",
    "normalized_framing_invariant",
    "quadratic_roots",
    "related",
    "sums_equivalent",
    "universally_tight_obstructed",
    "verify_prime_classification",
]
