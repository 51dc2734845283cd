"""radact: computational algebra for finite monoid acts.

Congruence lattices, Hoehnke and Kurosh-Amitsur radicals, the closure
operator a radical induces, relative injectivity with Baer-Skornjakov
criteria, bounded injective hulls, and an executable certification suite
running over an exhaustively enumerated universe of small monoids and acts.
"""

from .core import (
    ActHom,
    FiniteAct,
    FiniteMonoid,
    validate_act,
    validate_monoid,
)
from .congruence import Congruence
from .radical import Radical
from .universe import Universe, default_universe

__all__ = (
    "ActHom",
    "Congruence",
    "FiniteAct",
    "FiniteMonoid",
    "Radical",
    "Universe",
    "default_universe",
    "validate_act",
    "validate_monoid",
)
