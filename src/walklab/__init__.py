"""walklab: exact and sampled random-walk computations on wreath products,
iterated wreath towers, and free solvable groups.

Highlights:

* exact group arithmetic on canonical normal forms (`walklab.groups`)
* finite step laws with rational weights (`walklab.measures`)
* entropy ladders with exact comparison of log-linear forms
  (`walklab.walks`, `walklab.exact_entropy`)
* the wreath embedding of free solvable groups with an independent
  matrix-form cross-check (`walklab.magnus`)
* escape-probability estimators: closed-form brackets, Monte Carlo with
  counter-based streams, range-based rates (`walklab.escape`)
* a small text grammar for groups, elements, and step laws
  (`walklab.parsing`) and reproducible experiment runners
  (`walklab.experiments`, `walklab.cli`)
"""

__version__ = "0.1.0"

from . import escape, exact_entropy, groups, magnus, measures, parsing, rng, walks
from .groups import (
    BaumslagSolitar,
    Cyclic,
    Dihedral,
    DirectProduct,
    FreeGroup,
    FreeSolvable,
    IntegerLattice,
    Wreath,
    identity,
    inverse,
    multiply,
    wreath_tower,
)
from .measures import FiniteMeasure, point_mass, uniform_measure

__all__ = [
    "__version__",
    "escape", "exact_entropy", "groups", "magnus", "measures", "parsing",
    "rng", "walks",
    "BaumslagSolitar", "Cyclic", "Dihedral", "DirectProduct", "FreeGroup",
    "FreeSolvable", "IntegerLattice", "Wreath",
    "identity", "inverse", "multiply", "wreath_tower",
    "FiniteMeasure", "point_mass", "uniform_measure",
]
