"""Exact arithmetic for towers of finitely generated abelian groups.

The package computes inverse limits, derived limits, the Mittag-Leffler
condition family, six-term exact sequences, Steenrod homology and
Pontryagin/Cech cohomology for compacta presented as towers of finite
simplicial complexes or towers of finitely generated abelian groups.
All arithmetic is exact (arbitrary-precision integers throughout).
"""

__version__ = "0.1.0"

from .exactlat import (
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    free_group,
    hnf,
    hom_make,
    hom_parts,
    present,
    snf,
)
from .limits import (
    brute_lim,
    derived_limit,
    limit,
    ml_conditions,
    six_term,
)
from .shape import cech_cohomology, cluster, make_example, steenrod, telescope
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    induced_hom,
    simplicial_homology,
)
from .structured import StructuredGroup, compare_structured
from .towers import (
    FiniteTower,
    PeriodicTower,
    StreamedTower,
    canonical_completion_ses,
    make_streamed,
    periodic_tower,
    pure_tower,
    reduce_to_images,
    shift,
    tower_ses,
    truncate,
)
from .procat import compare_invariants, find_interleaving

__all__ = [
    "IntMatrix", "FgAbGroup", "Homomorphism", "free_group", "hnf", "snf", "present",
    "hom_make", "hom_parts",
    "PeriodicTower", "StreamedTower", "FiniteTower", "periodic_tower",
    "pure_tower", "make_streamed", "shift", "truncate", "reduce_to_images",
    "tower_ses", "canonical_completion_ses",
    "StructuredGroup", "compare_structured",
    "limit", "derived_limit", "ml_conditions", "six_term", "brute_lim",
    "SimplicialComplex", "SimplicialMap", "simplicial_homology", "induced_hom",
    "make_example", "steenrod", "cluster", "cech_cohomology", "telescope",
    "compare_invariants", "find_interleaving",
    "__version__",
]
