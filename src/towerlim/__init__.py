"""Exact arithmetic for towers of finitely generated abelian groups.

The package computes inverse limits, derived limits, the Mittag-Leffler
condition family, six-term exact sequences, Steenrod homology and
Pontryagin/Cech cohomology for compacta presented as towers of finite
simplicial complexes or towers of finitely generated abelian groups.
All arithmetic is exact (arbitrary-precision integers throughout).
"""

__version__ = "0.1.0"

# Each public name is imported from its home module on first access (PEP
# 562), so `import towerlim` loads no submodule and a command line process
# loads only the modules its command runs.
_EXPORTS = {
    "exactlat": "IntMatrix FgAbGroup Homomorphism free_group snf present hom_make "
                "hom_parts",
    "towers": "PeriodicTower StreamedTower FiniteTower periodic_tower pure_tower "
              "make_streamed shift truncate reduce_to_images tower_ses "
              "canonical_completion_ses",
    "structured": "StructuredGroup compare_structured",
    "limits": "limit derived_limit ml_conditions six_term brute_lim",
    "simplicial": "SimplicialComplex SimplicialMap simplicial_homology induced_hom",
    "shape": "make_example steenrod cluster cech_cohomology telescope",
    "procat": "compare_invariants find_interleaving",
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOMES, "__version__"]


# submodules, reachable as attributes after a bare `import towerlim`
_SUBMODULES = {"cli", "errors", "exactlat", "lab", "limits", "poly", "procat",
               "report", "shape", "simplicial", "structured", "towerfile", "towers"}


def __getattr__(name):
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
