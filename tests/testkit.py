"""Constructions the simplicial and shape tests share; the package itself
never forms them."""

from towerlim.shape import PeriodicSimplicialTower
from towerlim.simplicial import SimplicialMap


def identity_map(K):
    return SimplicialMap(K, K, tuple(range(K.vertex_count)))


def constant_tower(K):
    """The tower K <- K <- ... with identity bonds."""
    return PeriodicSimplicialTower((), K, identity_map(K))


def level_inclusion(tel, j):
    """The inclusion of the level-j copy into the telescope tel."""
    return SimplicialMap(tel.level_complexes[j], tel.complex, tel.level_vertex_ids[j])


def level_to_base(tel, j):
    """The composite level-j copy -> telescope -> level 0."""
    vm = tuple(tel.base_vertex_map[v] for v in tel.level_vertex_ids[j])
    return SimplicialMap(tel.level_complexes[j], tel.level_complexes[0], vm)
