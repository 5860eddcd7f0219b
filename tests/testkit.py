"""Constructions the tests share that the package itself never forms:
simplicial towers and maps for the simplicial and shape tests, and the
argparse parser that the command-line parser is checked against."""

import argparse

from towerlim import cli
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


def reference_parser():
    """The argparse parser of the command table `cli._COMMANDS`, as the
    command line read its arguments before it had its own parser."""
    ap = argparse.ArgumentParser(
        prog="towerlim", allow_abbrev=False,
        description="Exact limits, derived limits and Steenrod homology "
                    "of towers of finitely generated abelian groups.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, takes_file, _) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if takes_file:
            p.add_argument("file", help="tower description file")
        for flag, kind, default, required, choices in cli._options(name):
            if kind is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, default=default, required=required,
                               choices=choices and choices())
    return ap
