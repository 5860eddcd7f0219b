"""Writers for the tower description file format.

The benchmark writes its own input files instead of calling the
program's serializer, so a change to the program cannot change the
workload.  Matrices are bracketed rows separated by semicolons; group
relations are listed one relator per row.
"""


def matrix_text(rows):
    return "[" + "; ".join(" ".join(str(x) for x in r) for r in rows) + "]"


def group(name, generators, relators=()):
    out = ["[group %s]" % name, "generators = %d" % generators]
    if relators:
        out.append("relations = %s" % matrix_text(relators))
    return "\n".join(out) + "\n"


def diag_group(name, diag):
    """Group Z^a (+) Z/d_1 (+) ... given one entry per generator (0 = free)."""
    n = len(diag)
    rel = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(diag) if d]
    return group(name, n, rel)


def hom(name, source, target, rows):
    return "[map %s]\nsource = %s\ntarget = %s\nmatrix = %s\n" % (
        name, source, target, matrix_text(rows))


def tower(name, tail_group, tail_endo, prefix_groups=(), prefix_bonds=(), splice=None):
    out = ["[tower %s]" % name, "tail_group = %s" % tail_group,
           "tail_endo = %s" % tail_endo]
    if prefix_groups:
        out.append("prefix_groups = %s" % " ".join(prefix_groups))
    if prefix_bonds:
        out.append("prefix_bonds = %s" % " ".join(prefix_bonds))
    if splice:
        out.append("splice = %s" % splice)
    return "\n".join(out) + "\n"


def pure_tail(name, rows):
    """A pure periodic tower (Z^r, A): group, map and tower sections."""
    r = len(rows)
    return (group(name + "_L", r) + hom(name + "_A", name + "_L", name + "_L", rows)
            + tower(name, name + "_L", name + "_A"))


def stower(name, family, params=()):
    out = ["[stower %s]" % name, "family = %s" % family]
    if params:
        out.append("params = %s" % matrix_text([params]))
    return "\n".join(out) + "\n"
