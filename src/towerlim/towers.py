"""Towers (inverse sequences) of finitely generated abelian groups.

A tower is a diagram  ... -> G_2 -> G_1 -> G_0  with bonding maps pointing
toward index 0.  Two representations are supported:

* EventuallyPeriodic: a finite explicit prefix followed by a constant tail
  (one group with one endomorphism).  Level prefix_len + j of the tower is
  the tail group with bonding tail_endo, for every j >= 0.  These towers
  admit exact answers everywhere.

* Streamed: one of a closed registry of families whose levels grow without
  bound (levels are produced on demand).  Every registered family has
  closed-form answers, chosen by family name in the limits module.
"""

from __future__ import annotations

from .exactlat import (
    FgAbGroup,
    Homomorphism,
    IllDefined,
    IntMatrix,
    Record,
    diagonal_group,
    exactness_defect,
    free_group,
    hom_make,
    identity_hom,
    lattice_canon,
    preimage,
    present,
    snf,
    solve_columns,
)


class TowerError(Exception):
    pass


class NotExact(TowerError):
    def __init__(self, level, reason):
        super().__init__("not exact at level %s: %s" % (level, reason))
        self.level = level
        self.reason = reason


class UnknownFamily(TowerError):
    pass


class EvaluatorFailure(TowerError):
    pass


class PeriodicTower(Record):
    """Eventually periodic tower.

    prefix_groups[i] is the level-i group; prefix_bonds[i] maps level i+1
    into level i; splice maps the tail group into the last prefix group.
    With an empty prefix the tower is the pure periodic pair
    (tail_group, tail_endo) and splice is None.
    """

    _fields = ("prefix_groups", "prefix_bonds", "tail_group", "tail_endo", "splice")

    def __init__(self, prefix_groups, prefix_bonds, tail_group, tail_endo, splice):
        object.__setattr__(self, "prefix_groups", prefix_groups)
        object.__setattr__(self, "prefix_bonds", prefix_bonds)
        object.__setattr__(self, "tail_group", tail_group)
        object.__setattr__(self, "tail_endo", tail_endo)
        object.__setattr__(self, "splice", splice)

    @property
    def prefix_len(self):
        return len(self.prefix_groups)

    def group_at(self, i):
        if i < self.prefix_len:
            return self.prefix_groups[i]
        return self.tail_group

    def bond_at(self, i):
        """Bonding map from level i+1 into level i."""
        if i + 1 < self.prefix_len:
            return self.prefix_bonds[i]
        if i + 1 == self.prefix_len:
            return self.splice
        return self.tail_endo

    def is_pure_periodic(self):
        return self.prefix_len == 0

    def describe(self):
        tail = "(%s, endo %r)" % (self.tail_group.describe(),
                                  [list(r) for r in self.tail_endo.matrix.data])
        if self.is_pure_periodic():
            return "periodic " + tail
        return "prefix[%s] + %s" % (
            ", ".join(g.describe() for g in self.prefix_groups), tail)


class StreamedTower(Record):
    """A member of the closed streamed-family registry, with a level offset
    so shifting stays representable."""

    _fields = ("family", "params", "offset")

    def __init__(self, family, params, offset=0):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "offset", offset)

    def group_at(self, i):
        return _FAMILY_REGISTRY[self.family].group(self.params, i + self.offset)

    def bond_at(self, i):
        return _FAMILY_REGISTRY[self.family].bond(self.params, i + self.offset)

    def describe(self):
        extra = "" if not self.params else "(%s)" % ",".join(map(repr, self.params))
        off = "" if not self.offset else " shifted by %d" % self.offset
        return "streamed %s%s%s" % (self.family, extra, off)


class FiniteTower(Record):
    """Materialized levels 0..depth of a tower."""

    _fields = ("groups", "bonds")

    def __init__(self, groups, bonds):
        if len(bonds) != max(len(groups) - 1, 0):
            raise ValueError("need exactly one bond between consecutive levels")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "bonds", bonds)

    @property
    def depth(self):
        return len(self.groups) - 1

    def composite(self, upper, lower):
        """Bond composite mapping level `upper` down into level `lower`."""
        if upper < lower:
            raise ValueError("upper must be at least lower")
        h = identity_hom(self.groups[upper])
        for i in range(upper - 1, lower - 1, -1):
            h = self.bonds[i].compose(h)
        return h


# ---------------------------------------------------------------------------
# streamed family registry (closed; no user scripting)


class _Family:
    def __init__(self, group, bond):
        self.group = group
        self.bond = bond


def _finite_sets_group(params, i):
    # free abelian on the points {1..i} plus the compactifying point
    return free_group(i + 1)


def _finite_sets_bond(params, i):
    # the new point of level i+1 is sent to the compactifying point (index 0)
    src, tgt = free_group(i + 2), free_group(i + 1)
    m = [[0] * (i + 2) for _ in range(i + 1)]
    for c in range(i + 2):
        m[c if c < i + 1 else 0][c] = 1
    return Homomorphism(src, tgt, IntMatrix(i + 1, i + 2, m))


def _cluster_group(params, i):
    return free_group(i)


def _cluster_bond(params, i):
    # Z^(i+1) -> Z^i: multiply the retained coordinates by p, kill the new one
    (p,) = params
    src, tgt = free_group(i + 1), free_group(i)
    m = [[p if r == c else 0 for c in range(i + 1)] for r in range(i)]
    return Homomorphism(src, tgt, IntMatrix(i, i + 1, m))


def _adic_group(params, i):
    """Level i of the completion quotient family: L / A^i L (level 0 is trivial)."""
    gens, arows = params
    A = IntMatrix.from_rows([list(r) for r in arows])
    return present(gens, A ** i)


def _adic_bond(params, i):
    src = _adic_group(params, i + 1)
    tgt = _adic_group(params, i)
    return hom_make(src, tgt, IntMatrix.identity(params[0]))


_FAMILY_REGISTRY = {
    # the Hawaiian earring's H_1 tower is the cluster tower at p = 1
    "hawaiian_h1": _Family(_cluster_group, lambda params, i: _cluster_bond((1,), i)),
    "finite_sets": _Family(_finite_sets_group, _finite_sets_bond),
    "cluster_h1": _Family(_cluster_group, _cluster_bond),
    "adic_quotient": _Family(_adic_group, _adic_bond),
}


def make_streamed(family, params=()):
    """Streamed tower from the closed family registry.

    Families: hawaiian_h1 (Z^i with coordinate projections), finite_sets
    (free abelian on i+1 points with basepoint collapse), cluster_h1(p)
    (Z^i with block map p*I extended by a zero column) and adic_quotient
    (levels L/A^i L for a fixed injective endomorphism A of a free L).
    """
    if family not in _FAMILY_REGISTRY:
        raise UnknownFamily(family)
    params = tuple(params)
    if family in ("hawaiian_h1", "finite_sets") and params:
        raise UnknownFamily("%s takes no parameters" % family)
    if family == "cluster_h1" and (len(params) != 1 or params[0] < 2):
        raise UnknownFamily("cluster_h1 needs one parameter p >= 2")
    if family == "adic_quotient" and len(params) != 2:
        raise UnknownFamily("adic_quotient needs (generators, endo rows)")
    t = StreamedTower(family, params)
    t.group_at(0)
    t.bond_at(0)
    return t


def adic_quotient_tower(group, endo):
    """Streamed tower with levels L/A^i L for an endomorphism A of L = Z^n."""
    if group.relations.cols != 0:
        raise TowerError("adic_quotient is defined over a free lattice")
    rows = tuple(tuple(r) for r in endo.matrix.data)
    return make_streamed("adic_quotient", (group.generators, rows))


# ---------------------------------------------------------------------------
# constructors and structural operations


def periodic_tower(prefix_groups, prefix_bonds, tail_group, tail_endo, splice=None):
    """Validated eventually periodic tower.

    prefix_bonds[i] maps prefix level i+1 into prefix level i (so there is
    one bond fewer than there are prefix groups); splice maps the tail
    group into the last prefix group.  Pass empty prefixes for the pure
    periodic tower  ... -> T -> T.
    """
    prefix_groups = tuple(prefix_groups)
    prefix_bonds = tuple(prefix_bonds)
    if tail_endo.matrix.rows != tail_group.generators \
            or tail_endo.matrix.cols != tail_group.generators:
        raise TowerError("tail endomorphism has the wrong shape")
    hom_make(tail_group, tail_group, tail_endo.matrix)
    if prefix_groups:
        if len(prefix_bonds) != len(prefix_groups) - 1:
            raise TowerError("need one bond between consecutive prefix levels")
        for i, b in enumerate(prefix_bonds):
            if (b.source.generators != prefix_groups[i + 1].generators
                    or b.target.generators != prefix_groups[i].generators):
                raise TowerError("prefix bond %d has the wrong shape" % i)
            hom_make(prefix_groups[i + 1], prefix_groups[i], b.matrix)
        if splice is None:
            raise TowerError("a splice map is required with a nonempty prefix")
        if (splice.source.generators != tail_group.generators
                or splice.target.generators != prefix_groups[-1].generators):
            raise TowerError("splice must map the tail group into the last prefix group")
        hom_make(tail_group, prefix_groups[-1], splice.matrix)
    else:
        if prefix_bonds:
            raise TowerError("prefix bonds without prefix groups")
        splice = None
    return PeriodicTower(prefix_groups, prefix_bonds, tail_group, tail_endo, splice)


def pure_tower(group, endo_matrix):
    """Convenience constructor for the pure periodic tower (G, A)."""
    if isinstance(endo_matrix, list):
        endo_matrix = IntMatrix.from_rows(endo_matrix)
    endo = hom_make(group, group, endo_matrix)
    return PeriodicTower((), (), group, endo, None)


def shift(t, k):
    """Drop the first k levels; pro-trivial, preserves lim and lim1.

    Pure periodic towers are shift-stable on the nose.
    """
    if k == 0:
        return t
    if isinstance(t, StreamedTower):
        return StreamedTower(t.family, t.params, t.offset + k)
    if isinstance(t, FiniteTower):
        if k > t.depth:
            raise TowerError("shift beyond the materialized depth")
        return FiniteTower(t.groups[k:], t.bonds[k:])
    if k >= t.prefix_len:
        return PeriodicTower((), (), t.tail_group, t.tail_endo, None)
    groups = t.prefix_groups[k:]
    bonds = t.prefix_bonds[k:]
    return PeriodicTower(groups, bonds, t.tail_group, t.tail_endo, t.splice)


def truncate(t, n):
    """Materialize levels 0..n as a FiniteTower."""
    if isinstance(t, FiniteTower):
        if n > t.depth:
            raise EvaluatorFailure("finite tower is shallower than requested")
        return FiniteTower(t.groups[: n + 1], t.bonds[:n])
    groups = [t.group_at(i) for i in range(n + 1)]
    bonds = [t.bond_at(i) for i in range(n)]
    return FiniteTower(tuple(groups), tuple(bonds))


def _kernel_chain_bound(group):
    # the kernel chain adds rank or halves torsion each strict step
    bits = sum(d.bit_length() for d in group.torsion)
    return group.rank + bits + 2


def kernel_chain(group, endo):
    """The kernels K_k of the powers A^k of an endomorphism, up to the
    first k = l with K_l = K_(l+1): the list [K_0, ..., K_l].

    Each K_k is the canonical generator matrix of a sublattice of the
    ambient Z^n that contains the relation lattice (K_0 is the relation
    lattice), and K_l is the union of all of them.  K_(k+1) is taken as
    {x : A x in K_k}, which is {x : A^(k+1) x in K_0}, so no power of A
    is formed.  The chain is Noetherian so it stabilizes; the iteration
    cap is a proven bound, not a guess.
    """
    chain = [lattice_canon(group.relations)]
    for _ in range(_kernel_chain_bound(group) + 1):
        nxt = lattice_canon(preimage(endo.matrix, chain[-1]))
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise TowerError("kernel chain failed to stabilize within its proven bound")


def quotient_by(group, sub_gens):
    """Quotient of the group by a sublattice of the ambient Z^n that
    contains the relations."""
    return FgAbGroup(group.generators, lattice_canon(group.relations.hstack(sub_gens)))


def _minimize_with_transform(group, endo):
    """Re-present (group, endo) on an invariant-factor generating set.

    Returns (group', endo', project, section, diag): group' has diagonal
    relations with the unit factors dropped and endo' is the conjugated
    endomorphism, so the pair is isomorphic to the input as a
    group-with-endomorphism.  project maps old coordinates to new
    (m x n), section is a one-sided inverse (n x m) choosing
    representatives; diag lists the invariant factor of each kept
    coordinate (0 for free ones).
    """
    n = group.generators
    S, U, Uinv = snf(group.relations)
    diag = [0] * n
    for i in range(min(S.rows, S.cols)):
        diag[i] = S.data[i][i]
    keep = [i for i in range(n) if diag[i] != 1]
    project = U.submatrix(keep, range(n))
    section = Uinv.submatrix(range(n), keep)
    kept_diag = tuple(diag[i] for i in keep)
    grp = diagonal_group(kept_diag)
    h = hom_make(grp, grp, project * endo.matrix * section)
    return grp, h, project, section, kept_diag


class TailReduction(Record):
    """Tail of a periodic tower after kernel-chain reduction, with the
    kernel chain of the original tail map and the coordinate transport
    back to the original tail group."""

    _fields = ("original_group", "original_endo", "kernel_chain", "group", "endo",
               "project", "section", "diag")

    def __init__(self, original_group, original_endo, kernel_chain, group, endo,
                 project, section, diag):
        object.__setattr__(self, "original_group", original_group)
        object.__setattr__(self, "original_endo", original_endo)
        object.__setattr__(self, "kernel_chain", kernel_chain)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "endo", endo)
        object.__setattr__(self, "project", project)
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "diag", diag)

    @property
    def torsion_idx(self):
        return tuple(i for i, d in enumerate(self.diag) if d != 0)

    @property
    def free_idx(self):
        return tuple(i for i, d in enumerate(self.diag) if d == 0)


def tail_reduction(t):
    """Kernel-chain reduction of the tail with transport matrices."""
    if not isinstance(t, PeriodicTower):
        raise TowerError("tail_reduction needs an eventually periodic tower")
    T, A = t.tail_group, t.tail_endo
    chain = tuple(kernel_chain(T, A))
    Q = quotient_by(T, chain[-1])
    A1 = hom_make(Q, Q, A.matrix)
    grp, h, project, section, diag = _minimize_with_transform(Q, A1)
    return TailReduction(T, A, chain, grp, h, project, section, diag)


def reduce_to_images(t):
    """Pro-isomorphic replacement with an injective tail endomorphism.

    The stable kernel chain of the tail endomorphism is quotiented out.
    The result is a pure periodic tower with an injective tail map
    (torsion included) and equal lim and lim1.  A power of the tail
    endomorphism factors through the quotient, which provides the
    interleaving back into the original tower.
    """
    red = tail_reduction(t)
    return PeriodicTower((), (), red.group, red.endo, None)


# ---------------------------------------------------------------------------
# short exact sequences of towers


class TowerSES(Record):
    """A verified levelwise short exact sequence of pure periodic towers.

    inject_chain[i] and surject_chain[i] are the maps at level i, solved
    from the level-0 templates through the commutation squares; verified_to
    records the deepest level checked exhaustively.  A constant chain (the
    templates commute with the tail maps) holds at every level, and so does
    the closed form A^i, id of the canonical completion sequence; a
    propagated chain is known only on its stored levels.
    """

    _fields = ("sub", "total", "quot", "inject_chain", "surject_chain", "verified_to",
               "canonical_completion", "constant")

    def __init__(self, sub, total, quot, inject_chain, surject_chain, verified_to,
                 canonical_completion=False, constant=False):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "quot", quot)
        object.__setattr__(self, "inject_chain", inject_chain)
        object.__setattr__(self, "surject_chain", surject_chain)
        object.__setattr__(self, "verified_to", verified_to)
        object.__setattr__(self, "canonical_completion", canonical_completion)
        object.__setattr__(self, "constant", constant)

    def inject_at(self, i):
        if self.canonical_completion:
            return Homomorphism(self.sub.tail_group, self.total.tail_group,
                                self.sub.tail_endo.matrix ** i)
        return self._level(self.inject_chain, i)

    def surject_at(self, i):
        if self.canonical_completion:
            group = self.total.tail_group
            return Homomorphism(group, self.quot.group_at(i),
                                IntMatrix.identity(group.generators))
        return self._level(self.surject_chain, i)

    def _level(self, chain, i):
        if self.constant:
            return chain[0]
        if i >= len(chain):
            raise TowerError("level %d is past the %d stored levels of the sequence"
                             % (i, len(chain)))
        return chain[i]


_NOT_EXACT = {
    "injective": "inclusion is not injective",
    "surjective": "projection is not surjective",
    "exact": "image of the inclusion differs from the kernel of the projection",
}


def _exact_at(inj, sur, level):
    """Injectivity, surjectivity and image = kernel at one level, in that
    order, as the lattice tests of exactlat.exactness_defect; the first
    that fails raises NotExact."""
    defect = exactness_defect(inj, sur)
    if defect is not None:
        raise NotExact(level, _NOT_EXACT[defect])


def _square_commutes(upper, lower, left_bond, right_bond, level, what):
    """Check  left_bond o upper == lower o right_bond  as maps."""
    a = left_bond.compose(upper)
    b = lower.compose(right_bond)
    if not a.equals(b):
        raise NotExact(level, "%s square does not commute" % what)


def solve_next_map(f, bond, power, relations):
    """The matrix X with bond X = f power modulo the target `relations`,
    or None when no integral X exists.  With an injective bond X is unique
    as a map."""
    X = solve_columns(bond.hstack(relations), f * power)
    return None if X is None else X.submatrix(range(bond.cols), range(X.cols))


def _next_hom(bond_tgt, bond_src, current):
    """The homomorphism `next` with bond_tgt o next = current o bond_src,
    or None."""
    N = solve_next_map(current.matrix, bond_tgt.matrix, bond_src.matrix,
                       bond_tgt.target.relations)
    if N is None:
        return None
    try:
        return hom_make(bond_src.source, bond_tgt.source, N)
    except IllDefined:
        return None


def tower_ses(sub, total, quot, inject_tail, surject_tail):
    """Validated short exact sequence of pure periodic towers.

    The template maps at level 0 are propagated upward by solving the
    commutation squares, and exactness is checked level by level through
    a stabilization window.  Raises NotExact on the first failure.
    """
    for t in (sub, total, quot):
        if not isinstance(t, PeriodicTower):
            raise TowerError("tower_ses needs eventually periodic towers")
        if not t.is_pure_periodic():
            raise TowerError("tower_ses needs towers without a prefix")

    window = max(t.tail_group.rank + len(t.tail_group.torsion)
                 for t in (sub, total, quot)) + 2

    # a template commuting with constant maps gives identical levels
    const_inj = total.tail_endo.compose(inject_tail).equals(
        inject_tail.compose(sub.tail_endo))
    const_sur = quot.tail_endo.compose(surject_tail).equals(
        surject_tail.compose(total.tail_endo))
    if const_inj and const_sur:
        _exact_at(inject_tail, surject_tail, 0)
        return TowerSES(sub, total, quot, (inject_tail,), (surject_tail,),
                        verified_to=window, constant=True)

    inj, sur = inject_tail, surject_tail
    inj_chain, sur_chain = [inj], [sur]
    for level in range(window + 1):
        _exact_at(inj, sur, level)
        nxt_inj = _next_hom(total.tail_endo, sub.tail_endo, inj)
        if nxt_inj is None:
            raise NotExact(level + 1, "no integral inclusion solves the commutation square")
        nxt_sur = _next_hom(quot.tail_endo, total.tail_endo, sur)
        if nxt_sur is None:
            raise NotExact(level + 1, "no integral projection solves the commutation square")
        _square_commutes(nxt_inj, inj, total.tail_endo, sub.tail_endo, level, "inclusion")
        _square_commutes(nxt_sur, sur, quot.tail_endo, total.tail_endo, level, "projection")
        inj, sur = nxt_inj, nxt_sur
        inj_chain.append(inj)
        sur_chain.append(sur)

    return TowerSES(sub, total, quot, tuple(inj_chain), tuple(sur_chain),
                    verified_to=window)


def canonical_completion_ses(group, endo):
    """The standard sequence (L, A) >-> (L, id) ->> (L/A^i L).

    The inclusion at level i is A^i, so A must be injective.  Exactness
    holds by construction; the first levels are checked anyway.
    """
    if group.relations.cols != 0:
        raise TowerError("the canonical completion sequence needs a free lattice")
    if group.generators > 0 and endo.matrix.det() == 0:
        raise TowerError("the canonical completion sequence needs an injective endomorphism")
    sub = PeriodicTower((), (), group, endo, None)
    total = PeriodicTower((), (), group, identity_hom(group), None)
    quot = adic_quotient_tower(group, endo)
    ses = TowerSES(sub, total, quot, (), (), verified_to=3, canonical_completion=True)
    for i in range(4):
        _exact_at(ses.inject_at(i), ses.surject_at(i), i)
    return ses
