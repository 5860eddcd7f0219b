"""Pro-category machinery: level maps, interleavings, pro-isomorphism.

Two towers are pro-isomorphic when, after passing to subsequences, there
are maps in both directions whose composites equal the bonding maps.  For
towers of discrete groups "homotopic" degenerates to equal, so the
commutation and composite equations are exact integer-linear systems and
the bounded search below solves them by lattice kernels.

A verdict of Isomorphic always carries a certificate; matching limit
invariants without a connecting map are deliberately reported Undecided,
since the bijection criterion presupposes a morphism inducing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from operator import mul

from .exactlat import (
    IllDefined,
    IntMatrix,
    hom_make,
    kernel as lattice_kernel,
    solve_columns,
)
from .limits import derived_limit, limit
from .structured import compare_structured, prime_factors
from .towers import PeriodicTower, TowerError, reduce_to_images, shift


class NotCommuting(TowerError):
    def __init__(self, level, reason=""):
        super().__init__("level map does not commute at level %s %s" % (level, reason))
        self.level = level


@dataclass(frozen=True)
class Interleaving:
    """Certificate of pro-isomorphism between two periodic tails.

    forward_maps[i] maps A at level (a*i + c1) into B at level i of its
    subsequence; backward_maps[j] maps B at level (b*j + c2) back.  The
    composites equal the corresponding bond powers at every checked
    level, re-verified after the search.
    """

    gap_forward: int
    gap_backward: int
    offset_forward: int
    offset_backward: int
    forward_maps: tuple
    backward_maps: tuple
    checked_levels: int

    def to_json(self):
        return {
            "gap_forward": self.gap_forward,
            "gap_backward": self.gap_backward,
            "offset_forward": self.offset_forward,
            "offset_backward": self.offset_backward,
            "forward": [[list(r) for r in f.matrix.data] for f in self.forward_maps],
            "backward": [[list(r) for r in g.matrix.data] for g in self.backward_maps],
            "checked_levels": self.checked_levels,
        }


@dataclass(frozen=True)
class ProIsoVerdict:
    kind: str            # isomorphic | not_isomorphic | undecided
    reason: str
    witness: Interleaving | None = None

    def to_json(self):
        out = {"kind": self.kind, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def check_level_map(a, b, tail_map, prefix_maps=()):
    """Verify that the given maps commute with the bonding maps.

    The tail template is checked symbolically: one commutation square
    determines all deeper ones for constant tails.  Raises NotCommuting.
    """
    if not isinstance(a, PeriodicTower) or not isinstance(b, PeriodicTower):
        raise TowerError("check_level_map needs eventually periodic towers")
    if a.prefix_len != b.prefix_len or len(prefix_maps) != a.prefix_len:
        raise TowerError("need one prefix map per shared prefix level")
    for i in range(a.prefix_len):
        upper = prefix_maps[i + 1] if i + 1 < a.prefix_len else tail_map
        left = b.bond_at(i).compose(upper)
        right = prefix_maps[i].compose(a.bond_at(i))
        if not left.equals(right):
            raise NotCommuting(i)
    left = b.tail_endo.compose(tail_map)
    right = tail_map.compose(a.tail_endo)
    if not left.equals(right):
        raise NotCommuting(a.prefix_len, "(tail template)")
    return True


# ---------------------------------------------------------------------------
# interleaving search


def _vec_index(i, r, c, n_rows, n_cols, offset=0):
    return offset + i * (n_rows * n_cols) + r * n_cols + c


def _chain_space(bond_tgt, bond_src_power, rel_src, rel_tgt, window):
    """Integer basis of commuting map chains f_0..f_window with
    bond_tgt * f_{i+1} = f_i * bond_src_power, modulo target relations,
    all f_i well defined on the source relations.

    Returns (basis chains, each a list of matrices).
    """
    n_t = bond_tgt.rows
    n_s = bond_src_power.cols
    per = n_t * n_s
    f_vars = per * (window + 1)
    lam_vars = rel_tgt.cols * n_s * window
    mu_vars = rel_tgt.cols * rel_src.cols * (window + 1)
    total = f_vars + lam_vars + mu_vars
    rows = []

    def frow():
        return [0] * total

    # chain squares: bond_tgt f_{i+1} - f_i P - R_t Lam_i = 0
    for i in range(window):
        for r in range(n_t):
            for c in range(n_s):
                row = frow()
                for k in range(n_t):
                    row[_vec_index(i + 1, k, c, n_t, n_s)] += bond_tgt.data[r][k]
                for k in range(n_s):
                    row[_vec_index(i, r, k, n_t, n_s)] -= bond_src_power.data[k][c]
                for k in range(rel_tgt.cols):
                    idx = f_vars + i * (rel_tgt.cols * n_s) + k * n_s + c
                    row[idx] -= rel_tgt.data[r][k]
                rows.append(row)
    # well-definedness: f_i R_s - R_t Mu_i = 0
    for i in range(window + 1):
        for r in range(n_t):
            for c in range(rel_src.cols):
                row = frow()
                for k in range(n_s):
                    row[_vec_index(i, r, k, n_t, n_s)] += rel_src.data[k][c]
                for k in range(rel_tgt.cols):
                    idx = (f_vars + lam_vars
                           + i * (rel_tgt.cols * rel_src.cols) + k * rel_src.cols + c)
                    row[idx] -= rel_tgt.data[r][k]
                rows.append(row)
    if not rows:
        sys = IntMatrix.zero(1, total)
    else:
        sys = IntMatrix.from_rows(rows)
    K = lattice_kernel(sys)
    chains = []
    for j in range(K.cols):
        v = K.column(j)
        mats = []
        for i in range(window + 1):
            m = [[v[_vec_index(i, r, c, n_t, n_s)] for c in range(n_s)]
                 for r in range(n_t)]
            mats.append(IntMatrix(n_t, n_s, m))
        chains.append(mats)
    return chains


def _enumerate_small(dim, bound):
    """Deterministic enumeration of small integer coefficient vectors,
    ordered by max-norm, then lexicographically in the digit order
    0, 1, -1, 2, -2, ..."""
    for radius in range(bound + 1):
        ordered = sorted(range(-radius, radius + 1), key=lambda x: (abs(x), -x))
        for v in product(ordered, repeat=dim):
            if max(map(abs, v), default=0) == radius:
                yield v


_COEFF_BOUND = 2
_CANDIDATE_CAP = 20000


def _candidates(dim):
    """The first `_CANDIDATE_CAP` nonzero coefficient vectors of the
    enumeration order, and whether the cap left any out."""
    vecs = tuple(islice((v for v in _enumerate_small(dim, _COEFF_BOUND) if any(v)),
                        _CANDIDATE_CAP + 1))
    return vecs[:_CANDIDATE_CAP], len(vecs) > _CANDIDATE_CAP


def find_interleaving(a, b, depth=4, truncated=None):
    """Bounded deterministic search for a pro-isomorphism certificate.

    Reindexing gaps and offsets run up to `depth`; map chains come from
    the integer solution lattice of the commutation squares; candidate
    f-coefficients are enumerated in a fixed order, and for each the
    composite conditions are solved for the g-coefficients.  The first
    pair of chains whose composites equal the bond powers exactly is
    returned.  The composites are bilinear in the two coefficient
    vectors, so the basis products and bond powers are computed once per
    gap pair (see `_CompositeSystem`); a candidate whose system is
    inconsistent modulo a prime of det(A) det(B) or of the torsion is
    rejected by its residue class (see `_search_cell`), and the others
    cost integer dot products and one exact solve.

    This is a pure search: it does not consult lim or lim1, which can
    prove an absence at every depth (see `separating_invariant`).

    Returns None (Absent) when the bounded search is exhausted.  A cell
    (ga, gb, c1, c2) with more than `_CANDIDATE_CAP` candidates is cut
    short; when `truncated` is a list, each such cell is appended to it,
    so a None answer can be told apart from an exhaustive one.
    """
    if not isinstance(a, PeriodicTower) or not isinstance(b, PeriodicTower):
        raise TowerError("find_interleaving needs eventually periodic towers")
    A = reduce_to_images(shift(a, a.prefix_len))
    B = reduce_to_images(shift(b, b.prefix_len))

    ident = _identity_certificate(A, B)
    if ident is not None:
        return ident

    TA, TB = A.tail_group, B.tail_group
    powers = _Powers(A.tail_endo.matrix, B.tail_endo.matrix)
    by_dim = {}     # chain dimension -> _candidates(dimension)
    for ga in range(1, depth + 1):
        for gb in range(1, depth + 1):
            window = 2 * max(ga, gb) + 2
            f_chains = _chain_space(B.tail_endo.matrix, powers("A", ga),
                                    TA.relations, TB.relations, window)
            if not f_chains:
                continue
            g_chains = _chain_space(A.tail_endo.matrix, powers("B", gb),
                                    TB.relations, TA.relations, window)
            if not g_chains:
                continue
            system = _CompositeSystem(A, B, ga, gb, f_chains, g_chains,
                                      window, powers)
            dim = len(f_chains)
            if dim not in by_dim:
                by_dim[dim] = _candidates(dim)
            candidates, capped = by_dim[dim]
            for c1 in range(depth + 1):
                for c2 in range(depth + 1):
                    cell = system.cell(c1, c2)
                    if cell is None:
                        continue
                    cert = _search_cell(system, c1, c2, cell, candidates)
                    if cert is not None:
                        return cert
                    if capped and truncated is not None:
                        truncated.append((ga, gb, c1, c2))
    return None


def _identity_certificate(A, B):
    if A.tail_group.generators != B.tail_group.generators:
        return None
    n = A.tail_group.generators
    ident = IntMatrix.identity(n)
    try:
        f = hom_make(A.tail_group, B.tail_group, ident)
        g = hom_make(B.tail_group, A.tail_group, ident)
    except IllDefined:
        return None
    if not A.tail_endo.matrix == B.tail_endo.matrix:
        return None
    window = 3
    fs = tuple(f for _ in range(window + 1))
    gs = tuple(g for _ in range(window + 1))
    cert = Interleaving(1, 1, 0, 0, fs, gs, window)
    return cert if _verify_certificate(A, B, cert) else None


def _search_cell(system, c1, c2, cell, candidates):
    """The first candidate of the cell that yields a verified certificate.

    A candidate x has an integer solution only if its system
    M(x) y + R lam = t is consistent modulo every prime, and M(x) mod p
    depends only on x mod p.  So consistency modulo each of the
    system's primes (see `_search_primes`) is decided once per residue
    class of x (at most p^dim classes per cell), and candidates of an
    inconsistent class are skipped.  The filter only drops candidates
    the exact solve would reject, so the first certificate is the same
    as without it; only the exact solve and `certificate` accept one.
    """
    blocks, target = cell
    rhs = target.column(0)
    consistent = {}     # (p, x mod p) -> consistency of the system mod p
    for coeffs in candidates:
        if not all(_consistent_class(consistent, blocks, rhs, p, coeffs)
                   for p in system.primes):
            continue
        rows = _rows(blocks, coeffs)
        gens = IntMatrix._new(len(rows), len(rows[0]), tuple(map(tuple, rows)))
        X = solve_columns(gens, target)
        if X is None:
            continue
        cert = system.certificate(c1, c2, coeffs, X)
        if cert is not None:
            return cert
    return None


def _consistent_class(memo, blocks, rhs, p, coeffs):
    key = (p, tuple(c % p for c in coeffs))
    if key not in memo:
        memo[key] = _solvable_mod(_rows(blocks, key[1]), rhs, p)
    return memo[key]


def _solvable_mod(rows, rhs, p):
    """Whether rows * z = rhs has a solution over F_p (Gaussian
    elimination, one row at a time, on the augmented rows)."""
    pivots = []     # (column, row scaled to 1 there and zero at earlier pivots)
    for row, t in zip(rows, rhs):
        r = [x % p for x in row]
        r.append(t % p)
        for col, prow in pivots:
            f = r[col]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, prow)]
        col = next((k for k, x in enumerate(r[:-1]) if x), None)
        if col is None:
            if r[-1]:
                return False
            continue
        inv = pow(r[col], -1, p)
        pivots.append((col, [x * inv % p for x in r]))
    return True


def _search_primes(A, B):
    """The primes of the modular rejection in `_search_cell`: those
    dividing det(A) det(B) of the two reduced tail maps (none from a
    zero product) and those dividing the torsion orders of the two tail
    groups.  Modulo a prime of the first kind the systems of unsolvable
    candidates tend to be inconsistent, while over Q, or modulo a prime
    that divides neither determinant, they rarely are; modulo a prime of
    the second kind the relation columns drop out of the system."""
    d = A.tail_endo.matrix.det() * B.tail_endo.matrix.det()
    orders = [d] + A.tail_group.torsion + B.tail_group.torsion
    return tuple(sorted({p for n in orders if n for p in prime_factors(n)}))


def _combine(chains, coeffs):
    out = []
    for i in range(len(chains[0])):
        acc = chains[0][i] * coeffs[0]
        for c, ch in zip(coeffs[1:], chains[1:]):
            acc = acc + ch[i] * c
        out.append(acc)
    return out


class _Powers:
    """Bond powers A^k and B^k of one search, each computed once."""

    def __init__(self, MA, MB):
        self.bonds = {"A": MA, "B": MB}
        self.cache = {}

    def __call__(self, side, k):
        key = (side, k)
        if key not in self.cache:
            self.cache[key] = self.bonds[side] ** k
        return self.cache[key]


class _CompositeSystem:
    """The composite conditions of one gap pair (ga, gb).

    With f = sum_k x_k f_k and g = sum_l y_l g_l, the condition
    g_j o f_psi = A^gap reads, entry (r, c) by entry,
        sum_l y_l (sum_k x_k (g_l[j] f_k[psi])[r][c]) + relations of TA
            = A^gap[r][c],
    which is linear in y for a fixed candidate x; f_j o g_phi = B^gap
    likewise.  The basis products g_l[j] f_k[psi] and f_k[j] g_l[phi]
    are computed once per (side, j, level) and the bond powers once per
    (side, gap), and every offset cell (c1, c2) and candidate x shares
    them, so a candidate's system costs one dot product per entry.
    Integer arithmetic is exact: the system equals the one built from
    the combined chains by matrix products.  `primes` are the primes of
    the modular rejection in `_search_cell`.
    """

    def __init__(self, A, B, ga, gb, f_chains, g_chains, window, powers):
        self.A, self.B = A, B
        self.ga, self.gb, self.window = ga, gb, window
        self.f_chains, self.g_chains = f_chains, g_chains
        self.powers = powers
        self.primes = _search_primes(A, B)
        self.entries = {}
        TA, TB = A.tail_group, B.tail_group
        relA, relB = TA.relations, TB.relations
        extraA = relA.cols * TA.generators
        extraB = relB.cols * TB.generators
        # relation-multiplier columns appended to each row, by (side, r, c)
        self.suffix = {}
        for side, T, rel, base in (("A", TA, relA, 0), ("B", TB, relB, extraA)):
            n = T.generators
            for r in range(n):
                for c in range(n):
                    extra = [0] * (extraA + extraB)
                    for k in range(rel.cols):
                        extra[base + k * n + c] = rel.data[r][k]
                    self.suffix[side, r, c] = extra

    def cell(self, c1, c2):
        """(blocks, target) of the offset cell (c1, c2), or None when no
        composite condition falls inside the window.

        Each block holds the rows of one composite identity, each row as
        (vectors, suffix): entry l of the row is the dot product of the
        candidate with vectors[l]; target stacks the bond-power entries.
        """
        ga, gb, window = self.ga, self.gb, self.window
        blocks, rhs = [], []
        for j in range(min(2, window) + 1):
            psi = gb * j + c2
            phi_psi = ga * psi + c1
            if psi > window:
                continue
            # g_j o f_psi = A^(phi_psi - j)
            blocks.append(self._entries("A", j, psi))
            rhs.extend(x for row in self.powers("A", phi_psi - j).data for x in row)
            phi_j = ga * j + c1
            psi_phi = gb * phi_j + c2
            if phi_j > window or psi_phi > window:
                continue
            # f_j o g_phi_j = B^(psi_phi - j)
            blocks.append(self._entries("B", j, phi_j))
            rhs.extend(x for row in self.powers("B", psi_phi - j).data for x in row)
        if not rhs:
            return None
        return blocks, IntMatrix.from_columns(len(rhs), [rhs])

    def _entries(self, side, j, level):
        key = (side, j, level)
        block = self.entries.get(key)
        if block is None:
            if side == "A":
                n = self.A.tail_group.generators
                prods = [[g[j] * f[level] for f in self.f_chains]
                         for g in self.g_chains]
            else:
                n = self.B.tail_group.generators
                prods = [[f[j] * g[level] for f in self.f_chains]
                         for g in self.g_chains]
            block = self.entries[key] = [
                (tuple(tuple(p.data[r][c] for p in per_g) for per_g in prods),
                 self.suffix[side, r, c])
                for r in range(n) for c in range(n)]
        return block

    def certificate(self, c1, c2, coeffs, X):
        """The verified certificate of a solved candidate, or None."""
        TA, TB = self.A.tail_group, self.B.tail_group
        ycoeffs = [X.data[i][0] for i in range(len(self.g_chains))]
        fs = _combine(self.f_chains, coeffs)
        gs = _combine(self.g_chains, ycoeffs)
        try:
            f_homs = tuple(hom_make(TA, TB, m) for m in fs)
            g_homs = tuple(hom_make(TB, TA, m) for m in gs)
        except IllDefined:
            return None
        cert = Interleaving(self.ga, self.gb, c1, c2, f_homs, g_homs,
                            min(2, self.window))
        return cert if _verify_certificate(self.A, self.B, cert) else None


def _rows(blocks, coeffs):
    """The rows of a cell's composite system for the f-coefficients."""
    return [[sum(map(mul, coeffs, v)) for v in vectors] + suffix
            for block in blocks for vectors, suffix in block]


def _verify_certificate(A, B, cert):
    """Exact post-search re-verification of all composite identities."""
    MA, MB = A.tail_endo, B.tail_endo
    TA, TB = A.tail_group, B.tail_group
    ga, gb = cert.gap_forward, cert.gap_backward
    c1, c2 = cert.offset_forward, cert.offset_backward
    window = len(cert.forward_maps) - 1
    for j in range(cert.checked_levels + 1):
        psi = gb * j + c2
        phi_psi = ga * psi + c1
        if psi > window:
            return False
        comp = cert.backward_maps[j].compose(cert.forward_maps[psi])
        want = hom_make(TA, TA, MA.matrix ** (phi_psi - j))
        if not comp.equals(want):
            return False
        phi_j = ga * j + c1
        psi_phi = gb * phi_j + c2
        if phi_j > window:
            return False
        comp = cert.forward_maps[j].compose(cert.backward_maps[phi_j])
        want = hom_make(TB, TB, MB.matrix ** (psi_phi - j))
        if not comp.equals(want):
            return False
    # the chains must also commute with the bonds
    for i in range(window):
        left = MB.compose(cert.forward_maps[i + 1])
        right = cert.forward_maps[i].compose(hom_make(TA, TA, MA.matrix ** ga))
        if not left.equals(right):
            return False
        left = MA.compose(cert.backward_maps[i + 1])
        right = cert.backward_maps[i].compose(hom_make(TB, TB, MB.matrix ** gb))
        if not left.equals(right):
            return False
    return True


# ---------------------------------------------------------------------------
# pro-isomorphism decision


def separating_invariant(a, b):
    """The reason lim or lim1 tells the two towers apart, or None.

    lim and lim1 are functors on the pro-category, so pro-isomorphic
    towers have isomorphic lim and lim1; a `distinct` comparison of
    either proves that no interleaving exists at any depth.
    """
    la, lb = limit(a), limit(b)
    da, db = derived_limit(a), derived_limit(b)
    if compare_structured(la, lb) == "distinct":
        return "lim invariants differ: %s vs %s" % (la.render(), lb.render())
    if compare_structured(da, db) == "distinct":
        return "lim1 invariants differ: %s vs %s" % (da.render(), db.render())
    return None


def compare_invariants(a, b, level_map=None, depth=4):
    """Decide pro-isomorphism through lim/lim1 invariants and certificates.

    NotIsomorphic requires a genuinely separating invariant; Isomorphic
    requires an interleaving certificate (or a supplied commuting level
    map together with matching invariants); everything else is Undecided.
    """
    reason = separating_invariant(a, b)
    if reason is not None:
        return ProIsoVerdict("not_isomorphic", reason)
    cert = find_interleaving(a, b, depth)
    if cert is not None:
        return ProIsoVerdict("isomorphic", "interleaving certificate found", cert)
    matching = all(compare_structured(inv(a), inv(b)) == "equal"
                   for inv in (limit, derived_limit))
    if level_map is not None:
        check_level_map(a, b, level_map)
        if matching:
            return ProIsoVerdict(
                "isomorphic",
                "level map with matching lim and lim1 descriptors")
    if matching:
        return ProIsoVerdict(
            "undecided",
            "lim and lim1 descriptors match but no connecting map was found; "
            "the bijection criterion needs a morphism")
    return ProIsoVerdict("undecided", "invariants neither separate nor match")
