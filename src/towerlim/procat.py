"""Pro-category machinery: interleavings and pro-isomorphism.

Two towers are pro-isomorphic when, after passing to subsequences, there
are maps in both directions whose composites equal the bonding maps.  For
towers of discrete groups "homotopic" degenerates to equal, so these are
exact integer-linear conditions.

After `reduce_to_images` both tail maps A and B are injective.  A map
chain f_0, f_1, ... with B f_(i+1) = f_i A^g is then fixed by f_0, and
each composite g_j o f_(gb*j + c2) obeys the same recurrence as the bond
power A^((ga*gb - 1) j + ga*c2 + c1) it must equal, so level 0 decides
every level.  A certificate is therefore a pair of level-0 maps whose
chains extend to every level and whose two level-0 composites are the
right bond powers.  The level-0 maps whose chains extend form an exact
lattice (`chain_basis`): every map of the torsion into the target's
torsion, plus the chain lattice `chain_lattice` of the free blocks, since
B is bijective on the finite torsion and so only the free block can stop
a chain.

A verdict of Isomorphic always carries such a certificate; matching limit
invariants without a connecting map are deliberately reported Undecided,
since the bijection criterion presupposes a morphism inducing them.
"""

from functools import cached_property
from itertools import count, islice, product
from math import gcd
from operator import mul

from .exactlat import (
    Homomorphism,
    IllDefined,
    IntMatrix,
    Record,
    charpoly,
    diagonal_orders,
    hom_make,
    kernel as lattice_kernel,
    lattice_canon,
    lattice_contains,
    solve_columns,
)
from .limits import _analysis, derived_limit, limit
from .poly import factor_kernel, poly_of_matrix, prime_factors
from .structured import compare_structured, corank_difference
from .towers import PeriodicTower, TowerError, solve_next_map


class Interleaving(Record):
    """Certificate of pro-isomorphism between two periodic tails.

    forward_maps[i] maps A at level (gap_forward*i + offset_forward) into
    B at level i; backward_maps[j] maps B at level
    (gap_backward*j + offset_backward) back to A at level j.  Both hold
    levels 0..L, L the larger offset, and each chain extends to every
    level.  The tail maps are injective, so the two level-0 composites
    g_0 f_(offset_backward) and f_0 g_(offset_forward) decide every level
    (`_verify_certificate`), and `checked_levels` is 0.
    """

    _fields = ("gap_forward", "gap_backward", "offset_forward", "offset_backward",
               "forward_maps", "backward_maps", "checked_levels")

    def __init__(self, gap_forward, gap_backward, offset_forward, offset_backward,
                 forward_maps, backward_maps, checked_levels):
        object.__setattr__(self, "gap_forward", gap_forward)
        object.__setattr__(self, "gap_backward", gap_backward)
        object.__setattr__(self, "offset_forward", offset_forward)
        object.__setattr__(self, "offset_backward", offset_backward)
        object.__setattr__(self, "forward_maps", forward_maps)
        object.__setattr__(self, "backward_maps", backward_maps)
        object.__setattr__(self, "checked_levels", checked_levels)

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


class ProIsoVerdict(Record):
    """kind is isomorphic, not_isomorphic or undecided; an isomorphic
    verdict may carry its Interleaving as witness."""

    _fields = ("kind", "reason", "witness")

    def __init__(self, kind, reason, witness=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)

    def to_json(self):
        out = {"kind": self.kind, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


# ---------------------------------------------------------------------------
# map chains


def chain_lattice(power, bond):
    """Basis of the chain lattice Lambda = {f_0 : T^i f_0 is integral for
    every i}, T f = B^-1 f P, between free tails: P = A^g is the gap power
    of the source map, B the injective target map.  Each basis element is
    a (rank B) x (rank A) matrix, and the basis is in canonical (HNF) form.

    Lambda is the largest T-stable lattice in Hom = Z^(mn).  T restricted
    to it has an integral characteristic polynomial, so Lambda lies in
    W = ker h(T), h the product, with multiplicity, of the irreducible
    factors of chi_T whose roots are algebraic integers.  With D = det B,
    T' = D T (f -> adj(B) f P) is integral, and a monic irreducible factor
    h'(y) of chi_T' of degree k is D^k h(y/D) for such an h iff D^(k-j)
    divides its y^j coefficient; ker h(T) = ker h'(T').  On W, h(T) = 0
    with h monic integral of degree dim W, so by Cayley-Hamilton T^i f is
    integral for every i once it is for i < dim W, and W meet Z^(mn) is
    cut down to those f.  W is the `poly.factor_kernel` of T' with
    that divisibility test as its factor filter.
    """
    m, n = bond.rows, power.rows
    size = m * n
    if size == 0:
        return []
    D = bond.det()
    # adj(B) = D B^-1 from chi_B by Cayley-Hamilton
    adj = poly_of_matrix(charpoly(bond)[1:], bond) * (-1) ** (m + 1)
    # T' on row-major f: entry ((r, c), (k, l)) is adj[r][k] P[l][c]
    Tp = IntMatrix._new(size, size, tuple(
        tuple(adj.data[r][k] * power.data[l][c] for k in range(m) for l in range(n))
        for r in range(m) for c in range(n)))
    K = factor_kernel(Tp, lambda f: all(c % D ** (len(f) - 1 - j) == 0
                                        for j, c in enumerate(f)))
    dim = K.cols
    lattice = lattice_canon(K)
    TK = Tp * K
    for _ in range(dim - 1):
        # f = K x with T f = TK x / D in the lattice so far
        X = lattice_kernel(TK.hstack(lattice * -D))
        cut = lattice_canon(K * X.submatrix(range(dim), range(X.cols)))
        if cut == lattice:
            break
        lattice = cut
    return [IntMatrix._new(m, n, tuple(v[r * n:(r + 1) * n] for r in range(m)))
            for v in map(tuple, zip(*lattice.data))]


def chain_extends(maps, bond, power):
    """Whether the chain maps[0], maps[1], ... of homomorphisms with
    bond o f_(i+1) = f_i o power extends to every level.

    `bond` is the injective tail map of the target, so the squares fix
    each next map (`solve_next_map`).  The chain extends iff some f_d is
    an integer combination sum a_i f_i of f_0 ... f_(d-1) as maps: then
    f_(k+d) = sum a_i f_(k+i) continues it forever, and conversely the
    spans of f_0 ... f_k rise in the finitely generated Hom group, so they
    stop rising.  The loop ends either way, since a chain that stops
    fails to have a next map.  The stored maps must satisfy the squares.
    """
    source, target = maps[0].source, maps[0].target
    power_hom = Homomorphism(source, source, power)
    for f, nxt in zip(maps, maps[1:]):
        if not bond.compose(nxt).equals(f.compose(power_hom)):
            return False
    m, n, rel = target.generators, source.generators, target.relations
    # a map is fixed modulo its columns' relations: rel[:, k] in column c
    span = [[rel.data[r][k] if cc == c else 0 for r in range(m) for cc in range(n)]
            for k in range(rel.cols) for c in range(n)]
    chain = [f.matrix for f in maps]
    for i in count():
        if i == len(chain):
            nxt = solve_next_map(chain[-1], bond.matrix, power, rel)
            if nxt is None:
                return False
            chain.append(nxt)
        v = [x for row in chain[i].data for x in row]
        if lattice_contains(IntMatrix.from_columns(m * n, span), v):
            return True
        span.append(v)


def chain_basis(source, target, power, bond):
    """Basis of the level-0 maps f_0 whose chains B f_(i+1) = f_i P
    extend to every level, between tail groups presented on
    invariant-factor coordinates (as `reduce_to_images` leaves them): P is
    a power of the source map, B the injective target map.  The maps are
    matrices modulo the target relations.

    A map sends torsion to torsion, so P, B and every f_i are block
    triangular with a zero block from the torsion coordinates into the
    free ones.  B is injective, hence bijective on the finite torsion F of
    the target, so f_i P lies in the image of B iff its free block does:
    the chain extends iff its free block f_ff has a free chain, that is,
    lies in the `chain_lattice` of the free blocks, while the torsion rows
    are free to take any homomorphism into F.  The basis is the free
    lattice embedded, then for each torsion row r (order d_r) and each
    column c the unit e_rc, times d_r / gcd(d_r, d_c) when c is a torsion
    coordinate of order d_c.  Between free tails it is `chain_lattice`.
    """
    m, n = target.generators, source.generators
    rows, cols = diagonal_orders(target), diagonal_orders(source)
    free_r = [r for r in range(m) if not rows[r]]
    free_c = [c for c in range(n) if not cols[c]]

    def matrix(entries):
        data = [[0] * n for _ in range(m)]
        for r, c, x in entries:
            data[r][c] = x
        return IntMatrix._new(m, n, tuple(map(tuple, data)))

    basis = [matrix((r, c, f.data[i][j]) for i, r in enumerate(free_r)
                    for j, c in enumerate(free_c))
             for f in chain_lattice(power.submatrix(free_c, free_c),
                                    bond.submatrix(free_r, free_r))]
    for r in range(m):
        if rows[r]:
            basis += [matrix([(r, c, rows[r] // gcd(rows[r], cols[c]))]) for c in range(n)]
    return basis


def _chain_basis(S, T, power, depth):
    """Levels 0..depth of the chains of the `chain_basis` maps from tail S
    to tail T at the gap of `power`, a power of S's map; each extends to
    every level."""
    bond, rel = T.tail_endo.matrix, T.tail_group.relations
    chains = []
    for f in chain_basis(S.tail_group, T.tail_group, power, bond):
        chain = [f]
        for _ in range(depth):
            chain.append(solve_next_map(chain[-1], bond, power, rel))
        chains.append(chain)
    return chains


# ---------------------------------------------------------------------------
# interleaving search


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

    Reindexing gaps and offsets run up to `depth`.  The forward chains of
    each gap come from `_chain_basis`; candidate f-coefficients are
    enumerated in a fixed order, and for each the two level-0 composite
    conditions are solved for the g-coefficients.  The first pair of
    chains that passes `_verify_certificate` is returned.  The composites
    are bilinear in the two coefficient vectors, so the basis products
    and bond powers are computed once per gap pair (see
    `_CompositeSystem`); a candidate whose system is inconsistent modulo
    a prime of det(A) det(B) or of the torsion is rejected by its residue
    class (see `_search_cell`), and the others cost integer dot products
    and one exact solve.  The bond powers, the primes and the relation
    columns are shared by every gap pair (`_SearchTables`).

    This is a pure search: it does not consult lim or lim1, which can
    prove an absence at every depth (see `separating_invariant`).

    Returns None (Absent) when the bounded search is exhausted.  A cell
    (ga, gb, c1, c2) with more than `_CANDIDATE_CAP` candidates is cut
    short; when `truncated` is a list, each such cell is appended to it,
    so a None answer can be told apart from an exhaustive one.
    """
    if not isinstance(a, PeriodicTower) or not isinstance(b, PeriodicTower):
        raise TowerError("find_interleaving needs eventually periodic towers")
    A, B = _analysis(a).reduced_tower, _analysis(b).reduced_tower

    ident = _identity_certificate(A, B)
    if ident is not None:
        return ident

    tables = _SearchTables(A, B)
    backward = {}   # gap -> backward chain basis
    by_dim = {}     # chain dimension -> _candidates(dimension)
    for ga in range(1, depth + 1):
        f_chains = _chain_basis(A, B, tables.power("A", ga), depth)
        if not f_chains:
            continue
        for gb in range(1, depth + 1):
            if gb not in backward:
                backward[gb] = _chain_basis(B, A, tables.power("B", gb), depth)
            g_chains = backward[gb]
            if not g_chains:
                continue
            system = _CompositeSystem(tables, ga, gb, f_chains, g_chains)
            dim = len(f_chains)
            if dim not in by_dim:
                by_dim[dim] = _candidates(dim)
            candidates, capped = by_dim[dim]
            for c1 in range(depth + 1):
                for c2 in range(depth + 1):
                    cert = _search_cell(system, c1, c2, system.cell(c1, c2), candidates)
                    if cert is not None:
                        return cert
                    if capped and truncated is not None:
                        truncated.append((ga, gb, c1, c2))
    return None


def _identity_certificate(A, B):
    if A.tail_group.generators != B.tail_group.generators:
        return None
    ident = IntMatrix.identity(A.tail_group.generators)
    try:
        f = hom_make(A.tail_group, B.tail_group, ident)
        g = hom_make(B.tail_group, A.tail_group, ident)
    except IllDefined:
        return None
    if not A.tail_endo.matrix == B.tail_endo.matrix:
        return None
    cert = Interleaving(1, 1, 0, 0, (f,), (g,), 0)
    return cert if _verify_certificate(A, B, cert) else None


def _search_cell(system, c1, c2, cell, candidates):
    """The first candidate of the cell that yields a verified certificate.

    A candidate x has an integer solution only if its system
    M(x) y + R lam = t is consistent modulo every prime, and M(x) mod p
    depends only on x mod p.  So consistency modulo each of the
    search's primes (see `_search_primes`) is decided once per residue
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
                   for p in system.tables.primes):
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


def _combine(chains, coeffs, levels):
    """Levels 0..levels-1 of the chain sum_k coeffs[k] chains[k]."""
    out = []
    for i in range(levels):
        acc = chains[0][i] * coeffs[0]
        for c, ch in zip(coeffs[1:], chains[1:]):
            acc = acc + ch[i] * c
        out.append(acc)
    return out


class _SearchTables:
    """What every gap pair of one search between the reduced tails A and
    B shares: the bond powers A^k and B^k, each computed once; the primes
    of the modular rejection in `_search_cell` (`_search_primes`); and
    `suffix`, the relation-multiplier columns appended to each row of a
    composite system, by (side, r, c).  The primes and the suffix table
    are built on first use, so a search that builds no composite system
    computes neither."""

    def __init__(self, A, B):
        self.A, self.B = A, B
        self.bonds = {"A": A.tail_endo.matrix, "B": B.tail_endo.matrix}
        self.powers = {}

    @cached_property
    def primes(self):
        return _search_primes(self.A, self.B)

    @cached_property
    def suffix(self):
        TA, TB = self.A.tail_group, self.B.tail_group
        relA, relB = TA.relations, TB.relations
        extraA = relA.cols * TA.generators
        extraB = relB.cols * TB.generators
        suffix = {}
        for side, T, rel, base in (("A", TA, relA, 0), ("B", TB, relB, extraA)):
            n = T.generators
            for r in range(n):
                for c in range(n):
                    extra = [0] * (extraA + extraB)
                    for k in range(rel.cols):
                        extra[base + k * n + c] = rel.data[r][k]
                    suffix[side, r, c] = extra
        return suffix

    def power(self, side, k):
        key = (side, k)
        if key not in self.powers:
            self.powers[key] = self.bonds[side] ** k
        return self.powers[key]


class _CompositeSystem:
    """The level-0 composite conditions of one gap pair (ga, gb).

    With f = sum_k x_k f_k and g = sum_l y_l g_l, the condition
    g_0 o f_c2 = A^(ga*c2 + c1) reads, entry (r, c) by entry,
        sum_l y_l (sum_k x_k (g_l[0] f_k[c2])[r][c]) + relations of TA
            = A^(ga*c2 + c1)[r][c],
    which is linear in y for a fixed candidate x; f_0 o g_c1 =
    B^(gb*c1 + c2) likewise.  The basis products g_l[0] f_k[level] and
    f_k[0] g_l[level] are computed once per (side, level), and every
    offset cell (c1, c2) and candidate x shares them and the search's
    `_SearchTables`, so a candidate's system costs one dot product per
    entry.  Integer arithmetic is exact: the system equals the one built
    from the combined chains by matrix products.
    """

    def __init__(self, tables, ga, gb, f_chains, g_chains):
        self.tables = tables
        self.A, self.B = tables.A, tables.B
        self.ga, self.gb = ga, gb
        self.f_chains, self.g_chains = f_chains, g_chains
        self.entries = {}

    def cell(self, c1, c2):
        """(blocks, target) of the offset cell (c1, c2).

        The two blocks hold the rows of g_0 o f_c2 = A^(ga*c2 + c1) and
        f_0 o g_c1 = B^(gb*c1 + c2), each row as (vectors, suffix): entry
        l of the row is the dot product of the candidate with vectors[l];
        target stacks the bond-power entries.
        """
        blocks, rhs = [], []
        for side, level, exponent in (("A", c2, self.ga * c2 + c1),
                                      ("B", c1, self.gb * c1 + c2)):
            blocks.append(self._entries(side, level))
            rhs.extend(x for row in self.tables.power(side, exponent).data for x in row)
        return blocks, IntMatrix.from_columns(len(rhs), [rhs])

    def _entries(self, side, level):
        key = (side, level)
        block = self.entries.get(key)
        if block is None:
            if side == "A":
                n = self.A.tail_group.generators
                prods = [[g[0] * f[level] for f in self.f_chains]
                         for g in self.g_chains]
            else:
                n = self.B.tail_group.generators
                prods = [[f[0] * g[level] for f in self.f_chains]
                         for g in self.g_chains]
            block = self.entries[key] = [
                (tuple(tuple(p.data[r][c] for p in per_g) for per_g in prods),
                 self.tables.suffix[side, r, c])
                for r in range(n) for c in range(n)]
        return block

    def certificate(self, c1, c2, coeffs, X):
        """The verified certificate of a solved candidate, or None."""
        TA, TB = self.A.tail_group, self.B.tail_group
        ycoeffs = [X.data[i][0] for i in range(len(self.g_chains))]
        levels = max(c1, c2) + 1
        try:
            f_homs = tuple(hom_make(TA, TB, m)
                           for m in _combine(self.f_chains, coeffs, levels))
            g_homs = tuple(hom_make(TB, TA, m)
                           for m in _combine(self.g_chains, ycoeffs, levels))
        except IllDefined:
            return None
        cert = Interleaving(self.ga, self.gb, c1, c2, f_homs, g_homs, 0)
        return cert if _verify_certificate(self.A, self.B, cert) else None


def _rows(blocks, coeffs):
    """The rows of a cell's composite system for the f-coefficients."""
    return [[sum(map(mul, coeffs, v)) for v in vectors] + suffix
            for block in blocks for vectors, suffix in block]


def _verify_certificate(A, B, cert):
    """Exact post-search check of a certificate on injective tails.

    The two level-0 composites must equal the bond powers, and both
    chains must extend to every level (`chain_extends`).  The composite
    x_j = g_j o f_(gb*j + c2) and its target A^((ga*gb - 1) j + ga*c2 + c1)
    both satisfy A x_(j+1) = x_j A^(ga*gb); A is injective, so they agree
    at every level once they agree at level 0.  Likewise for f_j o g_phi.
    """
    MA, MB = A.tail_endo, B.tail_endo
    TA, TB = A.tail_group, B.tail_group
    ga, gb = cert.gap_forward, cert.gap_backward
    c1, c2 = cert.offset_forward, cert.offset_backward
    fs, gs = cert.forward_maps, cert.backward_maps
    if len(fs) != max(c1, c2) + 1 or len(gs) != len(fs):
        return False
    if not gs[0].compose(fs[c2]).equals(hom_make(TA, TA, MA.matrix ** (ga * c2 + c1))):
        return False
    if not fs[0].compose(gs[c1]).equals(hom_make(TB, TB, MB.matrix ** (gb * c1 + c2))):
        return False
    return (chain_extends(fs, MB, MA.matrix ** ga)
            and chain_extends(gs, MA, MB.matrix ** gb))


# ---------------------------------------------------------------------------
# pro-isomorphism decision


def _differ(name, x, y):
    """The reason text for two `distinct` invariants.  Two completion
    quotients can render alike; the reason then names the first prime
    whose coranks differ."""
    rx, ry = x.render(), y.render()
    reason = "%s invariants differ: %s vs %s" % (name, rx, ry)
    diff = corank_difference(x, y) if rx == ry else None
    if diff is not None:
        reason += " (c_%d = %d vs %d)" % diff
    return reason


def separating_invariant(a, b):
    """The reason lim or lim1 tells the two towers apart, or None.

    lim and lim1 are functors on the pro-category, so pro-isomorphic
    towers have isomorphic lim and lim1; a `distinct` comparison of
    either proves that no interleaving exists at any depth.
    """
    for name, inv in (("lim", limit), ("lim1", derived_limit)):
        x, y = inv(a), inv(b)
        if compare_structured(x, y) == "distinct":
            return _differ(name, x, y)
    return None


def compare_invariants(a, b, depth=4):
    """Decide pro-isomorphism through lim/lim1 invariants and certificates.

    NotIsomorphic requires a genuinely separating invariant; Isomorphic
    requires an interleaving certificate; everything else is Undecided.
    """
    reason = separating_invariant(a, b)
    if reason is not None:
        return ProIsoVerdict("not_isomorphic", reason)
    cert = find_interleaving(a, b, depth)
    if cert is not None:
        return ProIsoVerdict("isomorphic", "interleaving certificate found", cert)
    if all(compare_structured(inv(a), inv(b)) == "equal"
           for inv in (limit, derived_limit)):
        return ProIsoVerdict(
            "undecided",
            "lim and lim1 descriptors match but no connecting map was found; "
            "the bijection criterion needs a morphism")
    return ProIsoVerdict("undecided", "invariants neither separate nor match")
