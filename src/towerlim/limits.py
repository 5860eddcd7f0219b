"""Exact limits and derived limits of towers, with the Mittag-Leffler
condition family and the six-term exact sequence.

For an eventually periodic tower the computation runs entirely on the
tail pair (T, A):

* the kernel chain of A is quotiented out (a pro-isomorphism), making A
  injective;
* the torsion part of the result is finite with A bijective on it, so it
  contributes itself to lim and nothing to lim1;
* on the free part, the characteristic polynomial of A is split into the
  product u of its irreducible factors with constant term +-1 (all roots
  algebraic units) and the complementary factor v.  A is bijective on the
  sublattice N = ker u(A), which is exactly the sublattice of thread
  values, so lim = torsion (+) N.  The quotient lattice carries the rest:
  lim1 = (lim L'/A'^k L') / L' on the complement, the quotient of a
  completion, which is uncountable whenever it is nonzero.

The Mittag-Leffler verdict reads the same analysis: the consecutive
image index [A^k T : A^(k+1) T] is [Z^n : A Z^n + K_k] for the kernel
chain K_0 ... K_l, and from l on it is |det| of the free block, so ML
holds exactly when that determinant is +-1.  The q-coranks of lim1 are
read off the characteristic polynomial of the quotient block modulo q
(see structured.completion_quotient); nothing is sampled.

Every unit-part extraction is certified exactly: A is bijective on N,
and when d = |det A| is 1 the image chain of the injective A stabilizes
at once on all of Z^n, so N must be all of Z^n.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import TooLarge
from .exactlat import (
    FgAbGroup,
    IntMatrix,
    charpoly,
    diagonal_group,
    free_group,
    hom_make,
    hom_parts,
    identity_hom,
    kernel as lattice_kernel,
    lattice_canon,
    lattice_index,
    snf,
    solve_columns,
    subquotient,
    unimodular_inverse,
)
from .structured import StructuredGroup
from .towers import (
    FiniteTower,
    PeriodicTower,
    StreamedTower,
    TailReduction,
    TowerError,
    _minimize_with_transform,
    tail_reduction,
)


class InconsistentSES(Exception):
    """A representable joint of a verified SES failed exactness; this
    signals an implementation bug and is surfaced loudly."""


class InternalInconsistency(Exception):
    """The two independent limit computations disagreed."""


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists, ascending, always monic input)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divmod(a, b):
    """Exact division of integer polynomials, b monic up to sign."""
    a = list(a)
    lead = b[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must be monic up to sign")
    q = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * lead
        q[i] = f
        if f:
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


# ---------------------------------------------------------------------------
# Zassenhaus factoring of a monic squarefree residual: factors modulo a
# small prime, Hensel lifting, and recombination of the lifted factors,
# each candidate confirmed by exact division over Z.
# Polynomials modulo m are ascending coefficient lists without trailing
# zeros (the zero polynomial is []), coefficients in [0, m).

# Good primes tried before the one with the fewest modular factors is kept.
_GOOD_PRIMES = 5
# Primes tried for a squarefree test before the gcd over Z: a polynomial
# with a repeated factor passes it modulo no prime.
_SQUAREFREE_PRIMES = 3


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod(a, m):
    return _trim([c % m for c in a])


def _add_mod(a, b, m, sign=1):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    return _mod(out, m)


def _sub_mod(a, b, m):
    return _add_mod(a, b, m, -1)


def _mul_mod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _mod(out, m)


def _divmod_mod(a, b, m):
    """Quotient and remainder modulo m; lc(b) must be invertible mod m."""
    r = [c % m for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1 - db, -1, -1):
        c = r[i + db] * inv % m
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                r[i + j] = (r[i + j] - c * bj) % m
    return _trim(q), _trim(r[:db])


def _gcd_mod(a, b, p):
    """Monic gcd over GF(p)."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcdex_mod(a, b, p):
    """(s, t) with s a + t b = 1 over GF(p), for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)    # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod_mod(a, e, f, p):
    """a^e modulo (f, p)."""
    out, base = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
    return out


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _distinct_degree(f, p):
    """(g, d) pairs: g is the product of the degree-d irreducible factors
    of the monic squarefree f over GF(p)."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic degree-d irreducible factors of g over GF(p), p odd
    (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _powmod_mod(a, e, g, p)
        c = _gcd_mod(g, _sub_mod(b, [1], p), p)
        if 1 < len(c) < len(g):
            break
    return (_equal_degree(c, d, p, rng)
            + _equal_degree(_divmod_mod(g, c, p)[0], d, p, rng))


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _modular_factors(f):
    """A prime p with f mod p squarefree, and the monic irreducible
    factors of f mod p; of the first _GOOD_PRIMES such primes, the one
    with the fewest factors."""
    best = None
    good = 0
    for p in _odd_primes():
        fp = _mod(f, p)
        if len(_gcd_mod(fp, _mod(_derivative(f), p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        good += 1
        if count == 1 or good == _GOOD_PRIMES:
            break
    _, p, ddf = best
    rng = random.Random(p)
    return p, [u for g, d in ddf for u in _equal_degree(g, d, p, rng)]


def _hensel_pair(f, g, h, p, steps):
    """Monic lifts (G, H) of f = g h mod p to f = G H mod p^(2^steps)
    (quadratic Hensel lifting, von zur Gathen & Gerhard Alg. 15.10)."""
    s, t = _gcdex_mod(g, h, p)
    m = p
    for _ in range(steps):
        m *= m
        e = _sub_mod(f, _mul_mod(g, h, m), m)
        q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
        g = _add_mod(g, _add_mod(_mul_mod(t, e, m), _mul_mod(q, g, m), m), m)
        h = _add_mod(h, r, m)
        b = _sub_mod(_add_mod(_mul_mod(s, g, m), _mul_mod(t, h, m), m), [1], m)
        c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
        s = _sub_mod(s, d, m)
        t = _sub_mod(t, _add_mod(_mul_mod(t, b, m), _mul_mod(c, g, m), m), m)
    return g, h


def _hensel_lift(f, us, p, steps):
    """Lifts of the factors us of f mod p to factors of f mod p^(2^steps)."""
    if len(us) == 1:
        return [_mod(f, p ** (1 << steps))]
    k = len(us) // 2
    g, h = [1], [1]
    for u in us[:k]:
        g = _mul_mod(g, u, p)
    for u in us[k:]:
        h = _mul_mod(h, u, p)
    G, H = _hensel_pair(f, g, h, p, steps)
    return _hensel_lift(G, us[:k], p, steps) + _hensel_lift(H, us[k:], p, steps)


def _symmetric(a, m):
    half = m // 2
    return [c - m if c > half else c for c in a]


def _factor_squarefree(f):
    """Monic irreducible factors over Z of a monic squarefree f."""
    p, us = _modular_factors(f)
    if len(us) == 1:
        return [f]
    # Landau-Mignotte: a factor of degree d has coefficients of absolute
    # value at most 2^d |f|_2 <= B, so residues modulo p^(2^steps) > 2B
    # in the symmetric system are the coefficients themselves
    bound = (math.isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
    steps = 0
    while p ** (1 << steps) <= 2 * bound:
        steps += 1
    m = p ** (1 << steps)
    lifted = _hensel_lift(f, us, p, steps)
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            # the constant term of a factor divides f(0)
            const = 1
            for i in subset:
                const = const * lifted[i][0] % m
            const = _symmetric([const], m)[0]
            if const == 0 or f[0] % const:
                continue
            g = [1]
            for i in subset:
                g = _mul_mod(g, lifted[i], m)
            g = _symmetric(g, m)
            q, r = poly_divmod(f, g)
            if any(r):
                continue
            found.append(g)
            f = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    found.append(f)
    return found


def _primitive(a):
    c = 0
    for x in a:
        c = math.gcd(c, x)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _gcd_primitive(a, b):
    """The primitive gcd over Z with positive leading coefficient, by a
    primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r, lb, db = list(a), b[-1], len(b) - 1
        while r and len(r) - 1 >= db:
            lr, k = r[-1], len(r) - 1 - db
            r = [x * lb for x in r]
            for j, bj in enumerate(b):
                r[k + j] -= lr * bj
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _divide_out(h, f):
    """(h / f^m, m) for the largest m with f^m dividing h exactly over Z."""
    mult = 0
    while True:
        q, r = poly_divmod(h, f)
        if any(r):
            return h, mult
        h, mult = q, mult + 1


def _factor_residual(h, s):
    """(factor, multiplicity) pairs of a monic h over Z with no integer
    root, given its squarefree part s."""
    # with no linear factor, a squarefree part of degree <= 3 is irreducible
    fs = [s] if len(s) <= 4 else _factor_squarefree(s)
    if s == h:
        return [(f, 1) for f in fs]
    out = []
    for f in fs:
        h, mult = _divide_out(h, f)
        out.append((f, mult))
    return out


# ---------------------------------------------------------------------------
# integer roots by p-adic expansion (Loos 1983): the roots modulo a good
# prime, Newton-lifted past a root bound; no step depends on the
# factorization of f(0) or grows with the bound beyond its bit length


def _eval_mod(a, x, m):
    v = 0
    for c in reversed(a):
        v = (v * x + c) % m
    return v


def _squarefree_prime(f, tries=None):
    """The first odd prime p with the monic f squarefree modulo p, among
    the first `tries` odd primes (all when None); None when there is none."""
    df = _derivative(f)
    for p in itertools.islice(_odd_primes(), tries):
        if len(_gcd_mod(_mod(f, p), _mod(df, p), p)) == 1:
            return p
    return None


def _root_candidates(s, p):
    """Integers among which lie all integer roots of the monic squarefree
    s of degree >= 1: the roots of s modulo p, a prime with s mod p
    squarefree, each Newton-lifted modulo p^(2^k) beyond twice a root
    bound and read in the symmetric system."""
    n = len(s) - 1
    ds = _derivative(s)
    sp = _mod(s, p)
    roots = [x for x in range(p) if _eval_mod(sp, x, p) == 0]
    if not roots:
        return []
    # Fujiwara: a root has |z| <= 2 max_k |a_(n-k)|^(1/k) <= 2^(e+1)
    e = max(-(-abs(c).bit_length() // (n - j)) for j, c in enumerate(s[:-1]))
    m = p
    while m <= 4 << e:
        # each root is simple modulo p, so s'(r) is a unit modulo p^k
        m *= m
        roots = [(r - _eval_mod(s, r, m) * pow(_eval_mod(ds, r, m), -1, m)) % m
                 for r in roots]
    return _symmetric(roots, m)


def factor_monic(coeffs):
    """Irreducible monic factors with multiplicity, as (factor, mult) pairs
    sorted by coefficient list.

    >>> factor_monic([0, 24, -4, 2, -7, 0, 1])    # x (x-2)^2 (x+3) (x^2+x+2)
    [([-2, 1], 2), ([0, 1], 1), ([2, 1, 1], 1), ([3, 1], 1)]

    The pipeline has four steps:

    1. Powers of x are split off; a residual h of degree 1 is irreducible.
    2. The integer roots of h are those of its squarefree part s: h
       itself when h mod p is squarefree for one of a few small odd
       primes p, else h / gcd(h, h') over Z.  The roots of s modulo a
       prime p with s mod p squarefree are Newton-lifted modulo p^(2^k)
       beyond twice Fujiwara's root bound; a lift, read in the symmetric
       system, is accepted only when x - r divides h exactly over Z, and
       repeated exact division counts its multiplicity.
    3. The residual now has no integer root, so if its squarefree part
       has degree <= 3 that part is irreducible.
    4. A larger squarefree part is factored by Zassenhaus's method: modulo
       a good prime, of several tried the one with the fewest factors
       (Cantor-Zassenhaus, seeded per prime), the factors are
       Hensel-lifted modulo p^k beyond twice a Landau-Mignotte bound, and
       subsets of them are recombined in increasing size; a candidate is
       accepted only when it divides exactly over Z, and each
       multiplicity is counted by exact division of the residual.
    """
    work = list(coeffs)
    factors = []
    k = 0
    while work[0] == 0 and len(work) > 1:
        work = work[1:]
        k += 1
    if k:
        factors.append(([0, 1], k))
    if len(work) == 2:
        factors.append((work, 1))
    elif len(work) > 2:
        s = work
        p = _squarefree_prime(s, _SQUAREFREE_PRIMES)
        if p is None:
            g = _gcd_primitive(work, _derivative(work))
            s = work if len(g) == 1 else poly_divmod(work, g)[0]
            p = _squarefree_prime(s)
        for r in _root_candidates(s, p):
            if r == 0 or s[0] % r:
                continue
            work, mult = _divide_out(work, [-r, 1])
            if mult:
                factors.append(([-r, 1], mult))
                s = poly_divmod(s, [-r, 1])[0]
        if len(work) > 1:
            factors.extend(_factor_residual(work, s))
    return sorted(factors)


def poly_of_matrix(coeffs, mat):
    n = mat.rows
    acc = IntMatrix.zero(n, n)
    power = IntMatrix.identity(n)
    for c in coeffs:
        if c:
            acc = acc + power * c
        power = power * mat
    return acc


def factor_kernel(mat, keep):
    """Integer kernel of h(mat), h the product, with multiplicity, of the
    irreducible monic factors f of the characteristic polynomial of the
    square mat for which keep(f) holds.

    >>> A = IntMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 1]])   # (x^2 - 2)(x - 1)
    >>> factor_kernel(A, lambda f: f == [-2, 0, 1])                  # x - 1 dropped
    IntMatrix(3, 2, [[0, 1], [1, 0], [0, 0]])
    >>> factor_kernel(A, lambda f: f == [-1, 1])                     # x - 1 kept
    IntMatrix(3, 1, [[0], [0], [1]])
    """
    h = [1]
    if mat.rows:
        for f, m in factor_monic(charpoly(mat)):
            if keep(f):
                for _ in range(m):
                    h = poly_mul(h, f)
    if len(h) == 1:
        return IntMatrix.from_columns(mat.rows, [])
    return lattice_kernel(poly_of_matrix(h, mat))


# ---------------------------------------------------------------------------
# periodic-tail analysis


@dataclass(frozen=True)
class PeriodicLimData:
    """Everything the six-term machinery needs about lim of one tower."""

    reduction: TailReduction
    unit_basis: IntMatrix        # columns: lim generators in reduced coordinates
    group: FgAbGroup             # abstract lim, presented on those generators


def _free_block(reduction):
    A = reduction.endo.matrix
    fi = reduction.free_idx
    return IntMatrix(len(fi), len(fi),
                     [[A.data[r][c] for c in fi] for r in fi])


def _embed_free_columns(reduction, cols_matrix):
    """Columns over the free coordinates, embedded into reduced coordinates."""
    m = reduction.group.generators
    fi = reduction.free_idx
    out = []
    for j in range(cols_matrix.cols):
        v = [0] * m
        for row, val in zip(fi, cols_matrix.column(j)):
            v[row] = val
        out.append(v)
    return IntMatrix.from_columns(m, out)


def _unit_lattice(A_free):
    """Saturated sublattice on which A is bijective (all eigenvalues units):
    the kernel of the factors of chi_A with constant term +-1."""
    return factor_kernel(A_free, lambda f: abs(f[0]) == 1)


def _certify_unit_lattice(A_free, N, d):
    """Exact certificates for the unit sublattice N of the injective free
    block A, with d = |det A|.

    (1) A restricted to N is bijective (the restriction matrix is
    unimodular), so N consists of thread values.  (2) The image chain of
    the injective A stabilizes iff d = 1, and then at step 1 on all of
    Z^n; every factor of the characteristic polynomial then has constant
    term +-1, so by Cayley-Hamilton N = ker u(A) must be all of Z^n.  A
    failure of either check raises InternalInconsistency.
    """
    if N.cols:
        S = solve_columns(N, A_free * N)
        if S is None:
            raise InternalInconsistency("unit sublattice is not invariant")
        if abs(S.det()) != 1:
            raise InternalInconsistency("tail map is not bijective on the unit sublattice")
    if d == 1 and N.cols != A_free.rows:
        raise InternalInconsistency(
            "stable image lattice disagrees with the unit sublattice")


@lru_cache(maxsize=64)
def _tail_analysis(tail_group, tail_endo):
    """The one certified analysis of a periodic tail (T, A) that lim, lim1,
    the ML verdict and the six-term sequences read: (kernel-chain
    reduction, its injective free block, |det| of that block, the
    certified unit lattice of that block).  Memoized on the tail's value,
    so a tower and its shifts share one record."""
    red = tail_reduction(PeriodicTower((), (), tail_group, tail_endo, None))
    A_free = _free_block(red)
    d = abs(A_free.det())
    N = _unit_lattice(A_free)
    _certify_unit_lattice(A_free, N, d)
    return red, A_free, d, N


def periodic_lim_data(t):
    """lim of an eventually periodic tower, with transport data."""
    red, _, _, N = _tail_analysis(t.tail_group, t.tail_endo)
    tor = red.torsion_idx
    m = red.group.generators
    gens = []
    for i in tor:
        gens.append([1 if j == i else 0 for j in range(m)])
    gens_m = IntMatrix.from_columns(m, gens).hstack(_embed_free_columns(red, N))
    grp = diagonal_group(tuple(red.diag[i] for i in tor) + (0,) * N.cols)
    return PeriodicLimData(red, gens_m, grp)


@dataclass(frozen=True)
class PeriodicLim1Data:
    """lim1 of an eventually periodic tower: the completion-quotient data."""

    quotient_rank: int
    quotient_matrix: IntMatrix   # the tail map induced on the non-unit free quotient
    structured: StructuredGroup


def periodic_lim1_data(t):
    _, A_free, _, N = _tail_analysis(t.tail_group, t.tail_endo)
    rf = A_free.rows
    s = N.cols
    if rf == s:
        return PeriodicLim1Data(0, IntMatrix.identity(0), StructuredGroup.zero())
    if s == 0:
        Abar = A_free
    else:
        _, U, _ = snf(N)
        Uinv = unimodular_inverse(U)
        conj = U * A_free * Uinv
        Abar = IntMatrix(rf - s, rf - s,
                         [[conj.data[i][j] for j in range(s, rf)] for i in range(s, rf)])
    d = Abar.det()
    if abs(d) == 1:
        raise InternalInconsistency("unit part survived the quotient")
    sg = StructuredGroup.completion_quotient(rf - s, Abar)
    return PeriodicLim1Data(rf - s, Abar, sg)


# ---------------------------------------------------------------------------
# Mittag-Leffler condition family


@dataclass(frozen=True)
class MLCertificate:
    """kind: stabilized | non_ml | depth_limited.

    stabilized: images of deep levels in each fixed level agree from
    offset j_offset on (the witness map is i -> i + j_offset).
    non_ml: from onset on, consecutive image lattices keep a constant
    index c > 1.
    depth_limited: the dual ML verdict of streamed towers, whose kernels
    into a fixed level grow at every depth; `depth` is the depth the
    report names.  Every other verdict has an exact stabilized or
    non_ml certificate.
    """

    kind: str
    j_offset: int = 0
    symbolic: bool = False
    index: int = 0
    onset: int = 0
    depth: int = 0
    note: str = ""

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "stabilized":
            out["witness"] = "j(i) = i + %d" % self.j_offset
            out["verified_symbolically"] = self.symbolic
        elif self.kind == "non_ml":
            out["stable_index"] = self.index
            out["onset_level"] = self.onset
        else:
            out["depth"] = self.depth
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    certificate: MLCertificate

    def to_json(self):
        return {"holds": self.holds, "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class ConditionsReport:
    ml: ConditionVerdict
    dual_ml: ConditionVerdict
    virtually_ml: ConditionVerdict
    nearly_ml: ConditionVerdict

    def to_json(self):
        return {"ml": self.ml.to_json(), "dual_ml": self.dual_ml.to_json(),
                "virtually_ml": self.virtually_ml.to_json(),
                "nearly_ml": self.nearly_ml.to_json()}


def _ml_periodic(t):
    """ML of a periodic tail, read off its kernel chain K_0 ... K_l.

    A^k induces T / K_k = A^k T, so [A^k T : A^(k+1) T] = [Z^n : A Z^n + K_k]
    (K_k contains the relations).  The index never increases with k and
    from l on equals |det| of the free block, the torsion block being
    bijective; so ML holds iff that determinant is +-1, which is then
    the stable index, and the offset or onset is the first k <= l whose
    index reaches it.
    """
    red, _, d, _ = _tail_analysis(t.tail_group, t.tail_endo)
    A = red.original_endo.matrix
    whole = IntMatrix.identity(A.rows)
    for k, K in enumerate(red.kernel_chain):
        if lattice_index(A.hstack(K), whole) == d:
            break
    else:
        raise InternalInconsistency("no kernel-chain step reaches the stable image index")
    if d == 1:
        return ConditionVerdict(True, MLCertificate(
            "stabilized", j_offset=k, symbolic=True,
            note="image lattices of the tail map stabilize after %d steps" % k))
    return ConditionVerdict(False, MLCertificate(
        "non_ml", index=d, onset=k,
        note="consecutive image index is a constant %d" % d))


def ml_conditions(t):
    """The Mittag-Leffler condition and its dual, virtual and near variants.

    Eventually periodic towers get exact verdicts with certificates.
    Streamed towers get the closed forms of their family.
    """
    if isinstance(t, PeriodicTower):
        ml = _ml_periodic(t)
        dual = ConditionVerdict(True, MLCertificate(
            "stabilized", symbolic=True,
            note="kernel chains of f.g. abelian towers stabilize"))
        virtually = ConditionVerdict(True, MLCertificate(
            "stabilized", symbolic=True,
            note="image ranks stabilize, so deep images have finite index"))
        nearly = ConditionVerdict(ml.holds, MLCertificate(
            ml.certificate.kind, j_offset=ml.certificate.j_offset,
            symbolic=ml.certificate.symbolic, index=ml.certificate.index,
            onset=ml.certificate.onset, depth=ml.certificate.depth,
            note="normal closure equals image in abelian groups"))
        return ConditionsReport(ml, dual, virtually, nearly)
    if isinstance(t, StreamedTower):
        return _ml_streamed(t)
    raise TowerError("ml_conditions needs a periodic or streamed tower")


def _ml_streamed(t):
    """Closed-form verdicts of a registered streamed family.

    The bonds of hawaiian_h1, finite_sets and adic_quotient are
    surjective, so images stabilize at once (witness j(i) = i).  The
    cluster_h1(p) images shrink by p in every retained coordinate, so ML
    fails with index p from level 1.  Dual ML fails: in hawaiian_h1,
    finite_sets and cluster_h1 the composite from level s + i to level s
    has a kernel of rank i at every shift s, so the kernels into a fixed
    level never stabilize.  The adic_quotient kernels A^s L / A^(s+i) L
    grow in order with i when |det A| > 1.  No exact certificate kind
    exists for this verdict, so it is reported as depth_limited.  When
    |det A| = 1 every adic_quotient level L/A^i L is 0, so dual ML holds.
    """
    if t.family == "cluster_h1":
        (p,) = t.params
        ml = ConditionVerdict(False, MLCertificate(
            "non_ml", index=p, onset=1,
            note="registered rule: images shrink by a factor of %d in each "
                 "retained coordinate" % p))
        nearly = ConditionVerdict(False, ml.certificate)
        virtually = ConditionVerdict(False, MLCertificate(
            "non_ml", index=p, onset=1,
            note="images of deep levels have unbounded index"))
    else:
        ml = nearly = virtually = ConditionVerdict(True, MLCertificate(
            "stabilized", j_offset=0, symbolic=True,
            note="registered rule: surjective bondings give the witness j(i) = i"))
    if t.family != "adic_quotient":
        dual = ConditionVerdict(False, MLCertificate(
            "depth_limited", depth=8,
            note="kernels into level 0 grew at every checked depth"))
    elif abs(IntMatrix.from_rows(t.params[1]).det()) == 1:
        dual = ConditionVerdict(True, MLCertificate(
            "stabilized", symbolic=True,
            note="|det A| = 1, so every level L/A^i L is 0"))
    else:
        dual = ConditionVerdict(False, MLCertificate(
            "depth_limited", depth=16,
            note="kernels into a fixed level grow at every checked depth"))
    return ConditionsReport(ml, dual, virtually, nearly)


# ---------------------------------------------------------------------------
# lim and lim1


def limit(t):
    """The inverse limit, as a structured exact description.

    Eventually periodic towers give finitely generated answers; streamed
    families give their registered closed forms; finite towers of finite
    groups are delegated to the enumeration oracle.
    """
    if isinstance(t, PeriodicTower):
        return StructuredGroup.fg(periodic_lim_data(t).group)
    if isinstance(t, FiniteTower):
        return StructuredGroup.fg(brute_lim(t))
    if isinstance(t, StreamedTower):
        if t.family == "adic_quotient":
            gens, arows = t.params
            A = IntMatrix.from_rows([list(r) for r in arows])
            return StructuredGroup.completion(gens, A)
        if t.family == "cluster_h1":
            return StructuredGroup.zero()
        # hawaiian_h1 and finite_sets: split surjections, the full product
        return StructuredGroup.full_product("Z")
    raise TowerError("limit needs a tower")


def derived_limit(t):
    """lim1, as a structured exact description.

    Mittag-Leffler towers give zero.  Otherwise an eventually periodic
    tower gives the quotient of the completion along the non-unit part of
    its tail map, which is uncountable (a countable lim1 of countable
    groups forces Mittag-Leffler).
    """
    if isinstance(t, PeriodicTower):
        return periodic_lim1_data(t).structured
    if isinstance(t, StreamedTower):
        if t.family == "cluster_h1":
            (p,) = t.params
            factor = StructuredGroup.completion_quotient(1, IntMatrix.from_rows([[p]]))
            return StructuredGroup.product_of([factor], countable_repetition=True)
        # the other families have surjective bonds, so they are ML
        return StructuredGroup.zero()
    raise TowerError("derived_limit needs a periodic or streamed tower")


_BRUTE_BOUND = 1 << 16


def brute_lim(ft):
    """Literal thread enumeration oracle for finite towers of finite groups.

    Returns the level-0 value group of the depth-long threads as an
    abstract group (the image of the full bond composite, computed by
    explicit enumeration, not by matrix algebra).
    """
    if not isinstance(ft, FiniteTower):
        raise TowerError("brute_lim needs a materialized finite tower")
    for g in ft.groups:
        if g.order() is None:
            raise TooLarge("level group is infinite")
    top = ft.groups[-1]
    if top.order() > _BRUTE_BOUND:
        raise TooLarge("top level has %d elements" % top.order())
    # enumerate the top level through its invariant-factor coordinates
    grp, _, project, section, diag = _minimize_with_transform(top, identity_hom(top))
    ranges = [d for d in diag]
    values = set()
    comp = ft.composite(ft.depth, 0)
    # the pivot row and column of each column of the relations' Hermite form
    H = lattice_canon(ft.groups[0].relations)
    echelon = [(next(i for i, x in enumerate(col) if x), col)
               for col in map(H.column, range(H.cols))]
    counters = [0] * len(ranges)
    while True:
        coords = list(counters)
        x = section.apply(coords)
        y = comp.matrix.apply(x)
        values.add(tuple(_reduce_mod(echelon, y)))
        k = len(ranges) - 1
        while k >= 0:
            counters[k] += 1
            if counters[k] < ranges[k]:
                break
            counters[k] = 0
            k -= 1
        if k < 0 or not ranges:
            break
    gens = IntMatrix.from_columns(ft.groups[0].generators, sorted(values))
    rel = ft.groups[0].relations
    part = subquotient(ft.groups[0].generators, gens.hstack(rel), rel)
    if part.group.order() != len(values):
        raise InternalInconsistency("%d thread values span a group of order %s"
                                    % (len(values), part.group.order()))
    return part.group


def _reduce_mod(echelon, vector):
    """Canonical representative of a vector modulo the relation lattice,
    given as the (pivot row, column) of each column of its Hermite form."""
    v = list(vector)
    for prow, col in echelon:
        q = v[prow] // col[prow]
        if q:
            v = [a - q * b for a, b in zip(v, col)]
    return v


# ---------------------------------------------------------------------------
# six-term exact sequence


@dataclass(frozen=True)
class JointVerdict:
    position: str
    verdict: str   # verified | consistent | skipped
    note: str = ""

    def to_json(self):
        return {"position": self.position, "verdict": self.verdict, "note": self.note}


@dataclass(frozen=True)
class SixTermReport:
    lim_sub: StructuredGroup
    lim_total: StructuredGroup
    lim_quot: StructuredGroup
    lim1_sub: StructuredGroup
    lim1_total: StructuredGroup
    lim1_quot: StructuredGroup
    joints: tuple
    connecting: str

    def terms(self):
        return (self.lim_sub, self.lim_total, self.lim_quot,
                self.lim1_sub, self.lim1_total, self.lim1_quot)

    def to_json(self):
        names = ("lim_sub", "lim_total", "lim_quot",
                 "lim1_sub", "lim1_total", "lim1_quot")
        out = {n: v.to_json() for n, v in zip(names, self.terms())}
        out["joints"] = [j.to_json() for j in self.joints]
        out["connecting"] = self.connecting
        return out


def _lim_subgroup_hom(data_src, data_tgt, level_map):
    """The map induced on lims by a level map between reduced tails."""
    red_s, red_t = data_src.reduction, data_tgt.reduction
    induced = red_t.project * level_map.matrix * red_s.section
    k_s = data_src.unit_basis.cols
    k_t = data_tgt.unit_basis.cols
    if k_s == 0:
        return hom_make(data_src.group, data_tgt.group,
                        IntMatrix.from_columns(k_t, []))
    img = induced * data_src.unit_basis
    X = solve_columns(data_tgt.unit_basis.hstack(red_t.group.relations), img)
    if X is None:
        raise InconsistentSES("a limit thread maps outside the target limit subgroup")
    M = X.submatrix(range(k_t), range(k_s))
    return hom_make(data_src.group, data_tgt.group, M)


def six_term(ses):
    """All six terms of the limit sequence of a short exact sequence of
    towers, with per-joint exactness verdicts.

    Joints between finitely generated (or zero) terms are verified by
    exact kernel/image computation; joints involving completion terms get
    structured consistency checks; anything else is labeled skipped.  A
    failed verified joint raises InconsistentSES.
    """
    if ses.canonical_completion:
        return _six_term_canonical(ses)
    sub, total, quot = ses.sub, ses.total, ses.quot
    ds, dt, dq = (periodic_lim_data(x) for x in (sub, total, quot))
    l1s, l1t, l1q = (periodic_lim1_data(x).structured for x in (sub, total, quot))
    lim_s = StructuredGroup.fg(ds.group)
    lim_t = StructuredGroup.fg(dt.group)
    lim_q = StructuredGroup.fg(dq.group)

    inj = ses.inject_at(0)
    sur = ses.surject_at(0)
    lim_j = _lim_subgroup_hom(ds, dt, inj)
    lim_f = _lim_subgroup_hom(dt, dq, sur)

    joints = []
    kj, imj, _ = hom_parts(lim_j)
    if kj.group.is_trivial():
        joints.append(JointVerdict("lim_sub", "verified", "lim of the inclusion is injective"))
    else:
        raise InconsistentSES("lim of the inclusion has a kernel")
    kf, imf, ckf = hom_parts(lim_f)
    rel = dt.group.relations
    im_l = lattice_canon(imj.witness.hstack(rel))
    ker_l = lattice_canon(kf.witness.hstack(rel))
    if im_l == ker_l:
        joints.append(JointVerdict("lim_total", "verified", "image equals kernel"))
    else:
        raise InconsistentSES("exactness fails at lim of the total tower")
    if l1s.is_trivial:
        if ckf.group.is_trivial():
            joints.append(JointVerdict("lim_quot", "verified",
                                       "lim is onto since lim1 of the sub tower vanishes"))
        else:
            raise InconsistentSES("lim1 of the sub tower vanishes but lim is not onto")
    else:
        joints.append(JointVerdict(
            "lim_quot", "consistent",
            "cokernel of lim embeds in lim1 of the sub tower via the connecting map"))
    joints.append(_lim1_joint("lim1_sub", l1s, l1t, before=None))
    joints.append(_lim1_joint("lim1_total", l1t, l1q, before=l1s))
    if l1q.is_trivial or not l1t.is_trivial:
        joints.append(JointVerdict(
            "lim1_quot", "verified" if l1q.is_trivial else "consistent",
            "lim1 of the projection is onto"))
    else:
        raise InconsistentSES("lim1 of the quotient cannot be nonzero under a zero lim1")
    delta = ("delta sends a limit thread (q_i) of the quotient tower to the "
             "class of (g_i - bond(g_{i+1})) for any lifts g_i")
    return SixTermReport(lim_s, lim_t, lim_q, l1s, l1t, l1q, tuple(joints), delta)


def _lim1_joint(position, here, after, before):
    if here.is_trivial:
        return JointVerdict(position, "verified", "term vanishes")
    if position == "lim1_total" and before is not None and before.is_trivial \
            and after.is_trivial and not here.is_trivial:
        raise InconsistentSES("lim1 exactness fails around the total tower")
    return JointVerdict(position, "consistent",
                        "completion-quotient term; structured checks only")


def _six_term_canonical(ses):
    """Six terms of (L, A) >-> (L, id) ->> (L/A^k L).

    The sub tower is free with A injective, so its kernel-chain reduction
    is the identity and its tail record is A on L itself.  The joints rest
    on that record's certificate: A is bijective on the unit sublattice N,
    so lim of the inclusion is bijective onto N; N = ker u(A) is the
    kernel of L -> completion; and lim Q / N is the completion quotient
    that lim1 of the sub tower is read from.
    """
    sub = ses.sub
    data_sub = periodic_lim_data(sub)
    lim1_sub = periodic_lim1_data(sub)
    lim_s = StructuredGroup.fg(data_sub.group)
    lim_t = StructuredGroup.fg(sub.tail_group)
    lim_q = StructuredGroup.completion(lim1_sub.quotient_rank, lim1_sub.quotient_matrix) \
        if lim1_sub.quotient_rank else StructuredGroup.fg(free_group(0))
    l1s = lim1_sub.structured
    l1t = StructuredGroup.zero()
    l1q = StructuredGroup.zero()
    joints = (
        JointVerdict("lim_sub", "verified",
                     "the inclusion is bijective on the thread sublattice"),
        JointVerdict("lim_total", "verified",
                     "kernel of the completion map equals the image of lim"),
        JointVerdict("lim_quot", "consistent",
                     "lim Q / image(lim G) matches the lim1 descriptor of the sub tower"),
        JointVerdict("lim1_sub", "verified" if l1s.is_trivial else "consistent",
                     "the connecting map is onto lim1 of the sub tower"),
        JointVerdict("lim1_total", "verified", "term vanishes"),
        JointVerdict("lim1_quot", "verified", "term vanishes"),
    )
    delta = ("delta sends a compatible system (a_k mod A^k L) to the class of "
             "(a_k - a_{k+1}) in lim1 of the sub tower")
    return SixTermReport(lim_s, lim_t, lim_q, l1s, l1t, l1q, joints, delta)
