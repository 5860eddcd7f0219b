"""Integer and polynomial arithmetic behind every periodic-tail answer.

`factor_monic` splits the characteristic polynomial of a tail map into
its irreducible factors over Z, and `factor_kernel` takes the kernel of
the product of the factors a filter keeps: those with constant term +-1
(the unit lattice of lim and lim1), or those with algebraic-integer
roots (the chain lattice of the pro-category search).  `prime_factors`
gives the primes of a determinant, the missing primes of a completion.
"""

from __future__ import annotations

import itertools
import math
import random

from .exactlat import IntMatrix, charpoly, kernel as lattice_kernel


# ---------------------------------------------------------------------------
# trial division, and exact polynomial helpers (coefficient lists,
# ascending, always monic input)


def prime_factors(n):
    """The distinct primes dividing n, ascending; [] for 0 and +-1."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
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
    return _mod(poly_mul(a, b), m)


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
    return (p for p in itertools.count(3, 2) if prime_factors(p) == [p])


def _squarefree_mod(f, df, p):
    """Whether f, with derivative df, is squarefree modulo the prime p."""
    return len(_gcd_mod(_mod(f, p), _mod(df, p), p)) == 1


def _modular_factors(f):
    """A prime p with f mod p squarefree, and the monic irreducible
    factors of f mod p; of the first _GOOD_PRIMES such primes, the one
    with the fewest factors."""
    best = None
    good = 0
    df = _derivative(f)
    for p in _odd_primes():
        if not _squarefree_mod(f, df, p):
            continue
        ddf = _distinct_degree(_mod(f, p), p)
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
    return next((p for p in itertools.islice(_odd_primes(), tries)
                 if _squarefree_mod(f, df, p)), None)


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
