"""Tests for the exact lattice layer.

The SNF tests are checked against an independent minor-gcd oracle:
d_1 * ... * d_k equals the gcd of all k x k minors.
"""

import itertools
import random

import pytest

from towerlim.exactlat import (
    FgAbGroup,
    Homomorphism,
    IllDefined,
    IndexUndefined,
    IntMatrix,
    cyclic_group,
    diagonal_group,
    diagonal_orders,
    direct_sum,
    free_group,
    hom_make,
    hom_parts,
    identity_hom,
    kernel,
    lattice_canon,
    lattice_contains,
    lattice_index,
    present,
    snf,
    solve_columns,
)
from towerlim.exactlat import _column_hnf  # the Hermite form under kernel, solve_columns and lattice_canon
from towerlim.exactlat import _invariant_factors


def minor_gcd_invariants(mat):
    """Independent oracle: invariant factors from gcds of k x k minors."""
    m, n = mat.rows, mat.cols
    gcds = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = mat.submatrix(rows, cols)
                g = _gcd(g, sub.det())
                if g == 1:
                    break
            if g == 1:
                break
        gcds.append(g)
    out = []
    for k, g in enumerate(gcds):
        if g == 0:
            out.append(0)
        else:
            out.append(g // prev)
            prev = g
    # once a zero gcd appears all later invariants are zero
    seen_zero = False
    fixed = []
    for d in out:
        if d == 0:
            seen_zero = True
        fixed.append(0 if seen_zero else d)
    return fixed


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def random_matrix(rng, rows, cols, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def assert_smith_transform(M, S, U, Uinv):
    """S = U * M * V for some unimodular V, and Uinv is U^-1.  The first
    holds iff S and U * M have the same column count and column lattice,
    since then their column Hermite forms agree."""
    assert S.cols == M.cols
    assert lattice_canon(U * M) == lattice_canon(S)
    assert U * Uinv == IntMatrix.identity(M.rows)


def column_hnf(mat):
    """(H, U) with H = mat * U the column Hermite form of mat and U
    unimodular, as matrices built from the columns _column_hnf returns."""
    hcols, ucols = _column_hnf(mat)
    return IntMatrix.from_columns(mat.rows, hcols), IntMatrix.from_columns(mat.cols, ucols)


class TestHnf:
    def test_identity(self):
        H, U = column_hnf(IntMatrix.identity(2))
        assert H == IntMatrix.identity(2)
        assert U == IntMatrix.identity(2)

    def test_det_preserved(self):
        M = IntMatrix.from_rows([[2, 4], [6, 8]])
        H, U = column_hnf(M)
        assert abs(H.det()) == 8
        assert H == M * U
        assert abs(U.det()) == 1

    def test_zero(self):
        Z = IntMatrix.zero(3, 2)
        H, U = column_hnf(Z)
        assert H == Z
        assert abs(U.det()) == 1

    def test_column_span_preserved(self):
        rng = random.Random(11)
        for _ in range(50):
            M = random_matrix(rng, 3, 3, 6)
            H, U = column_hnf(M)
            assert H == M * U
            assert abs(U.det()) == 1
            # mutual containment of column spans
            assert solve_columns(M, H) is not None
            assert solve_columns(H, M) is not None

    def test_canonical_for_equal_lattices(self):
        rng = random.Random(5)
        for _ in range(30):
            M = random_matrix(rng, 3, 4, 5)
            perm = list(range(4))
            rng.shuffle(perm)
            N = IntMatrix.from_columns(3, [M.column(j) for j in perm])
            assert lattice_canon(M) == lattice_canon(N)


class TestSnf:
    def test_already_diagonal(self):
        S, _, _ = snf(IntMatrix.from_rows([[2, 0], [0, 4]]))
        assert S.diagonal() == [2, 4]

    def test_example(self):
        M = IntMatrix.from_rows([[2, 4], [6, 8]])
        S, U, Uinv = snf(M)
        assert S.diagonal() == [2, 4]
        assert_smith_transform(M, S, U, Uinv)

    def test_zero_1x1(self):
        S, _, _ = snf(IntMatrix.from_rows([[0]]))
        assert S.diagonal() == [0]

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(42)
        for _ in range(500):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = random_matrix(rng, rows, cols, 9)
            S, U, Uinv = snf(M)
            assert_smith_transform(M, S, U, Uinv)
            diag = S.diagonal()
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0
            assert diag == minor_gcd_invariants(M)


class TestPresent:
    def test_cyclic(self):
        G = present(1, IntMatrix.from_rows([[5]]))
        assert G.smith_invariants == (0, [5])

    def test_free(self):
        G = present(2, IntMatrix.from_columns(2, []))
        assert G.smith_invariants == (2, [])

    def test_crt_merge(self):
        G = present(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert G.smith_invariants == (0, [6])

    def test_reprsent_idempotent(self):
        rng = random.Random(3)
        for _ in range(40):
            M = random_matrix(rng, 3, rng.randint(0, 4), 7)
            G = present(3, M)
            r, t = G.smith_invariants
            rebuilt = direct_sum(
                free_group(r),
                present(len(t), IntMatrix.from_rows(
                    [[t[i] if i == j else 0 for j in range(len(t))] for i in range(len(t))]))
                if t else free_group(0))
            assert rebuilt.smith_invariants == (r, t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            present(3, IntMatrix.from_rows([[1, 2]]))

    def test_diagonal_group_round_trip(self):
        rng = random.Random(5)
        cases = [(), (0,), (0, 0, 0), (4,), (2, 3, 12)]
        cases += [tuple(rng.choice((0, 0, rng.randint(2, 30))) for _ in range(rng.randint(0, 6)))
                  for _ in range(60)]
        for d in cases:
            G = diagonal_group(d)
            assert diagonal_orders(G) == tuple(d)
            assert G.relations.cols == sum(1 for x in d if x)
            assert G.rank == d.count(0)


class TestHomMake:
    def test_mult_p_on_Z(self):
        Z = free_group(1)
        h = hom_make(Z, Z, [[7]])
        assert h.matrix.data == ((7,),)

    def test_ill_defined(self):
        with pytest.raises(IllDefined):
            hom_make(cyclic_group(2), cyclic_group(4), [[1]])

    def test_doubling_into_Z4(self):
        h = hom_make(cyclic_group(2), cyclic_group(4), [[2]])
        assert h.matrix.data == ((2,),)

    def test_equality_mod_relations(self):
        Z4 = cyclic_group(4)
        a = hom_make(Z4, Z4, [[1]])
        b = hom_make(Z4, Z4, [[5]])
        assert a.equals(b)
        assert not a.equals(hom_make(Z4, Z4, [[2]]))


class TestHomParts:
    def test_mult_p(self):
        Z = free_group(1)
        k, im, ck = hom_parts(hom_make(Z, Z, [[5]]))
        assert k.group.is_trivial()
        assert im.group.smith_invariants == (1, [])
        assert ck.group.smith_invariants == (0, [5])

    def test_zero_map(self):
        Z = free_group(1)
        k, im, ck = hom_parts(hom_make(Z, Z, [[0]]))
        assert k.group.smith_invariants == (1, [])
        assert im.group.is_trivial()
        assert ck.group.smith_invariants == (1, [])

    def test_diag_2_3(self):
        Z2 = free_group(2)
        k, im, ck = hom_parts(hom_make(Z2, Z2, [[2, 0], [0, 3]]))
        assert k.group.is_trivial()
        assert ck.group.smith_invariants == (0, [6])
        assert lattice_index(im.witness, IntMatrix.identity(2)) == 6

    def test_coker_order_equals_det(self):
        rng = random.Random(9)
        Z = {n: free_group(n) for n in (1, 2, 3, 4)}
        done = 0
        while done < 60:
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n, 9)
            d = abs(M.det())
            if d == 0:
                continue
            _, _, ck = hom_parts(hom_make(Z[n], Z[n], M))
            assert ck.group.order() == d
            done += 1

    def test_torsion_source(self):
        # Z/4 -> Z/2 reduction: kernel Z/2, image Z/2, cokernel 0
        h = hom_make(cyclic_group(4), cyclic_group(2), [[1]])
        k, im, ck = hom_parts(h)
        assert k.group.smith_invariants == (0, [2])
        assert im.group.smith_invariants == (0, [2])
        assert ck.group.is_trivial()


class TestLatticeOps:
    def test_index(self):
        sup = IntMatrix.identity(2)
        sub = IntMatrix.from_rows([[2, 0], [0, 1]])
        assert lattice_index(sub, sup) == 2

    def test_index_undefined(self):
        a = IntMatrix.from_columns(1, [[2]])
        b = IntMatrix.from_columns(1, [[4]])
        with pytest.raises(IndexUndefined):
            lattice_index(a, b)

    def test_infinite_index(self):
        sub = IntMatrix.from_columns(2, [[2, 0]])
        assert lattice_index(sub, IntMatrix.identity(2)) is None

    def test_membership(self):
        L = IntMatrix.from_columns(2, [[2, 0], [0, 3]])
        assert lattice_contains(L, [4, 3])
        assert not lattice_contains(L, [1, 0])

    def test_kernel_saturated(self):
        M = IntMatrix.from_rows([[2, 4]])
        K = kernel(M)
        assert K.cols == 1
        # a direct summand: every invariant factor of the basis is 1
        S, _, _ = snf(K)
        assert S.data[0][0] == 1

    def test_snf_inverse(self):
        _, U, Uinv = snf(IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]]))
        assert U * Uinv == IntMatrix.identity(3) == Uinv * U


def test_identity_hom_roundtrip():
    G = present(2, IntMatrix.from_rows([[4, 0], [0, 0]]))
    h = identity_hom(G)
    k, im, ck = hom_parts(h)
    assert k.group.is_trivial()
    assert ck.group.is_trivial()
    assert im.group.is_isomorphic(G)


# ---------------------------------------------------------------------------
# the kernel against plain-list reference code: the row Hermite form and the
# Smith form as they were written before the kernel ran on trusted data, and
# the lattice helpers on top of them, built through the public constructors


def naive_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def naive_mul(a, b, inner, cols):
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(cols)] for r in a]


def naive_row_hnf(a, n):
    """Row Hermite form R = W*A of the m x n row lists a; returns (R, W)."""
    m = len(a)
    a = [list(r) for r in a]
    w = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(n):
        nz = [i for i in range(pivot_row, m) if a[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != pivot_row:
            a[pivot_row], a[i0] = a[i0], a[pivot_row]
            w[pivot_row], w[i0] = w[i0], w[pivot_row]
        for i in range(pivot_row + 1, m):
            while a[i][col] != 0:
                q = a[pivot_row][col] // a[i][col]
                for j in range(n):
                    a[pivot_row][j] -= q * a[i][j]
                for j in range(m):
                    w[pivot_row][j] -= q * w[i][j]
                a[pivot_row], a[i] = a[i], a[pivot_row]
                w[pivot_row], w[i] = w[i], w[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            w[pivot_row] = [-x for x in w[pivot_row]]
        p = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // p
            if q:
                for j in range(n):
                    a[i][j] -= q * a[pivot_row][j]
                for j in range(m):
                    w[i][j] -= q * w[pivot_row][j]
        pivot_row += 1
        if pivot_row == m:
            break
    return a, w


def naive_hnf(mat):
    R, W = naive_row_hnf(naive_transpose(mat.data, mat.cols), mat.rows)
    return (IntMatrix(mat.rows, mat.cols, naive_transpose(R, mat.rows)),
            IntMatrix(mat.cols, mat.cols, naive_transpose(W, mat.cols)))


def naive_snf(mat):
    m, n = mat.rows, mat.cols
    S = [list(r) for r in mat.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        S, W = naive_row_hnf(S, n)
        U = naive_mul(W, U, m, m)
        Ct, X = naive_row_hnf(naive_transpose(S, n), m)
        S = naive_transpose(Ct, m)
        V = naive_mul(V, naive_transpose(X, n), n, n)
        if all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j):
            a, u, v = S, U, V
            k = min(m, n)
            order = sorted(range(k), key=lambda i: (a[i][i] == 0, i))
            if order != list(range(k)):
                perm_rows = order + list(range(k, m))
                perm_cols = order + list(range(k, n))
                u = [u[i] for i in perm_rows]
                v = [[v[r][perm_cols[j]] for j in range(n)] for r in range(n)]
                diag = [a[i][i] for i in order]
                a = [[0] * n for _ in range(m)]
                for t, d in enumerate(diag):
                    a[t][t] = d
            changed = False
            for i in range(k - 1):
                di, dj = a[i][i], a[i + 1][i + 1]
                if di != 0 and dj % di != 0:
                    for r in range(n):
                        v[r][i] += v[r][i + 1]
                    a[i + 1][i] = dj
                    changed = True
                    break
            S, U, V = a, u, v
            if not changed:
                break
    for i in range(min(m, n)):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]
            U[i] = [-x for x in U[i]]
    return IntMatrix(m, n, S), IntMatrix(m, m, U), IntMatrix(n, n, V)


def naive_lattice_canon(gens):
    H, _ = naive_hnf(gens)
    cols = [H.column(j) for j in range(H.cols) if any(H.column(j))]
    return IntMatrix.from_columns(gens.rows, cols)


def naive_kernel(mat):
    H, U = naive_hnf(mat)
    return IntMatrix.from_columns(
        mat.cols, [U.column(j) for j in range(H.cols) if not any(H.column(j))])


def naive_solve_columns(gens, target):
    H, U = naive_hnf(gens)
    pivots = []
    for j in range(H.cols):
        nz = [i for i, x in enumerate(H.column(j)) if x]
        if nz:
            pivots.append((nz[0], j))
    xcols = []
    for c in range(target.cols):
        residual = target.column(c)
        y = [0] * H.cols
        for prow, pcol in pivots:
            if any(residual[i] for i in range(prow)):
                return None
            p = H.data[prow][pcol]
            if residual[prow] % p != 0:
                return None
            q = residual[prow] // p
            y[pcol] = q
            hc = H.column(pcol)
            for i in range(len(residual)):
                residual[i] -= q * hc[i]
        if any(residual):
            return None
        xcols.append([sum(U.data[i][j] * y[j] for j in range(H.cols))
                      for i in range(U.rows)])
    return IntMatrix.from_columns(gens.cols, xcols)


def assert_trusted_data(mat):
    """The data invariant: a tuple of `rows` tuples of `cols` ints."""
    assert type(mat.data) is tuple and len(mat.data) == mat.rows
    for row in mat.data:
        assert type(row) is tuple and len(row) == mat.cols
        assert all(type(x) is int for x in row)


def shaped(rng, rows, cols, bound):
    """Random rows x cols matrix; unlike from_rows it keeps a zero-row shape."""
    return IntMatrix(rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)]
                                  for _ in range(rows)])


def random_shapes(seed, count, max_dim=5, bound=6):
    """Random matrices, with zero-row and zero-column shapes among them."""
    rng = random.Random(seed)
    for t in range(count):
        rows = rng.randint(0, max_dim) if t % 7 else 0
        cols = rng.randint(0, max_dim) if t % 5 else 0
        sparse = rng.random() < 0.3
        yield rng, IntMatrix(rows, cols, [
            [0 if sparse and rng.random() < 0.6 else rng.randint(-bound, bound)
             for _ in range(cols)] for _ in range(rows)])


class TestKernelDifferential:
    def test_transpose_and_stacks(self):
        for rng, M in random_shapes(1, 150):
            T = M.transpose()
            assert_trusted_data(T)
            assert T.data == tuple(map(tuple, naive_transpose(M.data, M.cols)))
            assert (T.rows, T.cols) == (M.cols, M.rows)
            N = shaped(rng, M.rows, rng.randint(0, 4), 5)
            H = M.hstack(N)
            assert_trusted_data(H)
            assert H == IntMatrix(M.rows, M.cols + N.cols,
                                  [list(a) + list(b) for a, b in zip(M.data, N.data)])
            P = shaped(rng, rng.randint(0, 4), M.cols, 5)
            V = M.vstack(P)
            assert_trusted_data(V)
            assert V == IntMatrix(M.rows + P.rows, M.cols,
                                  [list(r) for r in M.data + P.data])

    def test_products(self):
        for rng, M in random_shapes(2, 150):
            N = shaped(rng, M.cols, rng.randint(0, 5), 7)
            P = M * N
            assert_trusted_data(P)
            assert P.data == tuple(map(tuple, naive_mul(M.data, N.data, M.cols, N.cols)))
            for k in (0, -1, 3):
                for S in (M * k, k * M):
                    assert_trusted_data(S)
                    assert S == IntMatrix(M.rows, M.cols,
                                          [[x * k for x in r] for r in M.data])
            assert_trusted_data(M + M)
            assert M + M == M * 2
            assert_trusted_data(-M)
            assert M - M == IntMatrix.zero(M.rows, M.cols)

    def test_zero_inner_dimension(self):
        for rows, cols in ((2, 3), (0, 3), (2, 0), (0, 0)):
            P = IntMatrix.zero(rows, 0) * IntMatrix.zero(0, cols)
            assert_trusted_data(P)
            assert P == IntMatrix.zero(rows, cols)
            assert P == IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    def test_hnf_and_snf(self):
        for rng, M in random_shapes(3, 300):
            H, U = column_hnf(M)
            Hn, Un = naive_hnf(M)
            assert_trusted_data(H)
            assert_trusted_data(U)
            assert H.data == Hn.data and U.data == Un.data
            S, U, Uinv = snf(M)
            Sn, Un, _ = naive_snf(M)
            _, Uninv = naive_hnf(Un)
            for got, want in ((S, Sn), (U, Un), (Uinv, Uninv)):
                assert_trusted_data(got)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert got.data == want.data

    def test_lattice_helpers(self):
        for rng, M in random_shapes(4, 300):
            for got, want in ((lattice_canon(M), naive_lattice_canon(M)),
                              (kernel(M), naive_kernel(M))):
                assert_trusted_data(got)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert got.data == want.data
            X = shaped(rng, M.cols, rng.randint(0, 3), 4)
            solvable = M * X
            unsolvable = shaped(rng, M.rows, rng.randint(0, 3), 9)
            for target in (solvable, unsolvable):
                got = solve_columns(M, target)
                want = naive_solve_columns(M, target)
                if want is None:
                    assert got is None
                else:
                    assert_trusted_data(got)
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert got.data == want.data
            assert solve_columns(M, solvable) is not None

    def test_kernel_matches_the_fully_reduced_hermite_form(self):
        # kernel skips the reduction above the pivots; its basis must be the
        # one read off the reduced column Hermite form, on empty shapes,
        # rank-deficient products and entries of 40 bits
        rng = random.Random(12)
        mats = [M for _, M in random_shapes(12, 300, max_dim=7)]
        mats += [IntMatrix.zero(0, k) for k in range(4)] + [IntMatrix.zero(k, 0) for k in range(4)]
        for _ in range(150):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            inner = rng.randint(0, min(r, c) - 1)
            mats.append(shaped(rng, r, inner, 9) * shaped(rng, inner, c, 9))
            mats.append(shaped(rng, r, c, 1 << 40))
        reduction_acted = 0
        for M in mats:
            hcols, ucols = _column_hnf(M)
            want = IntMatrix.from_columns(
                M.cols, [uc for hc, uc in zip(hcols, ucols) if not any(hc)])
            got = kernel(M)
            assert_trusted_data(got)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got.data == want.data
            assert M * got == IntMatrix.zero(M.rows, got.cols)
            reduction_acted += _column_hnf(M, reduce=False)[0] != hcols
        assert reduction_acted > 100

    def test_constructors_keep_the_invariant(self):
        for M in (IntMatrix.identity(3), IntMatrix.identity(0), IntMatrix.zero(2, 3),
                  IntMatrix.zero(0, 2), IntMatrix.from_rows([[True, 2.0], [3, -4]]),
                  IntMatrix.from_columns(2, [[1, 2], [3, 4]]),
                  IntMatrix.from_rows([[1, 2], [3, 4]]).submatrix([1], [0, 1])):
            assert_trusted_data(M)
        assert IntMatrix.from_rows([[True, 2.0]]).data == ((1, 2),)

    def test_solve_columns_rejects_a_target_of_another_height(self):
        with pytest.raises(ValueError):
            solve_columns(IntMatrix.identity(2), IntMatrix.from_columns(3, [[1, 0, 0]]))

    def test_public_constructor_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix(3, 2, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            IntMatrix.from_columns(2, [[1, 2], [3]])

    def test_value_equality_and_hash(self):
        rng = random.Random(6)
        for _ in range(50):
            M = shaped(rng, 3, 3, 4)
            via_ops = (M * IntMatrix.identity(3)).transpose().transpose()
            public = IntMatrix(3, 3, [list(r) for r in M.data])
            assert via_ops == public and hash(via_ops) == hash(public)


class TestSmithCache:
    def test_returned_lists_are_fresh(self):
        G = present(2, IntMatrix.from_rows([[2, 0], [0, 4]]))
        first = G.smith_invariants
        first[1].append(99)
        first[1][0] = 7
        assert G.smith_invariants == (0, [2, 4])
        G.torsion.append(5)
        assert G.torsion == [2, 4]
        assert G.describe() == "Z/2 (+) Z/4"

    def test_cache_is_not_part_of_equality(self):
        a = present(1, IntMatrix.from_rows([[6]]))
        b = present(1, IntMatrix.from_rows([[6]]))
        a.smith_invariants
        assert hom_make(a, a, [[5]]).equals(identity_hom(a)) is False
        assert "_relation_echelon" in vars(a) and "_relation_echelon" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert a.is_isomorphic(b)


# ---------------------------------------------------------------------------
# transform-free primitives against the transform-based forms they replace


def five_form_lattice_index(sub, sup):
    """lattice_index from two solve_columns and three lattice_canon, as
    it was computed before the pivot ratio."""
    if solve_columns(sup, sub) is None:
        raise IndexUndefined("first lattice is not contained in the second")
    supc = lattice_canon(sup)
    if lattice_canon(sub).cols < supc.cols:
        return None
    Xc = solve_columns(supc, lattice_canon(sub))
    d = abs(Xc.det()) if Xc.rows == Xc.cols else 0
    return d or None


def index_or_error(sub, sup, fn):
    try:
        return fn(sub, sup)
    except IndexUndefined:
        return "undefined"


def snf_invariants(mat):
    S, _, _ = snf(mat)
    return [d for d in S.diagonal() if d]


def solvable(gens, vector):
    return solve_columns(gens, IntMatrix.from_columns(gens.rows, [vector])) is not None


def reference_hom_make(source, target, matrix):
    """hom_make with one solve_columns per relator image."""
    rel = source.relations
    for j in range(rel.cols):
        image = matrix.apply(rel.column(j))
        if any(image) and not solvable(target.relations, image):
            raise IllDefined("relator image lies outside the target relations")
    return Homomorphism(source, target, matrix)


def reference_equals(f, g):
    diff = f.matrix - g.matrix
    return all(not any(diff.column(j)) or solvable(f.target.relations, diff.column(j))
               for j in range(diff.cols))


def index_pairs(seed, count):
    """(sub, sup) pairs: sub = sup X for square, wide, narrow and rank-
    deficient X, and unrelated subs, on every shape random_shapes makes."""
    for rng, sup in random_shapes(seed, count):
        k = rng.randint(0, sup.cols + 1)
        yield sup * shaped(rng, sup.cols, sup.cols, 4), sup
        yield sup * shaped(rng, sup.cols, k, 3), sup
        inner = rng.randint(0, max(sup.cols - 1, 0))
        yield sup * shaped(rng, sup.cols, inner, 3) * shaped(rng, inner, k, 3), sup
        yield shaped(rng, sup.rows, k, 6), sup
        yield sup, shaped(rng, sup.rows, k, 2)


class TestTransformFreeDifferential:
    def test_lattice_index_matches_the_five_forms(self):
        outcomes = set()
        for sub, sup in index_pairs(21, 250):
            want = index_or_error(sub, sup, five_form_lattice_index)
            assert index_or_error(sub, sup, lattice_index) == want
            outcomes.add(want if want in (None, "undefined", 1) else "finite")
        assert outcomes == {None, "undefined", 1, "finite"}

    def test_lattice_index_on_empty_shapes_and_large_entries(self):
        rng = random.Random(22)
        pairs = [(IntMatrix.zero(r, c), IntMatrix.zero(r, d))
                 for r in (0, 2) for c in (0, 2) for d in (0, 3)]
        pairs += [(IntMatrix.zero(2, 0), IntMatrix.identity(2)),
                  (IntMatrix.identity(2), IntMatrix.zero(2, 0)),
                  (IntMatrix.zero(0, 3), IntMatrix.zero(0, 0))]
        for _ in range(40):
            sup = shaped(rng, 3, 3, 1 << 40)
            pairs.append((sup * shaped(rng, 3, 4, 1 << 20), sup))
        for sub, sup in pairs:
            assert (index_or_error(sub, sup, lattice_index)
                    == index_or_error(sub, sup, five_form_lattice_index))
        with pytest.raises(ValueError):
            lattice_index(IntMatrix.identity(2), IntMatrix.identity(3))

    def test_invariant_factors_match_the_snf_diagonal(self):
        rng = random.Random(23)
        mats = [M for _, M in random_shapes(23, 300, max_dim=6)]
        diagonals = []
        for _ in range(100):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            inner = rng.randint(0, min(r, c))
            mats.append(shaped(rng, r, inner, 5) * shaped(rng, inner, c, 5))
            d = [rng.choice([0, 1, 2, 3, 4, 6, 8, 9, 12]) for _ in range(min(r, c))]
            diag = IntMatrix(r, c, [[d[i] if i == j else 0 for j in range(c)]
                                    for i in range(r)])
            mats.append(shaped(rng, r, r, 2) * diag * shaped(rng, c, c, 2))
            diagonals.append(diag)
        for M in mats + diagonals:
            want = snf_invariants(M)
            assert _invariant_factors(M) == want
            G = FgAbGroup(M.rows, M)
            torsion = [x for x in want if x >= 2]
            assert G.smith_invariants == (M.rows - len(want), torsion)
        # diagonals out of divisibility order, which need the gcd/lcm exchanges
        assert sum(sorted(x for x in D.diagonal() if x) != snf_invariants(D)
                   for D in diagonals) > 10

    def test_membership_matches_solve_columns(self):
        found = set()
        for rng, M in random_shapes(24, 300):
            inside = M.apply([rng.randint(-4, 4) for _ in range(M.cols)])
            for v in (inside, [rng.randint(-6, 6) for _ in range(M.rows)],
                      [2 * x for x in inside], [0] * M.rows):
                want = solvable(M, v)
                assert lattice_contains(M, v) == want
                found.add(want)
        assert found == {True, False}
        with pytest.raises(ValueError):
            lattice_contains(IntMatrix.identity(2), [1, 0, 0])

    def test_hom_make_and_equals_match_solve_columns(self):
        rng = random.Random(25)
        verdicts = set()
        for _ in range(300):
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            S = shaped(rng, m, rng.randint(0, 3), 4)
            F = shaped(rng, n, m, 3)
            # the target relations hold F S up to a factor 1 or 2 and a
            # random column, so both verdicts occur
            R = (F * S * rng.choice([1, 2])).hstack(shaped(rng, n, rng.randint(0, 2), 5))
            source, target = FgAbGroup(m, S), FgAbGroup(n, R)
            try:
                want = reference_hom_make(source, target, F)
            except IllDefined:
                with pytest.raises(IllDefined):
                    hom_make(source, target, F)
                verdicts.add("ill")
                continue
            assert hom_make(source, target, F) == want
            verdicts.add("ok")
            shifted = F + R * shaped(rng, R.cols, m, 3)
            for G in (shifted, F + shaped(rng, n, m, 1), F, F * 2):
                other = Homomorphism(source, target, G)
                assert want.equals(other) == reference_equals(want, other)
                verdicts.add(want.equals(other))
        assert verdicts == {"ill", "ok", True, False}

    def test_zero_images_build_no_echelon(self):
        G = present(2, IntMatrix.from_rows([[4, 2], [0, 6]]))
        h = hom_make(G, G, [[0, 0], [0, 0]])
        assert h.equals(Homomorphism(G, G, IntMatrix.zero(2, 2)))
        assert "_relation_echelon" not in vars(G)
