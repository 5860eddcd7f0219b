"""Randomized property-test harness with an independent-oracle design.

Every suite generates towers deterministically from a master seed via a
SplitMix64 stream (the 64-bit finalizer of Appleby's MurmurHash3,
documented below), derives per-trial sub-seeds by trial index, and checks
one quantified property against an independent computation path.  Any
failure dumps a replayable counterexample in the tower file format.
"""

import math
import time

from .errors import UnknownSuite
from .exactlat import (
    IllDefined,
    IntMatrix,
    MutableRecord,
    Record,
    diagonal_group,
    diagonal_orders,
    free_group,
    hom_make,
    kernel,
    lattice_canon,
    lattice_contains,
    lattice_index,
)
from .limits import brute_lim, derived_limit, limit, ml_conditions, six_term
from .procat import chain_basis, chain_extends, compare_invariants, find_interleaving
from .structured import compare_structured
from .towers import (PeriodicTower, periodic_tower, pure_tower, reduce_to_images, shift,
                     tower_ses, truncate)
from .towerfile import dump_tower


_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator.

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64); the output mixes the
    new state with xor-shifts and the two MurmurHash3 finalizer constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Identical seeds give
    identical streams on every platform.
    """

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below needs a positive bound")
        limit_value = _MASK - (_MASK % n)
        while True:
            x = self.next64()
            if x < limit_value:
                return x % n

    def rand_range(self, lo, hi):
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def trial_rng(master_seed, suite, index):
    """Per-trial stream: sub-seed derived from the master seed, the suite
    name hash and the trial index, so reports are schedule independent."""
    h = 1469598103934665603
    for ch in suite:
        h = ((h ^ ord(ch)) * 1099511628211) & _MASK
    base = SplitMix64(master_seed & _MASK)
    a = base.next64()
    return SplitMix64(a ^ h ^ (0x9E3779B97F4A7C15 * (index + 1) & _MASK))


class LabConfig(Record):
    _fields = ("master_seed", "trials", "max_rank", "entry_bound", "depth")

    def __init__(self, master_seed, trials, max_rank=3, entry_bound=5, depth=12):
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "max_rank", max_rank)
        object.__setattr__(self, "entry_bound", entry_bound)
        object.__setattr__(self, "depth", depth)

    def to_json(self):
        return {"master_seed": self.master_seed, "trials": self.trials,
                "max_rank": self.max_rank, "entry_bound": self.entry_bound,
                "depth": self.depth}


class LabReport(MutableRecord):
    _fields = ("suite", "config", "passed", "failed", "counterexamples", "elapsed")

    def __init__(self, suite, config, passed=0, failed=0, counterexamples=None,
                 elapsed=0.0):
        self.suite = suite
        self.config = config
        self.passed = passed
        self.failed = failed
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.failed == 0

    def canonical_json(self):
        """Deterministic content (timing excluded so identical configs
        give bitwise-identical canonical reports)."""
        return {"suite": self.suite, "config": self.config.to_json(),
                "passed": self.passed, "failed": self.failed,
                "counterexamples": list(self.counterexamples)}

    def to_json(self):
        out = self.canonical_json()
        out["elapsed_seconds"] = round(self.elapsed, 3)
        return out


# ---------------------------------------------------------------------------
# generators


def gen_diag_group(rng, config, torsion_only=False):
    """Random group in invariant-coordinate form (diagonal relations)."""
    n = rng.rand_range(0 if not torsion_only else 1, config.max_rank)
    diag = []
    for _ in range(n):
        if not torsion_only and rng.below(2) == 0:
            diag.append(0)
        else:
            diag.append(rng.rand_range(2, max(2, config.entry_bound + 2)))
    return diagonal_group(diag), tuple(diag)


def gen_matrix_between(rng, tgt_diag, src_diag, bound):
    """Random matrix that is a well-defined map between diagonal groups."""
    rows = []
    for i, di in enumerate(tgt_diag):
        row = []
        for j, dj in enumerate(src_diag):
            if dj == 0:
                row.append(rng.rand_range(-bound, bound))
            elif di == 0:
                row.append(0)
            else:
                step = di // math.gcd(di, dj)
                row.append(step * rng.rand_range(-bound, bound))
        rows.append(row)
    return IntMatrix(len(tgt_diag), len(src_diag), rows)


def gen_endo(rng, group, diag, bound):
    m = gen_matrix_between(rng, diag, diag, bound)
    return hom_make(group, group, m)


def gen_tower(rng, config, torsion_only=False, with_prefix=True):
    """Seed-deterministic random eventually periodic tower."""
    tail, tail_diag = gen_diag_group(rng, config, torsion_only)
    endo = gen_endo(rng, tail, tail_diag, config.entry_bound)
    if not with_prefix or rng.below(2) == 0:
        return PeriodicTower((), (), tail, endo, None)
    plen = rng.rand_range(1, 2)
    groups, diags = [], []
    for _ in range(plen):
        g, d = gen_diag_group(rng, config, torsion_only)
        groups.append(g)
        diags.append(d)
    bonds = []
    for i in range(plen - 1):
        m = gen_matrix_between(rng, diags[i], diags[i + 1], config.entry_bound)
        bonds.append(hom_make(groups[i + 1], groups[i], m))
    spl = hom_make(tail, groups[-1],
                   gen_matrix_between(rng, diags[-1], tail_diag, config.entry_bound))
    return periodic_tower(groups, bonds, tail, endo, spl)


def gen_ml_tower(rng, config):
    """A random tower conditioned to satisfy Mittag-Leffler, within 40 draws."""
    for _ in range(40):
        t = gen_tower(rng, config, with_prefix=False)
        if ml_conditions(t).ml.holds:
            return t
    Z = free_group(1)
    return pure_tower(Z, [[1]])


def gen_twisted_ses(rng, config):
    """A short exact sequence K >-> K (+) Q ->> Q with a random twist."""
    sub, sub_diag = gen_diag_group(rng, config)
    quot, quot_diag = gen_diag_group(rng, config)
    a_sub = gen_matrix_between(rng, sub_diag, sub_diag, config.entry_bound)
    a_quot = gen_matrix_between(rng, quot_diag, quot_diag, config.entry_bound)
    twist = gen_matrix_between(rng, sub_diag, quot_diag, config.entry_bound)
    ns, nq = sub.generators, quot.generators
    total_diag = sub_diag + quot_diag
    total = diagonal_group(total_diag)
    t_sub = PeriodicTower((), (), sub, hom_make(sub, sub, a_sub), None)
    t_total = PeriodicTower((), (), total, hom_make(
        total, total, _block_upper(a_sub, twist, a_quot)), None)
    t_quot = PeriodicTower((), (), quot, hom_make(quot, quot, a_quot), None)
    inj = hom_make(sub, total, IntMatrix(ns + nq, ns,
                                         [[1 if (i == j and i < ns) else 0
                                           for j in range(ns)] for i in range(ns + nq)]))
    sur = hom_make(total, quot, IntMatrix(nq, ns + nq,
                                          [[1 if j == ns + i else 0
                                            for j in range(ns + nq)] for i in range(nq)]))
    return tower_ses(t_sub, t_total, t_quot, inj, sur)


def _block_upper(top, twist, bottom):
    """The block upper-triangular matrix [[top, twist], [0, bottom]]."""
    ns, nq = top.rows, bottom.rows
    block = [[0] * (ns + nq) for _ in range(ns + nq)]
    for i in range(ns):
        for j in range(ns):
            block[i][j] = top.data[i][j]
        for j in range(nq):
            block[i][ns + j] = twist.data[i][j]
    for i in range(nq):
        for j in range(nq):
            block[ns + i][ns + j] = bottom.data[i][j]
    return IntMatrix.from_rows(block)


# ---------------------------------------------------------------------------
# suites


def _suite_ml_equiv(rng, config, report):
    t = gen_tower(rng, config)
    ml = ml_conditions(t).ml.holds
    lim1_zero = derived_limit(t).is_trivial
    if ml != lim1_zero:
        _fail(report, t, "ml=%s but lim1 trivial=%s" % (ml, lim1_zero))
    else:
        report.passed += 1


def _suite_shift_invariance(rng, config, report):
    t = gen_tower(rng, config)
    base_lim = limit(t).canonical_key()
    base_lim1 = derived_limit(t).canonical_key()
    for k in range(1, 6):
        s = shift(t, k)
        if limit(s).canonical_key() != base_lim \
                or derived_limit(s).canonical_key() != base_lim1:
            _fail(report, t, "shift by %d changed the canonical description" % k)
            return
    report.passed += 1


def _suite_dual_ml(rng, config, report):
    t = gen_tower(rng, config)
    if ml_conditions(t).dual_ml.holds:
        report.passed += 1
    else:
        _fail(report, t, "dual Mittag-Leffler failed on a periodic tower")


def _suite_nearly_ml(rng, config, report):
    t = gen_tower(rng, config)
    rep = ml_conditions(t)
    if rep.nearly_ml.holds == rep.ml.holds:
        report.passed += 1
    else:
        _fail(report, t, "nearly-ML differs from ML on an abelian tower")


def _suite_finite_oracle(rng, config, report):
    t = gen_tower(rng, config, torsion_only=True, with_prefix=False)
    depth = min(config.depth, 8)
    ft = truncate(t, depth)
    oracle = brute_lim(ft)
    sg = limit(t)
    ok = sg.tag in ("zero", "fg")
    got = sg.group if sg.tag == "fg" else free_group(0)
    if not (ok and got.is_isomorphic(oracle)):
        _fail(report, t, "brute_lim %s disagrees with lim %s"
              % (oracle.describe(), sg.render()))
        return
    if sg.is_trivial:
        # with a trivial limit of finite groups, some deep composite bond
        # must already vanish within the materialized depth
        for d in range(1, depth + 1):
            comp = ft.composite(d, 0)
            zero = hom_make(ft.groups[d], ft.groups[0],
                            IntMatrix.zero(ft.groups[0].generators,
                                           ft.groups[d].generators))
            if comp.equals(zero):
                report.passed += 1
                return
        _fail(report, t, "trivial limit but no vanishing composite bond")
        return
    report.passed += 1


def _suite_six_term_exact(rng, config, report):
    ses = gen_twisted_ses(rng, config)
    rep = six_term(ses)   # raises InconsistentSES on a failed verified joint
    ranks_ok = all(
        ses.total.group_at(i).rank
        == ses.sub.group_at(i).rank + ses.quot.group_at(i).rank
        for i in range(4))
    quot_ml = ml_conditions(ses.quot).ml.holds
    if quot_ml and rep.lim1_sub.is_trivial and not rep.lim1_total.is_trivial:
        _fail(report, ses.sub, "lim1 of the total tower should vanish "
                               "(sub vanishes and the quotient is ML)")
        return
    if not ranks_ok:
        _fail(report, ses.total, "rank additivity failed on the SES")
        return
    report.passed += 1


def _suite_ml_propagation(rng, config, report):
    """Four-term exact sequences A -> B -> C -> D with A, C Mittag-Leffler
    and D dual-Mittag-Leffler must have B Mittag-Leffler."""
    a = gen_ml_tower(rng, config)
    c = gen_ml_tower(rng, config)
    sub_diag = diagonal_orders(a.tail_group)
    quot_diag = diagonal_orders(c.tail_group)
    twist = gen_matrix_between(rng, sub_diag, quot_diag, config.entry_bound)
    total = diagonal_group(sub_diag + quot_diag)
    block = _block_upper(a.tail_endo.matrix, twist, c.tail_endo.matrix)
    b = PeriodicTower((), (), total, hom_make(total, total, block), None)
    d = gen_tower(rng, config, with_prefix=False)   # gamma = 0; any periodic D is dual-ML
    if not ml_conditions(a).ml.holds or not ml_conditions(c).ml.holds:
        report.passed += 1   # vacuous hypotheses; generators guard against this
        return
    if not ml_conditions(d).dual_ml.holds:
        _fail(report, d, "periodic tower failed dual-ML")
        return
    if ml_conditions(b).ml.holds:
        report.passed += 1
    else:
        _fail(report, b, "middle tower of the four-term sequence is not ML")


def _suite_ml_certificate(rng, config, report):
    """The ML certificate of the tail against its image lattices
    im(A^k) + relations, computed directly well past the reported onset:
    the offset or onset must be the first k from which every consecutive
    index equals the reported one (1 when ML holds)."""
    t = gen_tower(rng, config)
    cert = ml_conditions(t).ml.certificate
    if cert.kind == "stabilized":
        start, want = cert.j_offset, 1
    elif cert.kind == "non_ml":
        start, want = cert.onset, cert.index
    else:
        _fail(report, t, "periodic tower got a %s ML certificate" % cert.kind)
        return
    T, A = t.tail_group, t.tail_endo.matrix
    depth = start + T.rank + sum(d.bit_length() for d in T.torsion) + 2
    images = []
    power = IntMatrix.identity(T.generators)
    for _ in range(depth + 2):
        images.append(lattice_canon(power.hstack(T.relations)))
        power = power * A
    index = [lattice_index(images[k + 1], images[k]) for k in range(depth + 1)]
    if any(i != want for i in index[start:]) or (start and index[start - 1] == want):
        _fail(report, t, "certificate: index %d from level %d; image chain indices %s"
              % (want, start, index))
    else:
        report.passed += 1


def _gen_unimodular(rng, n, bound):
    """Random unimodular U and U^-1 from the same elementary steps:
    rows[i] += c rows[j] on U is column j -= c column i on U^-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    inv_cols = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.below(n), rng.below(n)
        if i != j:
            c = rng.rand_range(-bound, bound)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            inv_cols[j] = [x - c * y for x, y in zip(inv_cols[j], inv_cols[i])]
    return IntMatrix.from_rows(rows), IntMatrix.from_columns(n, inv_cols)


def _suite_compare_vs_interleave(rng, config, report):
    """compare against the interleaving search.  Power pairs (L, A) vs
    (L, U A^k U^-1), U unimodular, are pro-isomorphic (pass to a
    subsequence), so their lim1 must compare equal; for them and for
    unrelated pairs, a certificate at depth <= 2 rules out a
    not_isomorphic verdict.  compare says not_isomorphic from the
    invariants alone, before any search, so it runs at depth 0 and the
    interleaving search runs only where the invariants separate."""
    n = rng.rand_range(1, min(2, config.max_rank))
    bound = min(config.entry_bound, 3)
    A = gen_matrix_between(rng, (0,) * n, (0,) * n, bound)
    power_pair = rng.below(2) == 0
    if power_pair:
        U, Uinv = _gen_unimodular(rng, n, 2)
        B = U * A ** rng.rand_range(1, 2) * Uinv
    else:
        m = rng.rand_range(1, min(2, config.max_rank))
        B = gen_matrix_between(rng, (0,) * m, (0,) * m, bound)
    a = pure_tower(free_group(n), A)
    b = pure_tower(free_group(B.rows), B)
    other = "against B = %r" % [list(r) for r in B.data]
    if power_pair:
        lim1_cmp = compare_structured(derived_limit(a), derived_limit(b))
        if lim1_cmp != "equal":
            _fail(report, a, "lim1 of a power pair compares %s %s" % (lim1_cmp, other))
            return
    depth = rng.rand_range(1, 2)
    if compare_invariants(a, b, depth=0).kind == "not_isomorphic" \
            and find_interleaving(a, b, depth) is not None:
        _fail(report, a, "not_isomorphic despite a depth-%d certificate %s" % (depth, other))
        return
    report.passed += 1


def _suite_prohom(rng, config, report):
    """The level-0 basis of `chain_basis` against its definition, the maps
    f_0 whose chains B f_(i+1) = f_i A^g stay maps (modulo the target
    relations) at every level.  Every basis map must pass the extension
    check of `chain_extends`, and every map of a box that passes the check
    must lie in the span of the basis and the target relations.

    Half the draws are free tails (A of rank n, B of rank m with
    det B != 0, ranks <= 3), whose box samples the window-(nm) lattice
    (`_window_lattice`).  The others are nontrivial reduced tails
    (`reduce_to_images`) of Z/d or Z/d (+) Z on each side, whose box holds
    the small integer matrices that `hom_make` accepts.  The gap is
    g <= 2."""
    bound = min(config.entry_bound, 3)
    torsion = rng.below(2) == 0
    g = rng.rand_range(1, 2)
    if torsion:
        a, b = (_gen_torsion_tail(rng, config, bound) for _ in range(2))
    else:
        n = rng.rand_range(1, min(3, config.max_rank))
        m = rng.rand_range(1, min(3, config.max_rank))
        A = gen_matrix_between(rng, (0,) * n, (0,) * n, bound)
        B = gen_matrix_between(rng, (0,) * m, (0,) * m, bound)
        while not B.det():
            B = gen_matrix_between(rng, (0,) * m, (0,) * m, bound)
        a, b = pure_tower(free_group(n), A), pure_tower(free_group(m), B)
    src, tgt, bond = a.tail_group, b.tail_group, b.tail_endo
    n, m = src.generators, tgt.generators
    power = a.tail_endo.matrix ** g
    other = "against (%s, B = %r) at gap %d" % (
        tgt.describe(), [list(r) for r in bond.matrix.data], g)

    def extends(f):
        return _is_hom(src, tgt, f) and chain_extends((hom_make(src, tgt, f),), bond, power)

    basis = chain_basis(src, tgt, power, bond.matrix)
    if not all(map(extends, basis)):
        _fail(report, a, "a chain basis map does not extend %s" % other)
        return
    rel = tgt.relations
    span = IntMatrix.from_columns(n * m, [_flat(f) for f in basis] + [
        [rel.data[r][k] * (cc == c) for r in range(m) for cc in range(n)]
        for k in range(rel.cols) for c in range(n)])
    if torsion:
        box = [IntMatrix(m, n, [[int((r, c) == (i, j)) for c in range(n)] for r in range(m)])
               for i in range(m) for j in range(n)]
        box += [IntMatrix(m, n, [[rng.below(2) and rng.rand_range(-3, 3) for _ in range(n)]
                                 for _ in range(m)]) for _ in range(_BOX_SAMPLES)]
    else:
        window = _window_lattice(power, bond.matrix, n * m)
        box = list(window)
        for _ in range(_BOX_SAMPLES):
            f = IntMatrix.zero(m, n)
            for w in window:
                f = f + w * rng.rand_range(-2, 2)
            box.append(f)
    for f in box:
        if extends(f) and not lattice_contains(span, _flat(f)):
            _fail(report, a, "the extending map %r is not in the chain basis span %s"
                  % ([list(r) for r in f.data], other))
            return
    report.passed += 1


def _gen_torsion_tail(rng, config, bound):
    """The reduced tail of a random tail on Z/d or Z/d (+) Z, drawn again
    while it is trivial: a map nilpotent on the group reduces to 0, and
    maps into or out of 0 check nothing.  Like the free draws, this needs
    a bound of at least 1."""
    while True:
        diag = (rng.rand_range(2, max(2, config.entry_bound + 2)),) + (0,) * rng.below(2)
        group = diagonal_group(diag)
        red = reduce_to_images(
            PeriodicTower((), (), group, gen_endo(rng, group, diag, bound), None))
        if not red.tail_group.is_trivial():
            return red


def _is_hom(source, target, matrix):
    try:
        hom_make(source, target, matrix)
    except IllDefined:
        return False
    return True


_BOX_SAMPLES = 12


def _window_lattice(power, bond, window):
    """Basis of the maps f_0 whose chains B f_(i+1) = f_i P hold on
    `window` squares, one square at a time: L_0 is all of Hom, and
    L_(k+1) holds the f with f P = B X for some X in L_k."""
    m, n = bond.rows, power.rows
    units = [IntMatrix(m, n, [[int((r, c) == (i, j)) for c in range(n)] for r in range(m)])
             for i in range(m) for j in range(n)]
    basis = units
    for _ in range(window):
        cols = [_flat(E * power) for E in units] + [_flat(-(bond * X)) for X in basis]
        K = kernel(IntMatrix.from_columns(m * n, cols))
        L = lattice_canon(K.submatrix(range(m * n), range(K.cols)))
        basis = [IntMatrix(m, n, [v[r * n:(r + 1) * n] for r in range(m)])
                 for v in zip(*L.data)]
    return basis


def _flat(f):
    return [x for row in f.data for x in row]


def _fail(report, tower, message):
    report.failed += 1
    dump = dump_tower(tower) if isinstance(tower, PeriodicTower) else repr(tower)
    report.counterexamples.append({"message": message, "tower": dump})


_SUITES = {
    "ml_equiv": _suite_ml_equiv,
    "shift_invariance": _suite_shift_invariance,
    "dual_ml": _suite_dual_ml,
    "nearly_ml": _suite_nearly_ml,
    "finite_oracle": _suite_finite_oracle,
    "six_term_exact": _suite_six_term_exact,
    "ml_propagation": _suite_ml_propagation,
    "ml_certificate": _suite_ml_certificate,
    "compare_vs_interleave": _suite_compare_vs_interleave,
    "prohom": _suite_prohom,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(config, suite):
    """Run one named suite; the report is a pure function of the config."""
    if suite not in _SUITES:
        raise UnknownSuite(suite)
    fn = _SUITES[suite]
    report = LabReport(suite, config)
    start = time.perf_counter()
    for index in range(config.trials):
        rng = trial_rng(config.master_seed, suite, index)
        fn(rng, config, report)
    report.elapsed = time.perf_counter() - start
    return report
