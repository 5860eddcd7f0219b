"""Inputs for the four workloads.

Every op is one CLI command on a tower file that the benchmark writes
before timing starts.  Inputs come from this module's own generators
(never from the program's lab generator).

Each workload has a fixed base set of queries, drawn once by the
generators below from a fixed key, so that every pass of every run does
the same work.  Per-op cost on these towers is heavy-tailed in their
entries (factoring, HNF growth, search order): fresh draws made one
run's total work differ from the next run's by tens of percent.  The
workload seed picks the order in which each pass asks the queries.  A
pass runs in a fresh interpreter, so no input repeats within one
interpreter.  Lab runs each suite on a fixed set of suite seeds.

Each op is a dict: `argv` for `towerlim.cli.dispatch`, `kind` (the
command), `family` (the generator slot) and `expect` (what the oracle
needs to judge the answer).  `golden_ops` lists the reports that must
match `tests/golden` byte for byte; `hard_ops` lists the known cliffs
and defects.  Both are run apart from the timed passes.
"""

import math
import os
import random

from towertext import diag_group, hom, pure_tail, stower, tower

GOLDEN = {
    "tails": [
        (["lim1", "towers/solenoid_2.tower", "--json"], "lim1_solenoid_2"),
        (["six-term", "towers/solenoid_2.tower", "--json"], "six_term_solenoid_2"),
    ],
    "interleave": [
        (["compare", "towers/compare_2_3.tower", "--a", "two", "--b", "three",
          "--json"], "compare_2_3"),
    ],
    "shape": [
        (["steenrod", "towers/hawaiian.tower", "--degree", "1", "--json"],
         "steenrod_hawaiian_1"),
    ],
    "lab": [],
}

LAB_SUITES = ("dual_ml", "finite_oracle", "ml_equiv", "ml_propagation",
              "nearly_ml", "shift_invariance", "six_term_exact")
LAB_TRIALS = 5

TORSION_ORDERS = (2, 3, 4, 6, 8, 9)


class Writer:
    """Writes numbered tower files into one directory."""

    def __init__(self, directory, tag):
        self.directory = directory
        self.tag = tag
        self.count = 0

    def write(self, text):
        self.count += 1
        path = os.path.join(self.directory, "%s-%04d.tower" % (self.tag, self.count))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _base_rng(workload, part="base"):
    """A fixed key: the same draws in every run, whatever the seed."""
    return random.Random("towerlim-bench:%s:%s" % (workload, part))


def pass_order(workload, seed, index, count):
    """The order in which pass `index` of a run with `seed` asks the base set."""
    order = list(range(count))
    random.Random("towerlim-bench:%s:%d:pass%d" % (workload, seed, index)).shuffle(order)
    return order


def _rand_matrix(rng, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _det(rows):
    """Exact determinant by fraction-free elimination (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _nonsingular(rng, n, bound):
    while True:
        rows = _rand_matrix(rng, n, bound)
        if _det(rows):
            return rows


# ---------------------------------------------------------------------------
# tails


def dense_tail(rng, rank):
    """Dense free tail, entries |a| <= 3 (factoring-bound)."""
    return _rand_matrix(rng, rank, 3)


def block_triangular_tail(rng, rank):
    """Upper-triangular tail with at most one 2x2 diagonal block, so the
    characteristic polynomial is a product of linear factors and at most
    one quadratic (HNF-bound, never a factor search)."""
    two = rng.randrange(rank - 1)
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        lo = two if i == two + 1 else i
        for j in range(lo, rank):
            in_block = j == i or (two <= i <= two + 1 and two <= j <= two + 1)
            rows[i][j] = rng.randint(-3, 3) if in_block else rng.randint(-1, 1)
    return rows


def _between(rng, tgt_diag, src_diag, bound):
    """Random matrix that is a well-defined map between diagonal groups."""
    rows = []
    for di in tgt_diag:
        row = []
        for dj in src_diag:
            if dj == 0:
                row.append(rng.randint(-bound, bound))
            elif di == 0:
                row.append(0)
            else:
                row.append(di // math.gcd(di, dj) * rng.randint(-bound, bound))
        rows.append(row)
    return rows


def _diag(rng, free_max, torsion_max):
    """Diagonal group: 0 for a free generator, d for Z/d; free ones first."""
    while True:
        diag = [0] * rng.randint(0, free_max)
        diag += [rng.choice(TORSION_ORDERS) for _ in range(rng.randint(0, torsion_max))]
        if diag:
            return diag


def torsion_tower(rng):
    """Small tail with torsion and an optional prefix of up to two levels.

    Returns (file text, block of the tail map on the free generators),
    which is the map induced on T/torsion."""
    tail = _diag(rng, 2, 2)
    while all(d == 0 for d in tail):
        tail = _diag(rng, 2, 2)
    prefix = [_diag(rng, 2, 1) for _ in range(rng.randint(0, 2))]
    A = _between(rng, tail, tail, 3)
    text = diag_group("T", tail) + hom("A", "T", "T", A)
    names = ["P%d" % i for i in range(len(prefix))]
    for name, d in zip(names, prefix):
        text += diag_group(name, d)
    for i in range(len(prefix) - 1):
        text += hom("B%d" % i, names[i + 1], names[i],
                    _between(rng, prefix[i], prefix[i + 1], 3))
    splice = None
    if names:
        text += hom("S", "T", names[-1], _between(rng, prefix[-1], tail, 3))
        splice = "S"
    text += tower("main", "T", "A", names, ["B%d" % i for i in range(len(prefix) - 1)],
                  splice)
    free = tail.count(0)
    return text, [row[:free] for row in A[:free]]


# One tails pass: (family, command, rank, count).
TAILS_BASE = (
    [("dense", cmd, r, n) for r, n in ((2, 2), (3, 2), (4, 2), (5, 1))
     for cmd in ("lim", "lim1", "ml")]
    + [("dense", "six-term", r, 2) for r in (2, 3)]
    + [("torsion", cmd, 0, 4) for cmd in ("lim", "lim1", "ml")]
    + [("block", cmd, r, 1) for r in (8, 10, 12) for cmd in ("lim", "lim1", "ml")]
)


def tails_base(writer):
    rng = _base_rng("tails")
    ops = []
    for family, cmd, rank, count in TAILS_BASE:
        for _ in range(count):
            if family == "torsion":
                text, free = torsion_tower(rng)
            else:
                if cmd == "six-term":
                    free = _nonsingular(rng, rank, 3)
                elif family == "dense":
                    free = dense_tail(rng, rank)
                else:
                    free = block_triangular_tail(rng, rank)
                text = pure_tail("main", free)
                if cmd == "six-term":
                    text += "[ses main]\ncanonical = main_L main_A\n"
            ops.append({"argv": [cmd, writer.write(text), "--json"], "kind": cmd,
                        "family": family, "expect": {"free": free}})
    return ops


# ---------------------------------------------------------------------------
# interleave


def _unimodular(rng):
    """A small random 2x2 unimodular matrix and its inverse."""
    while True:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        if a in (1, -1):
            d = (1 + b * c) * a           # a*d - b*c = 1
            return [[a, b], [c, d]], [[d, -b], [-c, a]]


def _radical(n):
    n, out, p = abs(n), 1, 2
    while p * p <= n:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out * (n if n > 1 else 1)


SMALL = (2, 3, 4, 5, 6, -2, -3)


def interleave_pair(rng, family):
    """(A, B, truth) for one generator family; truth is iso or non_iso.

    power1: (Z, a) against (Z, a^2), pro-isomorphic (a subsequence);
    apart1: determinants with different prime sets, so no
    pro-isomorphism exists."""
    if family == "power1":
        a = rng.choice(SMALL)
        return [[a]], [[a * a]], "iso"
    if family == "apart1":
        while True:
            a, b = rng.choice(SMALL), rng.choice(SMALL)
            if _radical(a) != _radical(b):
                return [[a]], [[b]], "non_iso"
    raise ValueError(family)


def must_decide(family, cmd, depth):
    """Whether the answer must be decided: `interleave` must find a
    certificate and `compare` must give a verdict.

    - power1 and root2_pair: (Z^r, A) against (Z^r, A^2) (A^2 = 2I for
      root2_pair) has the certificate f_i = 1 from A-level 2i to B-level
      i, g_j = A^(j+1), with gaps (2, 1); the search reaches those gaps
      from depth 2 on.
    - apart1: lim1 separates, since Z_a/Z and Z_b/Z involve different
      primes, so `compare` decides without a search.  `interleave` must
      not find a certificate there, which the truth `non_iso` enforces.
    """
    if family in ("power1", "root2_pair"):
        return depth >= 2
    return family == "apart1" and cmd == "compare"


# One interleave pass: (family, command, depth, count).  The fixed cases
# are diag(2,3) vs diag(2,5) on Z^2, an exhaustive absent search at the
# largest depth a pass affords, and [[0,2],[1,0]] vs 2I (A^2 = 2I),
# found at depth 2.  Conjugate pairs of rank 2 can take seconds at
# depth 1; they are among the hard cases.
INTERLEAVE_BASE = (
    [("apart1", cmd, d, 3) for cmd in ("interleave", "compare") for d in (1, 2, 3, 4)]
    + [("power1", "interleave", d, 3) for d in (1, 2, 3)]
    + [("power1", "compare", d, 1) for d in (1, 2, 3)]
)
INTERLEAVE_FIXED = (
    ("diag_pair", "interleave", 1, [[2, 0], [0, 3]], [[2, 0], [0, 5]], "non_iso"),
    ("root2_pair", "interleave", 2, [[0, 2], [1, 0]], [[2, 0], [0, 2]], "iso"),
)


def _interleave_op(writer, family, cmd, depth, A, B, truth):
    return {"argv": [cmd, writer.write(pure_tail("a", A) + pure_tail("b", B)),
                     "--a", "a", "--b", "b", "--depth", str(depth), "--json"],
            "kind": cmd, "family": family,
            "expect": {"a": A, "b": B, "truth": truth,
                       "decided": must_decide(family, cmd, depth)}}


def interleave_base(writer):
    rng = _base_rng("interleave")
    base = [(family, cmd, depth) + interleave_pair(rng, family)
            for family, cmd, depth, count in INTERLEAVE_BASE for _ in range(count)]
    return [_interleave_op(writer, *q) for q in base + list(INTERLEAVE_FIXED)]


# ---------------------------------------------------------------------------
# shape

SHAPE_SPACES = (
    ("solenoid", (2,)), ("solenoid", (3,)), ("solenoid", (5,)),
    ("hawaiian", ()), ("cluster_solenoids", (2,)), ("null_sequence", ()),
)
# Largest telescope level per space, and the cech degrees with a closed form.
TELESCOPE_M = {("solenoid", (2,)): 4, ("solenoid", (3,)): 3, ("solenoid", (5,)): 2,
               ("hawaiian", ()): 5, ("cluster_solenoids", (2,)): 4,
               ("null_sequence", ()): 7}
CECH_DEGREES = {"solenoid": (0, 1), "null_sequence": (1,),
                "hawaiian": (), "cluster_solenoids": ()}


def _shape_op(writer, fam, params, cmd, extra):
    path = writer.write(stower("main", fam, params))
    return {"argv": [cmd, path] + extra + ["--json"], "kind": cmd, "family": fam,
            "expect": {"family": fam, "params": list(params), "extra": extra}}


def shape_base(writer):
    """Every shape query in the degrees and levels above on the registered
    spaces, each once.  With these 44 queries, the 90th percentile of
    three to five passes falls in the middle of the samples of one query
    of steady cost (telescope of solenoid(5) at m = 2), not on the edge
    between two queries."""
    ops = []
    for fam, params in SHAPE_SPACES:
        for degree in (0, 1):
            ops.append(_shape_op(writer, fam, params, "steenrod", ["--degree", str(degree)]))
        for degree in CECH_DEGREES[fam]:
            ops.append(_shape_op(writer, fam, params, "cech", ["--degree", str(degree)]))
        for m in range(1, TELESCOPE_M[(fam, params)] + 1):
            ops.append(_shape_op(writer, fam, params, "telescope", ["--m", str(m)]))
    return ops


# ---------------------------------------------------------------------------
# lab


def _lab_op(suite, seed, trials=LAB_TRIALS):
    return {"argv": ["lab", "--suite", suite, "--seed", str(seed), "--trials",
                     str(trials), "--json"],
            "kind": "lab", "family": suite, "expect": {"trials": trials}}


def lab_base(writer):
    """Each suite at eight suite seeds drawn from the fixed key: many
    cheap ops, so that the 90th percentile falls among many samples."""
    rng = _base_rng("lab")
    return [_lab_op(suite, rng.randrange(1 << 30)) for _ in range(8) for suite in LAB_SUITES]


BASES = {"tails": tails_base, "interleave": interleave_base,
         "shape": shape_base, "lab": lab_base}


def golden_ops(workload):
    return [{"argv": argv, "kind": argv[0], "family": "golden",
             "expect": {"golden": os.path.join("tests", "golden", name + ".json")}}
            for argv, name in GOLDEN[workload]]


# ---------------------------------------------------------------------------
# known cliffs and defects

# Dense rank-6 tails (entries |a| <= 3) on which `lim` gives up with
# NoStabilization in the factor search, in well under the 10 s limit of
# the hard cases, and one on which it runs past that limit.
NO_STABILIZATION_TAILS = (
    [[2, 2, 0, 3, 0, -2], [0, -2, 0, -3, -1, 1], [3, -2, 3, 2, -1, -3],
     [-3, 3, 3, 3, -1, 2], [-1, -3, -2, -1, 3, 0], [0, -1, -1, 3, 1, 0]],
    [[-2, -1, 3, 2, -2, -2], [-2, -1, -3, -3, 0, 1], [-1, -1, -1, -1, -3, -3],
     [-1, -2, 3, 3, 2, 2], [0, 3, 0, 3, -3, 2], [-3, 2, 0, 1, 3, -3]],
    [[1, -1, 3, 1, -3, 0], [-1, 1, 1, -3, 1, 1], [-1, -3, 2, 1, 3, 2],
     [3, 0, 2, -2, 2, -1], [2, -1, 3, 3, 0, 1], [-3, 0, -1, 0, 1, -1]],
)
SLOW_TAIL = [[2, -1, -3, 1, 1, 2], [3, -1, 2, 0, 3, -3], [-3, 2, 3, 3, 0, 0],
             [-2, 0, 3, -2, 3, -2], [0, 3, -2, -1, -3, -1], [2, 3, -1, 3, -1, 2]]


def hard_ops(workload, writer):
    """Known cliffs and defects, run apart from the timed passes.

    They are the same in every run, and stay here until a change to the
    program removes them; the benchmark reports how many of them still
    fail or are answered wrongly.
    """
    rng = _base_rng(workload, "hard")
    ops = []
    if workload == "tails":
        # non_ml index: chain indices 12, 12, 12, 6, ... so the stable index is 6
        text = (diag_group("T", [8, 0]) + hom("A", "T", "T", [[2, -1], [0, 6]])
                + tower("main", "T", "A"))
        ops.append({"argv": ["ml", writer.write(text), "--json"], "kind": "ml",
                    "family": "non_ml_index",
                    "expect": {"free": [[6]], "stable_index": 6}})
        for rows in NO_STABILIZATION_TAILS + (SLOW_TAIL,):
            ops.append({"argv": ["lim", writer.write(pure_tail("main", rows)), "--json"],
                        "kind": "lim", "family": "dense_cliff", "expect": {"free": rows}})
    elif workload == "interleave":
        # compare says not_isomorphic, but A^2 = 2I makes the towers pro-isomorphic
        A, B = [[0, 2], [1, 0]], [[2, 0], [0, 2]]
        for depth in (1, 2):
            ops.append(_interleave_op(writer, "root2_pair", "compare", depth, A, B, "iso"))
        # power pairs whose characteristic polynomial is irreducible
        for _ in range(2):
            while True:
                A = _rand_matrix(rng, 2, 2)
                tr, det = A[0][0] + A[1][1], _det(A)
                disc = tr * tr - 4 * det
                if abs(det) > 1 and (disc < 0 or math.isqrt(abs(disc)) ** 2 != disc):
                    break
            ops.append(_interleave_op(writer, "power_irreducible", "compare", 2,
                                      A, matmul(A, A), "iso"))
        # a conjugate pair whose search runs past depth 1
        A = [[-1, 2], [-2, -2]]
        P, Pinv = _unimodular(rng)
        ops.append(_interleave_op(writer, "conj_cliff", "interleave", 2,
                                  A, matmul(matmul(P, A), Pinv), "iso"))
        # the absent search on Z^2 at depth 2
        ops.append(_interleave_op(writer, "diag_pair", "interleave", 2,
                                  [[2, 0], [0, 3]], [[2, 0], [0, 5]], "non_iso"))
    elif workload == "shape":
        for fam, params in (("hawaiian", ()), ("cluster_solenoids", (2,)),
                            ("null_sequence", ())):
            for degree in ((0,) if fam == "null_sequence" else (0, 1)):
                ops.append(_shape_op(writer, fam, params, "cech",
                                     ["--degree", str(degree)]))
        ops.append(_shape_op(writer, "solenoid", (5,), "telescope", ["--m", "3"]))
    elif workload == "lab":
        # a six_term_exact draw whose factor search gives up (NoStabilization)
        ops.append(_lab_op("six_term_exact", 1018182623, trials=10))
    return ops
