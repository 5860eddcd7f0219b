"""Independent checks of every answer.

`judge(op, result)` returns "ok", "failed" or "wrong".  An op failed if
it raised, exited nonzero, hit the per-op time limit, or gave an answer
the oracle cannot accept as decided; it is wrong (and failed) if the
oracle contradicts its decided answer.

The oracle uses its own arithmetic: characteristic polynomials and
their factorizations come from sympy (imported here only, never by the
program), interleaving certificates are re-multiplied with plain
integer lists, and the shape answers are compared with hand-written
closed forms.
"""

import functools
import json

import sympy

from workloads import matmul

X = sympy.Symbol("x")


def tail_truth(rows):
    """(unit, rest): in det(xI - A), the total degree of the irreducible
    factors with constant term +-1, and of those other than x."""
    return _tail_truth(tuple(map(tuple, rows)))


@functools.lru_cache(maxsize=None)
def _tail_truth(rows):
    if not rows:
        return 0, 0
    poly = sympy.Matrix(rows).charpoly(X).as_expr()
    unit = rest = 0
    for f, mult in sympy.factor_list(poly, X)[1]:
        p = sympy.Poly(f, X)
        c0 = p.eval(0)
        if abs(c0) == 1:
            unit += p.degree() * mult
        elif c0 != 0:
            rest += p.degree() * mult
    return unit, rest


def _fg_rank(sg):
    if sg["tag"] == "zero":
        return 0
    if sg["tag"] == "fg":
        return sg["invariants"]["rank"]
    return None


def _completion_rank(sg):
    """Lattice rank of a completion (quotient) term; 0 for the zero group."""
    if sg["tag"] == "zero":
        return 0
    if sg["tag"] in ("completion_quotient", "completion"):
        return sg["lattice_rank"]
    return None


def _check_tails(kind, result, expect):
    unit, rest = tail_truth(expect["free"])
    if kind == "lim":
        return _fg_rank(result) == unit
    if kind == "lim1":
        return _completion_rank(result) == rest and (
            rest == 0 or result["tag"] == "completion_quotient")
    if kind == "ml":
        ml = result["ml"]
        good = (ml["holds"] == (rest == 0) and result["dual_ml"]["holds"]
                and result["virtually_ml"]["holds"]
                and result["nearly_ml"]["holds"] == ml["holds"])
        if "stable_index" in expect:
            cert = ml["certificate"]
            good = good and cert.get("stable_index") == expect["stable_index"]
        return good
    if kind == "six-term":
        r = len(expect["free"])
        return (_fg_rank(result["lim_sub"]) == unit
                and _fg_rank(result["lim_total"]) == r
                and _completion_rank(result["lim_quot"]) == rest
                and _completion_rank(result["lim1_sub"]) == rest
                and result["lim1_total"]["tag"] == "zero"
                and result["lim1_quot"]["tag"] == "zero"
                and all(j["verdict"] in ("verified", "consistent")
                        for j in result["joints"]))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# interleaving certificates


def _power(a, k):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = matmul(out, a)
    return out


def verify_certificate(A, B, cert):
    """Every square commutes and the composites equal the bond powers.

    Forward map f_i goes from A-level (ga*i + c1) to B-level i, backward
    map g_j from B-level (gb*j + c2) to A-level j (free lattices, so the
    identities are exact matrix equalities).
    """
    ga, gb = cert["gap_forward"], cert["gap_backward"]
    c1, c2 = cert["offset_forward"], cert["offset_backward"]
    fs, gs = cert["forward"], cert["backward"]
    if min(ga, gb) < 1 or min(c1, c2) < 0 or len(fs) != len(gs) or not fs:
        return False
    window = len(fs) - 1
    Aga, Bgb = _power(A, ga), _power(B, gb)
    for i in range(window):
        if matmul(B, fs[i + 1]) != matmul(fs[i], Aga):
            return False
        if matmul(A, gs[i + 1]) != matmul(gs[i], Bgb):
            return False
    for j in range(cert["checked_levels"] + 1):
        psi = gb * j + c2
        phi = ga * j + c1
        if psi > window or phi > window:
            return False
        if matmul(gs[j], fs[psi]) != _power(A, ga * psi + c1 - j):
            return False
        if matmul(fs[j], gs[phi]) != _power(B, gb * phi + c2 - j):
            return False
    return True


def _check_interleave(kind, result, expect):
    """"ok", "failed" or "wrong".  An undecided answer (no certificate
    found, or `undecided`) is accepted from a bounded search, except
    where the answer must be decided (workloads.must_decide); there it
    fails."""
    A, B, truth = expect["a"], expect["b"], expect["truth"]
    if kind == "interleave":
        if not result["found"]:
            return "failed" if expect["decided"] else "ok"
        good = truth != "non_iso" and verify_certificate(A, B, result["certificate"])
        return "ok" if good else "wrong"
    verdict = result["kind"]
    if verdict == "isomorphic":
        good = (truth != "non_iso" and "witness" in result
                and verify_certificate(A, B, result["witness"]))
        return "ok" if good else "wrong"
    if verdict == "not_isomorphic":
        return "ok" if truth != "iso" else "wrong"
    if verdict == "undecided":
        return "failed" if expect["decided"] else "ok"
    return "wrong"


# ---------------------------------------------------------------------------
# shape closed forms (README notation)


def _steenrod_form(fam, p, degree):
    """Hand-written Steenrod homology of the registered compacta."""
    if degree >= 1:
        return "prod Z" if fam == "hawaiian" and degree == 1 else "0"
    if fam == "solenoid":
        return "Z (+) Z_%d/Z" % p
    if fam == "cluster_solenoids":
        return "Z (+) prod(Z_%d/Z)" % p
    if fam == "hawaiian":
        return "Z"
    if fam == "null_sequence":
        return "prod Z"
    raise ValueError(fam)


def _cech_ok(fam, p, degree, result):
    """Pontryagin cohomology: Z[1/p] for solenoids in degree 1, Z in degree 0
    for the connected spaces, a countable direct sum where the level ranks
    grow (degree 0 of the null sequence, degree 1 of the wedges)."""
    if fam == "solenoid":
        return result["render"] == {0: "Z", 1: "Z[1/%d]" % p}.get(degree, "0")
    sum_degree = 0 if fam == "null_sequence" else 1
    if degree == sum_degree:
        return result["tag"] not in ("zero", "fg") and not result["is_uncountable"]
    if degree == 0:
        return result["render"] == "Z"
    return result["render"] == "0"


def _level0_homology(fam):
    """(rank, torsion) of level 0 by degree: a circle or a point."""
    return {0: [1, []], 1: [1, []]} if fam == "solenoid" else {0: [1, []]}


def _check_shape(kind, result, expect):
    fam, extra = expect["family"], expect["extra"]
    p = expect["params"][0] if expect["params"] else None
    if kind == "steenrod":
        degree = int(extra[1])
        return result["render"] == _steenrod_form(fam, p, degree)
    if kind == "cech":
        return _cech_ok(fam, p, int(extra[1]), result)
    if kind == "telescope":
        want = _level0_homology(fam)
        return (result["retracts_to_level0"] and result["levels"] == int(extra[1])
                and all(row["level0"] == want.get(row["degree"], [0, []])
                        and row["telescope"] == row["level0"]
                        for row in result["homology"]))
    raise ValueError(kind)


# ---------------------------------------------------------------------------


def _check_lab(result, expect):
    return result["failed"] == 0 and result["passed"] == expect["trials"]


def judge(op, res):
    """"ok", "failed" or "wrong" for one op and its worker result."""
    expect = op["expect"]
    text = res["report_text"]
    if text is None:
        return "failed"
    if "golden" in expect:
        with open(expect["golden"], encoding="utf-8") as fh:
            return "ok" if text == fh.read() else "wrong"
    result = json.loads(text)["result"]
    kind = op["kind"]
    if result.get("tag") == "depth_limited":
        return "failed"
    if kind == "lab":
        verdict = "ok" if _check_lab(result, expect) else "wrong"
    elif kind in ("interleave", "compare"):
        verdict = _check_interleave(kind, result, expect)
    elif kind in ("steenrod", "cech", "telescope"):
        verdict = "ok" if _check_shape(kind, result, expect) else "wrong"
    else:
        verdict = "ok" if _check_tails(kind, result, expect) else "wrong"
    if verdict == "ok" and res["code"] != 0:
        return "failed"
    return verdict
