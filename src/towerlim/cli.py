"""Command line front end.

Commands: lim, lim1, ml, six-term, steenrod, cech, interleave, compare,
telescope, lab.  Input is a tower description file (see towerfile);
output is a human-readable line or, with --json, a machine-readable
report.  Exit codes: 0 success, 2 parse error, 3 depth-limited or too
large, 4 ill-defined input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .exactlat import IllDefined
from .lab import LabConfig, SUITE_NAMES, UnknownSuite, run_suite
from .limits import TooLarge, derived_limit, limit, ml_conditions, six_term
from .procat import compare_invariants, find_interleaving, separating_invariant
from .report import build_report, input_digest, report_json
from .shape import (
    DegreeMismatch,
    ShapeError,
    cech_cohomology,
    steenrod,
    telescope,
)
from .simplicial import SimplicialError, homology_invariants
from .towerfile import DimensionMismatch, ParseError, UnresolvedReference, parse
from .towers import PeriodicTower, TowerError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEPTH = 3
EXIT_ILL_DEFINED = 4


@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="towerlim",
        description="Exact limits, derived limits and Steenrod homology "
                    "of towers of finitely generated abelian groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, needs_file=True, **kw):
        p = sub.add_parser(name, **kw)
        if needs_file:
            p.add_argument("file", help="tower description file")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        return p

    p = add("lim", help="inverse limit of a tower")
    p.add_argument("--tower", default=None)
    p = add("lim1", help="derived limit of a tower")
    p.add_argument("--tower", default=None)
    p = add("ml", help="Mittag-Leffler condition family")
    p.add_argument("--tower", default=None)
    p = add("six-term", help="six-term exact sequence of a tower SES")
    p.add_argument("--ses", default=None)
    p = add("steenrod", help="Steenrod homology descriptor of a simplicial tower")
    p.add_argument("--stower", default=None)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    p = add("cech", help="Pontryagin (Cech) cohomology of a simplicial tower")
    p.add_argument("--stower", default=None)
    p.add_argument("--degree", type=int, required=True)
    p = add("interleave", help="search for a pro-isomorphism certificate")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--depth", type=int, default=4)
    p = add("compare", help="decide pro-isomorphism via lim/lim1 invariants")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--depth", type=int, default=4)
    p = add("telescope", help="finite mapping telescope homology")
    p.add_argument("--stower", default=None)
    p.add_argument("--m", type=int, required=True)
    p = add("lab", needs_file=False, help="randomized property suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--depth", type=int, default=12)
    return ap


def _pick(table, name, what):
    if name is not None:
        if name not in table:
            raise UnresolvedReference(name)
        return table[name]
    if "main" in table:
        return table["main"]
    if len(table) == 1:
        return next(iter(table.values()))
    raise UnresolvedReference("pick a %s with --%s (found: %s)"
                              % (what, what, ", ".join(sorted(table))))


def dispatch(argv):
    """Run one command; returns (exit_code, report dict, human text)."""
    args = _build_parser().parse_args(argv)
    if args.command == "lab":
        cfg = LabConfig(master_seed=args.seed, trials=args.trials, depth=args.depth)
        rep = run_suite(cfg, args.suite)
        digest = input_digest(repr(sorted(cfg.to_json().items())))
        report = build_report("lab", rep.to_json(), digest,
                              depth_used=cfg.depth,
                              warnings=[] if rep.ok else ["suite failed"])
        text = "lab %s: %d/%d passed (%.2fs)" % (
            args.suite, rep.passed, rep.passed + rep.failed, rep.elapsed)
        return (EXIT_OK if rep.ok else 1), report, text

    with open(args.file, "rb") as fh:
        raw = fh.read()
    digest = input_digest(raw)
    doc = parse(args.file)

    if args.command == "lim":
        t = _pick(doc.towers, args.tower, "tower")
        sg = limit(t)
        report = build_report("lim", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "lim = %s" % _decorate(sg)
    if args.command == "lim1":
        t = _pick(doc.towers, args.tower, "tower")
        sg = derived_limit(t)
        report = build_report("lim1", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "lim1 = %s" % _decorate(sg)
    if args.command == "ml":
        t = _pick(doc.towers, args.tower, "tower")
        rep = ml_conditions(t)
        report = build_report("ml", rep.to_json(), digest)
        text = ("ml: %s; dual: %s; virtually: %s; nearly: %s"
                % (rep.ml.holds, rep.dual_ml.holds,
                   rep.virtually_ml.holds, rep.nearly_ml.holds))
        return EXIT_OK, report, text
    if args.command == "six-term":
        ses = _pick(doc.ses, args.ses, "ses")
        rep = six_term(ses)
        joints = ["%s:%s" % (j.position, j.verdict) for j in rep.joints]
        report = build_report("six-term", rep.to_json(), digest,
                              depth_used=ses.verified_to, verified_joints=joints)
        names = ("lim K", "lim G", "lim Q", "lim1 K", "lim1 G", "lim1 Q")
        text = "; ".join("%s = %s" % (n, v.render())
                         for n, v in zip(names, rep.terms()))
        return EXIT_OK, report, text
    if args.command == "steenrod":
        st = _pick(doc.stowers, args.stower, "stower")
        d = steenrod(st, args.degree, args.reduced)
        report = build_report("steenrod", d.to_json(), digest)
        text = ("H_%d%s: lim1 part %s, lim part %s, splits %s -> %s"
                % (d.degree, " reduced" if d.reduced else "",
                   d.lim1_part.render(), d.lim_part.render(), d.splits, d.render()))
        return EXIT_OK, report, text
    if args.command == "cech":
        st = _pick(doc.stowers, args.stower, "stower")
        sg = cech_cohomology(st, args.degree)
        report = build_report("cech", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "H^%d = %s" % (args.degree, sg.render())
    if args.command == "interleave":
        a = _pick(doc.towers, args.a, "tower")
        b = _pick(doc.towers, args.b, "tower")
        # lim and lim1 are pro-invariants: when they differ, no depth helps
        if isinstance(a, PeriodicTower) and isinstance(b, PeriodicTower):
            reason = separating_invariant(a, b)
            if reason is not None:
                report = build_report("interleave", {"found": False, "reason": reason},
                                      digest, depth_used=args.depth)
                return (EXIT_OK, report,
                        "absent (no interleaving at any depth: %s)" % reason)
        truncated = []
        cert = find_interleaving(a, b, args.depth, truncated)
        result = {"found": cert is not None}
        if cert is not None:
            result["certificate"] = cert.to_json()
        warnings = [] if cert else [
            "search cut short by the candidate cap in cell gaps (%d, %d) offsets (%d, %d)"
            % cell for cell in truncated]
        report = build_report("interleave", result, digest, depth_used=args.depth,
                              warnings=warnings)
        if cert:
            text = "interleaving found"
        elif warnings:
            text = "not found (searched to depth %d, %d cells cut short)" % (
                args.depth, len(warnings))
        else:
            text = "absent (searched to depth %d)" % args.depth
        return EXIT_OK, report, text
    if args.command == "compare":
        a = _pick(doc.towers, args.a, "tower")
        b = _pick(doc.towers, args.b, "tower")
        verdict = compare_invariants(a, b, depth=args.depth)
        report = build_report("compare", verdict.to_json(), digest,
                              depth_used=args.depth)
        return EXIT_OK, report, "%s: %s" % (verdict.kind, verdict.reason)
    if args.command == "telescope":
        st = _pick(doc.stowers, args.stower, "stower")
        tel = telescope(st, args.m)
        base = st.complex_at(0)
        degrees = range(0, max(base.dimension, tel.complex.dimension) + 1)
        rows = []
        retracts = True
        for n in degrees:
            got = homology_invariants(tel.complex, n)
            want = homology_invariants(base, n)
            retracts &= (got == want)
            rows.append({"degree": n, "telescope": list(got[0:1]) + [got[1]],
                         "level0": list(want[0:1]) + [want[1]]})
        result = {"levels": args.m, "homology": rows, "retracts_to_level0": retracts}
        report = build_report("telescope", result, digest, depth_used=args.m)
        text = "telescope of %d levels %s level 0 homology" % (
            args.m, "matches" if retracts else "DIFFERS FROM")
        return EXIT_OK if retracts else 1, report, text
    raise AssertionError("unreachable command")


def _decorate(sg):
    text = sg.render()
    if sg.is_uncountable:
        text += " (uncountable)"
    return text


def _result_code(sg):
    return EXIT_DEPTH if sg.tag == "depth_limited" else EXIT_OK


def _depth_warnings(sg):
    if sg.tag == "depth_limited":
        return ["result is depth-limited: %s" % sg.descriptor]
    return []


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, report, text = dispatch(argv)
    except (ParseError, UnresolvedReference, DimensionMismatch) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print("depth limited: %s" % exc, file=sys.stderr)
        return EXIT_DEPTH
    except (IllDefined, TowerError, SimplicialError, ShapeError,
            DegreeMismatch, UnknownSuite, ValueError) as exc:
        print("ill-defined input: %s" % exc, file=sys.stderr)
        return EXIT_ILL_DEFINED
    except FileNotFoundError as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if "--json" in argv:
        sys.stdout.write(report_json(report))
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
