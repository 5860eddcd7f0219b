"""Command line front end.

Commands: lim, lim1, ml, six-term, steenrod, cech, interleave, compare,
telescope, lab.  Input is a tower description file (see towerfile);
output is a human-readable line or, with --json, a machine-readable
report.  Exit codes: 0 success, 2 parse error, 3 depth-limited or past a
resource bound, 4 ill-defined input.
"""

import argparse
import functools
import sys

from .errors import DegreeMismatch, ShapeError, SimplicialError, TooLarge, UnknownSuite
from .exactlat import IllDefined
from .limits import derived_limit, limit, ml_conditions, six_term
from .report import build_report, input_digest, report_json
from .towerfile import DimensionMismatch, ParseError, UnresolvedReference, parse
from .towers import PeriodicTower, TowerError

# procat, shape, simplicial and lab are imported by the commands that run
# them, so the tower commands start without them.

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEPTH = 3
EXIT_ILL_DEFINED = 4


def _tower_args(p):
    p.add_argument("--tower", default=None)


def _ses_args(p):
    p.add_argument("--ses", default=None)


def _cech_args(p):
    p.add_argument("--stower", default=None)
    p.add_argument("--degree", type=int, required=True)


def _steenrod_args(p):
    _cech_args(p)
    p.add_argument("--reduced", action="store_true")


def _pair_args(p):
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--depth", type=int, default=4)


def _telescope_args(p):
    p.add_argument("--stower", default=None)
    p.add_argument("--m", type=int, required=True)


def _lab_args(p):
    from .lab import SUITE_NAMES
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--depth", type=int, default=12)


# name -> (help, its arguments after FILE and --json); lab reads no FILE
_COMMANDS = {
    "lim": ("inverse limit of a tower", _tower_args),
    "lim1": ("derived limit of a tower", _tower_args),
    "ml": ("Mittag-Leffler condition family", _tower_args),
    "six-term": ("six-term exact sequence of a tower SES", _ses_args),
    "steenrod": ("Steenrod homology descriptor of a simplicial tower", _steenrod_args),
    "cech": ("Pontryagin (Cech) cohomology of a simplicial tower", _cech_args),
    "interleave": ("search for a pro-isomorphism certificate", _pair_args),
    "compare": ("decide pro-isomorphism via lim/lim1 invariants", _pair_args),
    "telescope": ("finite mapping telescope homology", _telescope_args),
    "lab": ("randomized property suites", _lab_args),
}


@functools.cache
def _build_parser(names):
    """The parser with the subparsers of NAMES.  Its usage line names every
    command even when NAMES is one of them.  No option may be abbreviated,
    so each has one spelling and main reads --json off argv as given."""
    ap = argparse.ArgumentParser(
        prog="towerlim", allow_abbrev=False,
        description="Exact limits, derived limits and Steenrod homology "
                    "of towers of finitely generated abelian groups.")
    every = None if len(names) == len(_COMMANDS) else "{%s}" % ",".join(_COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_text, add_args = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name != "lab":
            p.add_argument("file", help="tower description file")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        add_args(p)
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
    # only the subparser of the command being run is built; an unknown
    # command or a bare --help gets the full listing
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = _build_parser(names).parse_args(argv)
    # refused before any work, as telescope refuses a negative m
    for name in ("depth", "trials"):
        if getattr(args, name, 0) < 0:
            raise ValueError("%s needs %s >= 0" % (args.command, name))
    if args.command == "lab":
        from .lab import LabConfig, run_suite
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
        from .shape import steenrod
        st = _pick(doc.stowers, args.stower, "stower")
        d = steenrod(st, args.degree, args.reduced)
        report = build_report("steenrod", d.to_json(), digest)
        text = ("H_%d%s: lim1 part %s, lim part %s, splits %s -> %s"
                % (d.degree, " reduced" if d.reduced else "",
                   d.lim1_part.render(), d.lim_part.render(), d.splits, d.render()))
        return EXIT_OK, report, text
    if args.command == "cech":
        from .shape import cech_cohomology
        st = _pick(doc.stowers, args.stower, "stower")
        sg = cech_cohomology(st, args.degree)
        report = build_report("cech", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "H^%d = %s" % (args.degree, sg.render())
    if args.command == "interleave":
        from .procat import find_interleaving, separating_invariant
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
        from .procat import compare_invariants
        a = _pick(doc.towers, args.a, "tower")
        b = _pick(doc.towers, args.b, "tower")
        verdict = compare_invariants(a, b, depth=args.depth)
        report = build_report("compare", verdict.to_json(), digest,
                              depth_used=args.depth)
        return EXIT_OK, report, "%s: %s" % (verdict.kind, verdict.reason)
    if args.command == "telescope":
        from .shape import telescope
        from .simplicial import homology_invariants
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
        print("too large: %s" % exc, file=sys.stderr)
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
