"""Command line front end.

Commands: lim, lim1, ml, six-term, steenrod, cech, interleave, compare,
telescope, lab.  Input is a tower description file (see towerfile);
output is a human-readable line or, with --json, a machine-readable
report.  Exit codes: 0 success, 2 parse error, 3 depth-limited or past a
resource bound, 4 ill-defined input.
"""

import re
import sys

from .errors import DegreeMismatch, ShapeError, SimplicialError, TooLarge, UnknownSuite
from .exactlat import IllDefined
from .limits import derived_limit, limit, ml_conditions, six_term
from .report import build_report, input_digest, report_json
from .towerfile import (DimensionMismatch, MissingSection, ParseError, UnresolvedReference,
                        parse)
from .towers import PeriodicTower, TowerError

# procat, shape, simplicial and lab are imported by the commands that run
# them, so the tower commands start without them.

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEPTH = 3
EXIT_ILL_DEFINED = 4


def _suite_names():
    from .lab import SUITE_NAMES
    return SUITE_NAMES


# an option is (spelling, type, default, required, choices): type bool is a
# flag that takes no value, and choices, when not None, is a function that
# returns the allowed values
_TOWER = (("--tower", str, None, False, None),)
_STOWER = ("--stower", str, None, False, None)
_DEGREE = ("--degree", int, None, True, None)
_PAIR = (("--a", str, None, True, None), ("--b", str, None, True, None),
         ("--depth", int, 4, False, None))

# name -> (help, whether it reads FILE, its options after --json)
_COMMANDS = {
    "lim": ("inverse limit of a tower", True, _TOWER),
    "lim1": ("derived limit of a tower", True, _TOWER),
    "ml": ("Mittag-Leffler condition family", True, _TOWER),
    "six-term": ("six-term exact sequence of a tower SES", True,
                 (("--ses", str, None, False, None),)),
    "steenrod": ("Steenrod homology descriptor of a simplicial tower", True,
                 (_STOWER, _DEGREE, ("--reduced", bool, False, False, None))),
    "cech": ("Pontryagin (Cech) cohomology of a simplicial tower", True,
             (_STOWER, _DEGREE)),
    "interleave": ("search for a pro-isomorphism certificate", True, _PAIR),
    "compare": ("decide pro-isomorphism via lim/lim1 invariants", True, _PAIR),
    "telescope": ("finite mapping telescope homology", True,
                  (_STOWER, ("--m", int, None, True, None))),
    "lab": ("randomized property suites", False, (
        ("--suite", str, None, True, _suite_names),
        ("--seed", int, 42, False, None),
        ("--trials", int, 200, False, None),
        ("--depth", int, 12, False, None))),
}

_JSON = ("--json", bool, False, False, None)
_HELP = ("-h", "--help")
_DESCRIPTION = ("Exact limits, derived limits and Steenrod homology of towers of finitely\n"
                "generated abelian groups.")
# what argparse takes for a negative number, a value rather than an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _options(name):
    """Every option of command NAME, --json first."""
    return (_JSON,) + _COMMANDS[name][2]


def _spelling(option):
    flag, kind, _, _, choices = option
    if kind is bool:
        return flag
    return "%s %s" % (flag, "{%s}" % ",".join(choices()) if choices else flag[2:].upper())


def _usage(name):
    if name is None:
        return "usage: towerlim [-h] {%s} ..." % ",".join(_COMMANDS)
    words = ["[-h]"] + [_spelling(o) if o[3] else "[%s]" % _spelling(o)
                        for o in _options(name)]
    if _COMMANDS[name][1]:
        words.append("file")
    return "usage: towerlim %s %s" % (name, " ".join(words))


def _help(name):
    """The --help text of the program (NAME None) or of one command, its
    help column placed as argparse places it."""
    options = [(2, "-h, --help", "show this help message and exit")]
    if name is None:
        head = [_usage(None), _DESCRIPTION]
        commands = [(2, "{%s}" % ",".join(_COMMANDS), "")]
        commands += [(4, n, spec[0]) for n, spec in _COMMANDS.items()]
        sections = [("positional arguments", commands), ("options", options)]
    else:
        head = [_usage(name)]
        sections = []
        if _COMMANDS[name][1]:
            sections.append(("positional arguments", [(2, "file", "tower description file")]))
        options.append((2, "--json", "emit the machine-readable report"))
        options += [(2, _spelling(o), "") for o in _COMMANDS[name][2]]
        sections.append(("options", options))
    column = min(max(indent + len(words) for _, rows in sections
                     for indent, words, _ in rows) + 2, 24)
    for title, rows in sections:
        lines = [title + ":"]
        for indent, words, text in rows:
            line = " " * indent + words
            if text and len(line) + 2 <= column:
                line = line.ljust(column) + text
            elif text:
                line += "\n" + " " * column + text
            lines.append(line)
        head.append("\n".join(lines))
    return "\n\n".join(head) + "\n"


def _refuse(name, message):
    """Exit 2 with argparse's usage and error lines on stderr."""
    prog = "towerlim" if name is None else "towerlim " + name
    sys.stderr.write("%s\n%s: error: %s\n" % (_usage(name), prog, message))
    raise SystemExit(EXIT_PARSE)


def _split(arg, flags):
    """(flag, explicit value or None) of an option-like ARG, flag "" when no
    option in FLAGS or -h/--help matches; None when ARG is a value.  A
    single-dash -h runs on into its explicit value, as in -hh."""
    if not arg or arg[0] != "-" or arg == "-":
        return None
    if arg in flags or arg in _HELP:
        return arg, None
    flag, eq, value = arg.partition("=")
    if eq and (flag in flags or flag in _HELP):
        return flag, value
    if arg.startswith("-h"):
        return "-h", arg[2:]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return "", None


def _take_help(name, flag, explicit):
    """Print the help of NAME and exit 0, unless -h/--help was given a
    value that is not more h's."""
    if explicit is not None:
        # -hh is -h twice; -h= and --help=h give a value
        rest = explicit.lstrip("h") if flag == "-h" else explicit
        if rest or not explicit:
            _refuse(name, "argument -h/--help: ignored explicit argument %r" % rest)
    sys.stdout.write(_help(name))
    raise SystemExit(EXIT_OK)


def _parse_argv(argv):
    """The command of ARGV and the values of its FILE and options, as a
    dict keyed "command", "file" and the option names without dashes.

    It reads ARGV as argparse reads the parser that `_COMMANDS` describes
    (no abbreviations): `--opt value` or `--opt=value`, options before or
    after FILE, a negative number as a value, the last of a repeated
    option, and everything after `--` as values.  -h or --help prints the
    help and exits 0; anything else it cannot read exits 2 with
    argparse's usage line and message on stderr.
    """
    extras = []
    for i, arg in enumerate(argv):
        option = _split(arg, ())
        if option is None or (arg == "--" and i + 1 < len(argv)):
            break
        if option[0]:
            _take_help(None, *option)
        extras.append(arg)
    else:
        _refuse(None, "the following arguments are required: command")
    name = argv[i]
    if name not in _COMMANDS:
        _refuse(None, "argument command: invalid choice: %r (choose from %s)"
                % (name, ", ".join(map(repr, _COMMANDS))))
    takes_file, options = _COMMANDS[name][1], _options(name)
    specs = {o[0]: o for o in options}
    args = {"command": name, **{o[0][2:]: o[2] for o in options}}
    rest = argv[i + 1:]
    at = None           # the index of FILE in rest
    ended = False       # past the first --
    seen = set()
    k = 0
    while k < len(rest):
        arg = rest[k]
        k += 1
        if arg == "--" and not ended:
            # argparse hands this -- to FILE when FILE comes next to it
            ended = True
            if not (takes_file and (k - 2 == at or (at is None and k < len(rest)))):
                extras.append(arg)
            continue
        option = None if ended else _split(arg, specs)
        if option is None:
            if takes_file and at is None:
                at = k - 1
            else:
                extras.append(arg)
            continue
        flag, explicit = option
        if flag in _HELP:
            _take_help(name, flag, explicit)
        if not flag:
            extras.append(arg)
            continue
        _, kind, _, _, choices = specs[flag]
        seen.add(flag)
        if kind is bool:
            if explicit is not None:
                _refuse(name, "argument %s: ignored explicit argument %r" % (flag, explicit))
            args[flag[2:]] = True
            continue
        if explicit is None:
            if k == len(rest) or rest[k] == "--" or _split(rest[k], specs) is not None:
                _refuse(name, "argument %s: expected one argument" % flag)
            explicit = rest[k]
            k += 1
        value = explicit
        if kind is int:
            try:
                value = int(explicit)
            except ValueError:
                _refuse(name, "argument %s: invalid int value: %r" % (flag, explicit))
        if choices is not None and value not in choices():
            _refuse(name, "argument %s: invalid choice: %r (choose from %s)"
                    % (flag, value, ", ".join(map(repr, choices()))))
        args[flag[2:]] = value
    missing = (["file"] if takes_file and at is None else []) + [
        o[0] for o in options if o[3] and o[0] not in seen]
    if missing:
        _refuse(name, "the following arguments are required: %s" % ", ".join(missing))
    if extras:
        _refuse(None, "unrecognized arguments: %s" % " ".join(extras))
    if takes_file:
        args["file"] = rest[at]
    return args


def _pick(table, name, what):
    if name is not None:
        if name not in table:
            raise UnresolvedReference(name)
        return table[name]
    if "main" in table:
        return table["main"]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise MissingSection(what)
    raise UnresolvedReference("pick a %s with --%s (found: %s)"
                              % (what, what, ", ".join(sorted(table))))


def dispatch(argv):
    """Run one command; returns (exit_code, report dict, human text)."""
    args = _parse_argv(argv)
    command = args["command"]
    # refused before any work, as telescope refuses a negative m
    for name in ("depth", "trials"):
        if args.get(name, 0) < 0:
            raise ValueError("%s needs %s >= 0" % (command, name))
    if command == "lab":
        from .lab import LabConfig, run_suite
        cfg = LabConfig(master_seed=args["seed"], trials=args["trials"], depth=args["depth"])
        rep = run_suite(cfg, args["suite"])
        digest = input_digest(repr(sorted(cfg.to_json().items())))
        report = build_report("lab", rep.to_json(), digest,
                              depth_used=cfg.depth,
                              warnings=[] if rep.ok else ["suite failed"])
        text = "lab %s: %d/%d passed (%.2fs)" % (
            args["suite"], rep.passed, rep.passed + rep.failed, rep.elapsed)
        return (EXIT_OK if rep.ok else 1), report, text

    # FILE is read once: the digest and the document come from its bytes
    with open(args["file"], "rb") as fh:
        raw = fh.read()
    digest = input_digest(raw)
    doc = parse(raw)

    if command == "lim":
        t = _pick(doc.towers, args["tower"], "tower")
        sg = limit(t)
        report = build_report("lim", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "lim = %s" % _decorate(sg)
    if command == "lim1":
        t = _pick(doc.towers, args["tower"], "tower")
        sg = derived_limit(t)
        report = build_report("lim1", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "lim1 = %s" % _decorate(sg)
    if command == "ml":
        t = _pick(doc.towers, args["tower"], "tower")
        rep = ml_conditions(t)
        report = build_report("ml", rep.to_json(), digest)
        text = ("ml: %s; dual: %s; virtually: %s; nearly: %s"
                % (rep.ml.holds, rep.dual_ml.holds,
                   rep.virtually_ml.holds, rep.nearly_ml.holds))
        return EXIT_OK, report, text
    if command == "six-term":
        ses = _pick(doc.ses, args["ses"], "ses")
        rep = six_term(ses)
        joints = ["%s:%s" % (j.position, j.verdict) for j in rep.joints]
        report = build_report("six-term", rep.to_json(), digest,
                              depth_used=ses.verified_to, verified_joints=joints)
        names = ("lim K", "lim G", "lim Q", "lim1 K", "lim1 G", "lim1 Q")
        text = "; ".join("%s = %s" % (n, v.render())
                         for n, v in zip(names, rep.terms()))
        return EXIT_OK, report, text
    if command == "steenrod":
        from .shape import steenrod
        st = _pick(doc.stowers, args["stower"], "stower")
        d = steenrod(st, args["degree"], args["reduced"])
        report = build_report("steenrod", d.to_json(), digest)
        text = ("H_%d%s: lim1 part %s, lim part %s, splits %s -> %s"
                % (d.degree, " reduced" if d.reduced else "",
                   d.lim1_part.render(), d.lim_part.render(), d.splits, d.render()))
        return EXIT_OK, report, text
    if command == "cech":
        from .shape import cech_cohomology
        st = _pick(doc.stowers, args["stower"], "stower")
        sg = cech_cohomology(st, args["degree"])
        report = build_report("cech", sg.to_json(), digest,
                              warnings=_depth_warnings(sg))
        return _result_code(sg), report, "H^%d = %s" % (args["degree"], sg.render())
    if command == "interleave":
        from .procat import find_interleaving, separating_invariant
        a = _pick(doc.towers, args["a"], "tower")
        b = _pick(doc.towers, args["b"], "tower")
        # lim and lim1 are pro-invariants: when they differ, no depth helps
        if isinstance(a, PeriodicTower) and isinstance(b, PeriodicTower):
            reason = separating_invariant(a, b)
            if reason is not None:
                report = build_report("interleave", {"found": False, "reason": reason},
                                      digest, depth_used=args["depth"])
                return (EXIT_OK, report,
                        "absent (no interleaving at any depth: %s)" % reason)
        truncated = []
        cert = find_interleaving(a, b, args["depth"], truncated)
        result = {"found": cert is not None}
        if cert is not None:
            result["certificate"] = cert.to_json()
        warnings = [] if cert else [
            "search cut short by the candidate cap in cell gaps (%d, %d) offsets (%d, %d)"
            % cell for cell in truncated]
        report = build_report("interleave", result, digest, depth_used=args["depth"],
                              warnings=warnings)
        if cert:
            text = "interleaving found"
        elif warnings:
            text = "not found (searched to depth %d, %d cells cut short)" % (
                args["depth"], len(warnings))
        else:
            text = "absent (searched to depth %d)" % args["depth"]
        return EXIT_OK, report, text
    if command == "compare":
        from .procat import compare_invariants
        a = _pick(doc.towers, args["a"], "tower")
        b = _pick(doc.towers, args["b"], "tower")
        verdict = compare_invariants(a, b, depth=args["depth"])
        report = build_report("compare", verdict.to_json(), digest,
                              depth_used=args["depth"])
        return EXIT_OK, report, "%s: %s" % (verdict.kind, verdict.reason)
    if command == "telescope":
        from .shape import telescope
        from .simplicial import homology_invariants
        st = _pick(doc.stowers, args["stower"], "stower")
        tel = telescope(st, args["m"])
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
        result = {"levels": args["m"], "homology": rows, "retracts_to_level0": retracts}
        report = build_report("telescope", result, digest, depth_used=args["m"])
        text = "telescope of %d levels %s level 0 homology" % (
            args["m"], "matches" if retracts else "DIFFERS FROM")
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
    as_json = _parse_argv(argv)["json"]
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
    except OSError as exc:
        # a missing FILE, a directory, one without read permission
        print("cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if as_json:
        sys.stdout.write(report_json(report))
    else:
        print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
