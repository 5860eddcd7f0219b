"""The command-line parser of `towerlim.cli` against argparse.

`testkit.reference_parser` builds an argparse parser from the same
command table, `cli._COMMANDS`.  On every argv of the corpus the two give
the same values, or exit with the same code, the same usage (argparse
wraps it at the terminal width, so whitespace is not compared) and the
same error line.
"""

import contextlib
import io
import random

import pytest

from towerlim import cli
from testkit import reference_parser

REFERENCE = reference_parser()

# a value each option takes, by its type
VALUES = {str: "two", int: "3"}


def _outcome(parse, argv):
    """("values", dict) of a parse, or (exit code, usage, error line)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "values", parse(argv)
    except SystemExit as exc:
        out, err = out.getvalue(), err.getvalue()
        usage, _, message = err.rstrip("\n").rpartition("\n")
        if out:
            usage = out.split("\n\n", 1)[0]
        return exc.code, " ".join(usage.split()), message


def _reference(argv):
    return vars(REFERENCE.parse_args(argv))


def _value(option):
    _, kind, _, _, choices = option
    return choices()[0] if choices else VALUES[kind]


def _words(name, rng, options, equals):
    """An argv of command NAME giving OPTIONS, in a shuffled order."""
    words = []
    for option in options:
        flag, kind = option[:2]
        if kind is bool:
            words.append([flag])
        elif equals:
            words.append(["%s=%s" % (flag, _value(option))])
        else:
            words.append([flag, _value(option)])
    if cli._COMMANDS[name][1]:
        words.append(["towers/solenoid_2.tower"])
    rng.shuffle(words)
    return [name] + [w for group in words for w in group]


def _corpus():
    rng = random.Random(7)
    corpus = [[], ["-h"], ["--help"], ["nosuch", "f"], ["--json", "lim", "f"],
              ["-hh"], ["-hx"], ["--help=x"], ["--", "lim"]]
    for name in cli._COMMANDS:
        options = cli._options(name)
        required = [o for o in options if o[3]]
        valued = [o for o in options if o[1] is not bool]
        for equals in (False, True):
            corpus.append(_words(name, rng, options, equals))
            corpus.append(_words(name, rng, required, equals))
        corpus += [[name, "-h"], [name, "--help"], [name, "f", "-hh"], [name, "-h=x"]]
        for option in required:
            corpus.append(_words(name, rng, [o for o in required if o is not option], False))
        for option in valued:
            flag = option[0]
            base = _words(name, rng, required, False)
            corpus += [base + [flag], base + [flag, "--json"], base + [flag, "-1"],
                       base + [flag, "x", flag, "-1"], base + ["%s=" % flag],
                       base + [flag[:-1], "1"], base + [flag, "1.5"]]
        base = _words(name, rng, required, False)
        corpus += [base + ["--nosuch"], base + ["--jso"], base + ["--json=1"],
                   base + ["extra"], base + ["-1"], base + ["-x"], base + ["--", "--json"],
                   base + ["--json", "--"], [name, "--", "-f"] + base[1:]]
    corpus.append(["lab", "--suite", "nosuch"])
    corpus.append(["lab", "--suite=ml_equiv", "--trials", "-1", "--depth=-2"])
    return corpus


CORPUS = _corpus()


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_parser_reads_argv_as_argparse(argv):
    assert _outcome(cli._parse_argv, argv) == _outcome(_reference, argv)


def test_corpus_has_values_errors_and_help():
    outcomes = [_outcome(cli._parse_argv, argv)[0] for argv in CORPUS]
    assert {"values", 0, 2} == set(outcomes)
    assert sum(o == "values" for o in outcomes) >= 4 * len(cli._COMMANDS)


TOKENS = ("lim", "lab", "steenrod", "interleave", "f", "--", "-", "", "-1", "-.5", "-1e5",
          "--json", "--js", "--json=", "-h", "-hh", "-hx", "-h=", "--help=", "-x", "--tower",
          "--tower=x", "--a", "--b", "--depth", "--depth=-2", "3", "0x3", " 3", "--suite",
          "prohom", "nosuch", "--trials", "--m", "--degree", "--reduced", "--reduced=1",
          "--stower", "a b", "-a b", "--x=y", "--dep")


def test_random_argv_is_read_as_argparse_reads_it():
    rng = random.Random(11)
    for _ in range(2000):
        argv = [rng.choice(TOKENS) for _ in range(rng.randint(0, 7))]
        if argv and rng.random() < 0.8:
            argv[0] = rng.choice(list(cli._COMMANDS))
        assert _outcome(cli._parse_argv, argv) == _outcome(_reference, argv), argv
