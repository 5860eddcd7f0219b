"""The README's library example and command-line examples run, and give the
values and the output that the README shows."""

import ast
import os
import re
import shlex

import pytest

from towerlim.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_block():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_its_comments():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # the comment's leading literal, e.g. "False, certificate: ..." -> False
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
        expected = ast.literal_eval(comment.split(",")[0])
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected, (ast.unparse(stmt), value)
        checked += 1
    assert checked == 3


def _command_examples():
    """(argv, shown output) of each `$ towerlim ...` line of "Command line"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for chunk in block.strip().split("\n\n"):
            command, _, shown = chunk.partition("\n")
            if command.startswith("$ towerlim "):
                examples.append((shlex.split(command)[2:], shown + "\n"))
    return examples


def _mask_seconds(text):
    # lab reports its elapsed time, e.g. "(0.64s)"
    return re.sub(r"\(\d+\.\d+s\)", "(<elapsed>s)", text)


EXAMPLES = _command_examples()


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_command_line_example_prints_what_it_shows(argv, shown, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)      # the examples name towers/ relative to the root
    assert main(argv) == 0
    assert _mask_seconds(capsys.readouterr().out) == _mask_seconds(shown)


def test_examples_cover_every_lazily_loaded_module():
    # procat, shape/simplicial and lab are each imported by these commands only
    assert {argv[0] for argv, _ in EXAMPLES} >= {
        "interleave", "compare", "steenrod", "cech", "telescope", "lab"}
