"""The README's library example runs, and gives the values its comments state."""

import ast
import os
import re

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
