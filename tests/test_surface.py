"""The package ships only what some caller reaches.

Every function, class and method that `ast` finds in src/towerlim is
named somewhere in the package outside its own definition (in code, or
in the doctest of another docstring), is a public name of `towerlim`, or
is the console entry point `cli.main`.  Dunder methods are called by the
interpreter and are exempt.  A definition that only tests reach belongs
in tests/, not in the package.
"""

import ast
import doctest
import io
import pathlib
import tokenize

import towerlim

SRC = pathlib.Path(towerlim.__file__).parent
ENTRY_POINTS = {("cli", "main")}


def _names(source):
    """(name, line) of every identifier token of a piece of code."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(t.string, t.start[0]) for t in tokens if t.type == tokenize.NAME]


def _doctest_names(docstring):
    names = set()
    for example in doctest.DocTestParser().get_examples(docstring):
        names.update(name for name, _ in _names(example.source))
    return names


def _definitions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _unreached():
    exported = set(towerlim._HOMES)
    code_uses = []     # (module, name, line)
    doc_uses = []      # (owner definition node or None, name)
    defs = []          # (module, node)
    for path in sorted(SRC.glob("*.py")):
        module, source = path.stem, path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        code_uses += [(module, name, line) for name, line in _names(source)]
        doc_uses += [(None, name) for name in _doctest_names(ast.get_docstring(tree) or "")]
        for node in _definitions(tree):
            defs.append((module, node))
            doc_uses += [(node, name)
                         for name in _doctest_names(ast.get_docstring(node) or "")]
    unreached = []
    for module, node in defs:
        name = node.name
        if (name in exported or (module, name) in ENTRY_POINTS
                or (name.startswith("__") and name.endswith("__"))):
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if any(n == name and not (m == module and line in inside)
               for m, n, line in code_uses):
            continue
        if any(n == name and owner is not node for owner, n in doc_uses):
            continue
        unreached.append("%s.%s" % (module, name))
    return sorted(unreached)


def test_every_definition_is_reached():
    assert _unreached() == []
