"""Machine-readable reports for the command line tool.

Reports are deterministic JSON documents: fixed key order, no
timestamps, and an input digest so a recorded report is tamper-evident
for a given tool version and input file.

The digest is SHA-256 from the interpreter's own implementation
(`_sha2` on CPython 3.12 and later, `_sha256` on 3.10 and 3.11), not
from `hashlib`: importing `hashlib` loads `_hashlib` and OpenSSL's
libcrypto, which cost every command about 3.6 MB of resident memory for
one hash of a file under 1 KB.  Both give the same digest.

A report is written by `report_json`, a small recursive writer that
appends to one list: the same bytes as `json.dumps(report,
sort_keys=True, indent=2) + "\\n"`, at about half the time.  `json.dumps`
runs its C encoder only when `indent` is None, so an indented report
goes through the pure-Python encoder, with a generator per container.
The writer quotes strings with that C encoder's `encode_basestring_ascii`
(from `_json`, so no command loads the `json` package), and it takes
only what a report holds: str keys, and values whose type is exactly
str, int, float, bool, NoneType, list, tuple or dict.  Anything else (a
subclass, a set, an object, a NaN or infinite float) raises TypeError
or ValueError rather than being written differently from `json.dumps`.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        # an interpreter built without its own SHA-256 has only OpenSSL's
        from hashlib import sha256

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    # an interpreter built without the json accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

from . import __version__

_INFINITY = float("inf")


def input_digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return "sha256:" + sha256(data).hexdigest()


def build_report(task, result, digest, depth_used=0, verified_joints=(), warnings=()):
    return {
        "tool_version": __version__,
        "input_digest": digest,
        "task": task,
        "result": result,
        "verified_joints": list(verified_joints),
        "depth_used": depth_used,
        "warnings": list(warnings),
    }


def report_json(report):
    """REPORT as JSON text, as `json.dumps(report, sort_keys=True,
    indent=2) + "\\n"` writes it.

    >>> print(report_json({"b": [1, 2.5, None], "a": {"é": True, "e": []}}), end="")
    {
      "a": {
        "e": [],
        "\\u00e9": true
      },
      "b": [
        1,
        2.5,
        null
      ]
    }
    """
    out = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _float(value):
    if value != value or value in (_INFINITY, -_INFINITY):
        raise ValueError("%r is not a JSON number" % value)
    return float.__repr__(value)


# the JSON text of a scalar, by its exact type
_SCALARS = {str: _quote, int: int.__repr__, float: _float,
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "null"}


def _write(value, newline, out):
    """Append the JSON text of VALUE to OUT; NEWLINE is the line break and
    indent that its closing bracket follows.  A scalar item is written in
    the loop of its container, without a call of its own."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError("report keys must be str, not %s" % type(key).__name__)
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(sep + _quote(key) + ": " + scalar(item))
            else:
                out.append(sep + _quote(key) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(sep + scalar(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
