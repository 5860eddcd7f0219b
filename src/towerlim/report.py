"""Machine-readable reports for the command line tool.

Reports are deterministic JSON documents: fixed key order, no
timestamps, and an input digest so a recorded report is tamper-evident
for a given tool version and input file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from . import __version__


def input_digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def schema():
    """The shipped JSON schema document, as a dict."""
    path = os.path.join(os.path.dirname(__file__), "report_schema.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_TYPES = {"string": str, "object": dict, "array": list, "integer": int}


def validate_report(report):
    """Validate against the shipped schema (the subset of JSON Schema the
    schema file actually uses).  Returns a list of problems."""
    sch = schema()
    problems = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    props = sch["properties"]
    for key in sch["required"]:
        if key not in report:
            problems.append("missing key %r" % key)
    for key, value in report.items():
        if key not in props:
            problems.append("unexpected key %r" % key)
            continue
        spec = props[key]
        want = _TYPES[spec["type"]]
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            problems.append("key %r must be %s" % (key, spec["type"]))
            continue
        if "enum" in spec and value not in spec["enum"]:
            problems.append("key %r not in its enumeration" % key)
        if "pattern" in spec:
            if not re.match(spec["pattern"], value):
                problems.append("key %r does not match %s" % (key, spec["pattern"]))
        if "minimum" in spec and value < spec["minimum"]:
            problems.append("key %r below minimum" % key)
        if spec.get("items", {}).get("type") == "string":
            if not all(isinstance(x, str) for x in value):
                problems.append("entries of %r must be strings" % key)
    return problems
