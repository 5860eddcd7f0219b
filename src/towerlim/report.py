"""Machine-readable reports for the command line tool.

Reports are deterministic JSON documents: fixed key order, no
timestamps, and an input digest so a recorded report is tamper-evident
for a given tool version and input file.
"""

from __future__ import annotations

import hashlib
import json

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

