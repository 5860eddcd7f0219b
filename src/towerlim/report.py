"""Machine-readable reports for the command line tool.

Reports are deterministic JSON documents: fixed key order, no
timestamps, and an input digest so a recorded report is tamper-evident
for a given tool version and input file.

The digest is SHA-256 from the interpreter's own implementation
(`_sha2` on CPython 3.12 and later, `_sha256` on 3.10 and 3.11), not
from `hashlib`: importing `hashlib` loads `_hashlib` and OpenSSL's
libcrypto, which cost every command about 3.6 MB of resident memory for
one hash of a file under 1 KB.  Both give the same digest.
"""

import json

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        # an interpreter built without its own SHA-256 has only OpenSSL's
        from hashlib import sha256

from . import __version__


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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
