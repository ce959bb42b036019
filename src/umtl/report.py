"""Machine-readable run reports.

The deterministic region (everything except "timings") is serialized
canonically and digest-stamped; repeated runs of the same command on the
same inputs produce byte-identical files.  Timings are emitted only on
request and live outside the digested region.  Digests use the
interpreter's built-in SHA-256, so importing this module loads no OpenSSL.
"""

from __future__ import annotations

import json
from pathlib import Path

# hashlib loads OpenSSL (3.6 MB of RSS); the built-in SHA-256 gives the same digests
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = "umtl-report/1"
TOOL_VERSION = "0.1.0"


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def input_digest(paths) -> str:
    h = sha256()
    for p in sorted(str(p) for p in paths):
        h.update(Path(p).name.encode())
        h.update(b"\0")
        h.update(Path(p).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def build_report(
    command: str,
    config: dict,
    inputs: list[str],
    checks: list[dict],
    exit_code: int,
    timings: dict | None = None,
) -> dict:
    body = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "umtl", "version": TOOL_VERSION},
        "command": command,
        "config": config,
        "inputs": {
            "files": sorted(Path(p).name for p in inputs),
            "digest": input_digest(inputs) if inputs else "",
        },
        "checks": checks,
        "exit_code": exit_code,
    }
    report = {
        "report": body,
        "report_digest": sha256(canonical_json(body).encode()).hexdigest(),
    }
    if timings is not None:
        report["timings"] = timings
    return report


def write_report(path: str | Path, report: dict) -> None:
    Path(path).write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
