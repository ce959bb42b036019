"""Start-up guard: the modules a cold `umtl` process imports.

The records are NamedTuples and `__slots__` classes, not dataclasses:
`dataclasses` would load `inspect` (with `dis` and `ast`) and generate
code for every class at import, a large share of a cold start.  Report
digests use the interpreter's built-in SHA-256, since `hashlib` loads
OpenSSL (about 3.6 MB of RSS).
"""

from __future__ import annotations

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import umtl
import umtl.logic


def test_startup_imports_no_dataclasses_nor_inspect():
    logic = [m.name for m in pkgutil.iter_modules(umtl.logic.__path__, "umtl.logic.")]
    code = (
        "import sys; bare = set(sys.modules); "
        f"import umtl, umtl.cli, {', '.join(logic)}; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    src = str(Path(umtl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "umtl.logic.builder" in out
    assert not {"dataclasses", "inspect"} & set(out)


def test_bare_startup_imports_no_openssl_nor_importlib_resources():
    # -S: no site module, so no .pth file can import these first and hide a
    # package import of them
    logic = [m.name for m in pkgutil.iter_modules(umtl.logic.__path__, "umtl.logic.")]
    code = (
        f"import sys; import umtl, umtl.cli, {', '.join(logic)}; "
        "print(' '.join(sorted(sys.modules)))"
    )
    src = str(Path(umtl.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    banned = {"importlib.resources", "dataclasses", "inspect"}
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        banned |= {"hashlib", "_hashlib"}
    assert "umtl.logic.builder" in out
    assert not banned & set(out)
