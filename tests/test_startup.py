"""Start-up guard: the modules a cold `umtl` process imports.

The records are NamedTuples and `__slots__` classes, not dataclasses:
`dataclasses` would load `inspect` (with `dis` and `ast`) and generate
code for every class at import, a large share of a cold start.
"""

from __future__ import annotations

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
