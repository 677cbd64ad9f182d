"""Every CLI process pays for what `import slopenorm.cli` loads, so beyond
the standard-library modules the package imports by name it may load only
its own modules.  A new import shows up as a failure of this test rather
than as slower commands.

The baseline imports those standard-library modules itself, because what
they pull in, and what a bare interpreter already holds, differ between
Python versions and site setups."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the standard-library modules that slopenorm's modules import by name
STDLIB_IMPORTS = "import __future__, argparse, dataclasses, fractions, itertools, json, math, re, sys, typing"

SLOPENORM_MODULES = {
    "slopenorm", "slopenorm.cli", "slopenorm.counting", "slopenorm.cusp",
    "slopenorm.families", "slopenorm.manifold", "slopenorm.norm",
    "slopenorm.slopes", "slopenorm.verify",
}


def _loaded_modules(statement: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"{statement}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return set(result.stdout.split())


def test_cli_import_loads_only_pinned_modules():
    added = _loaded_modules("import slopenorm.cli") - _loaded_modules(STDLIB_IMPORTS)
    assert not {m.split(".")[0] for m in added} & {"numpy", "sympy", "hypothesis"}
    assert sorted(added - SLOPENORM_MODULES) == []
