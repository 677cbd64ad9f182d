"""Every CLI process pays for what `import slopenorm.cli` loads, so the set
of modules it adds to a bare interpreter is pinned here.  A new import
shows up as a failure of this test rather than as slower commands."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the modules `import slopenorm.cli` adds to a bare interpreter start (Python 3.11)
CLI_IMPORTS = {
    "__future__", "_ast", "_decimal", "_json", "_opcode", "argparse", "ast",
    "copy", "dataclasses", "decimal", "dis", "fractions", "gettext",
    "importlib.machinery", "inspect", "json", "json.decoder", "json.encoder",
    "json.scanner", "linecache", "numbers", "opcode", "token", "tokenize",
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
    added = _loaded_modules("import slopenorm.cli") - _loaded_modules("pass")
    assert not {m.split(".")[0] for m in added} & {"numpy", "sympy", "hypothesis"}
    assert sorted(added - CLI_IMPORTS) == []
