"""Start-up guard: importing the CLI and resolving a configuration loads
qlink's own modules and nothing beyond what its top-level stdlib imports and
one argparse parse load on the same interpreter.

Each side runs in a fresh ``python -S`` interpreter, so neither ``site`` nor
the test runner adds modules.  Run as a script (``python
tests/test_startup.py``) it checks the qlink that the running interpreter
imports, e.g. an installed one, and exits 1 listing any extra module.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

# The stdlib modules that qlink imports at module level.  A new one belongs
# here only if its import cost is worth paying on every run.
STDLIB_IMPORTS = ("__future__", "argparse", "collections", "collections.abc", "enum", "math",
                  "os", "re", "sys")
# One parse of an argument declared as the CLI declares its command.
ARGPARSE_PARSE = """
parser = argparse.ArgumentParser(description="qlink")
parser.add_argument("command", nargs="?", choices=["crossover"], help="command")
parser.parse_args(["crossover"])
"""
# The `crossover` benchmark workload's arguments.
CLI_ARGS = ["crossover", "--seed", "0"]


def _loaded_modules(path: str, code: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after running ``code`` with
    ``path`` first on its import path."""
    script = f"import sys\nsys.path.insert(0, {path!r})\n{code}\nprint(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60, check=True)
    return set(done.stdout.split())


def extra_startup_modules(path: str) -> list[str]:
    """Modules that importing ``qlink.cli`` from ``path`` and resolving the
    crossover configuration load beyond qlink and the allowed baseline."""
    baseline = _loaded_modules(path, f"import {', '.join(STDLIB_IMPORTS)}\n{ARGPARSE_PARSE}")
    cli = _loaded_modules(path, f"import qlink.cli\nqlink.cli.parse_config({CLI_ARGS!r})")
    return sorted(name for name in cli - baseline
                  if name != "qlink" and not name.startswith("qlink."))


def _qlink_path() -> str:
    import qlink

    return str(Path(qlink.__file__).resolve().parent.parent)


def test_cli_start_up_loads_nothing_beyond_its_stdlib_imports():
    # dataclasses (with inspect), logging, typing, concurrent.futures and
    # numpy each cost milliseconds of every run
    assert extra_startup_modules(_qlink_path()) == []


if __name__ == "__main__":
    extra = extra_startup_modules(_qlink_path())
    if extra:
        sys.exit(f"qlink.cli start-up loads extra modules: {', '.join(extra)}")
    print("qlink.cli start-up loads only qlink and its stdlib imports")
