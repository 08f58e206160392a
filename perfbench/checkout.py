"""Locate the miconic sources of the checkout this benchmark sits in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def use_sources():
    """Put the checkout's ``src/`` first on ``sys.path``; exit if it is absent."""
    if not (SRC / "miconic" / "__init__.py").is_file():
        raise SystemExit("perfbench: no miconic sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
