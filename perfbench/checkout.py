"""Locating the program's sources in the checkout the benchmark runs from."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"          # inputs, outputs, spans; git-ignored


class MissingSourceError(RuntimeError):
    """The checkout holds no netmamba sources to benchmark."""


def use_source() -> None:
    """Import netmamba from this checkout's src/, never from elsewhere."""
    if not (SRC / "netmamba" / "__init__.py").is_file():
        raise MissingSourceError(f"no netmamba package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
