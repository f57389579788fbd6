"""The CLI tests run ``python -m corechar.cli`` in subprocesses: let those
import corechar from src/ as the test process does, without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
