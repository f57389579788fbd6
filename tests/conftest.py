"""Shared test set-up.  The CLI tests run ``python -m corechar.cli`` in
subprocesses: let those import corechar from src/ as the test process does,
without an install.  ``cold_prime_table`` empties the prime table for one
test."""

import os
from pathlib import Path

import numpy as np
import pytest

from corechar import primes

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def cold_prime_table(monkeypatch):
    """An empty process-wide prime table for one test, restored after it, so
    a test sees the table grow from nothing whatever ran before it."""
    monkeypatch.setattr(primes, "_table", (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)))
