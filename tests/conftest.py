"""Shared test set-up.  The CLI tests run ``python -m corechar.cli`` in
subprocesses: let those import corechar from src/ as the test process does,
without an install.  ``cold_prime_table`` empties the prime table for one
test; ``float_window`` judges a float ``twisted_sum`` window on its two
oracles."""

import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from corechar import expsums, primes

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def cold_prime_table(monkeypatch):
    """An empty process-wide prime table for one test, restored after it, so
    a test sees the table grow from nothing whatever ran before it."""
    monkeypatch.setattr(primes, "_table", (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)))


def _float_window(chi, M, N, G, want) -> bool:
    """Judge the float window (M, M+N] of ``twisted_sum(chi, M, N, G)``;
    True where it takes the progression path.

    The block path, ``_window_sum`` of ``_twisted_terms``, gives want's value
    bits (want a float ``SumResult``), and so does ``twisted_sum`` off the
    progression path.  On it, each part of the value is within the bound of
    ``twisted_sum``'s docstring, (220 + 3B) N 2^-53 with B the bit length of
    N // den, of the block path's, and within that bound plus
    ``_exact_sum``'s 23 N 2^-53 of the value of the window's exact
    histogram."""
    def bits(res):
        return res.value.real.hex(), res.value.imag.hex(), res.mode, res.term_count

    block = expsums._window_sum(expsums._twisted_terms(chi, G, N), M, N)
    assert bits(block) == bits(want)
    with mock.patch.object(expsums, "_progression_window", wraps=expsums._progression_window) as spy:
        res = expsums.twisted_sum(chi, M, N, G)
    if not spy.called:
        assert bits(res) == bits(want)
        return False
    assert (res.mode, res.term_count) == ("float", N)
    den = G.angle_data()[1]
    D = math.lcm(chi.order, den)
    hist = expsums._window_histogram(expsums._twisted_numerators(chi, G, N, D), M, N, math.lcm(chi.q, den))
    exact = expsums._exact_sum(*hist, D, N).value
    bound = (220 + 3 * (N // den).bit_length()) * N * 2.0**-53
    for other, tol in ((block.value, bound), (exact, bound + 23 * N * 2.0**-53)):
        assert abs(res.value.real - other.real) <= tol and abs(res.value.imag - other.imag) <= tol
    return True


@pytest.fixture
def float_window():
    """``_float_window``: a float twisted window against the block path's
    bits and the exact histogram."""
    return _float_window
