"""The test oracles: SciPy's matrix exponential, the Frobenius distance and
the high-precision reference propagator, each checked against the others."""
from __future__ import annotations

import numpy as np
import pytest

from _oracle import frobenius_dist, mat_exp_oracle, reference_matrix
from conftest import apt, pt

from ptcoherence import build_hamiltonian


def test_exp_oracle_diagonal():
    m = np.diag([1.0, -1.0]).astype(complex)
    out = mat_exp_oracle(m, 2.0)
    expected = np.diag([np.exp(2.0), np.exp(-2.0)])
    assert frobenius_dist(out, expected) < 1e-12 * np.exp(2.0)


def test_exp_oracle_nilpotent():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = mat_exp_oracle(m, 3.5)
    assert np.allclose(out, [[1.0, 3.5], [0.0, 1.0]], atol=1e-14)


def test_exp_oracle_default_time_is_one():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert frobenius_dist(mat_exp_oracle(m), mat_exp_oracle(m, 1.0)) == 0.0


def test_exp_oracle_overflow_raises():
    with pytest.raises(OverflowError):
        mat_exp_oracle(np.diag([1000.0, -1000.0]).astype(complex), 1.0)


def test_exp_oracle_rejects_nonsquare():
    with pytest.raises(ValueError):
        mat_exp_oracle(np.ones((2, 3)))


def test_exp_oracle_rejects_nonfinite_input():
    with pytest.raises(ValueError):
        mat_exp_oracle(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_frobenius_dist_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert frobenius_dist(a, a) == 0.0
    b = a + np.array([[0.0, 0.0], [0.0, 3.0 + 4.0j]])
    assert frobenius_dist(a, b) == pytest.approx(5.0, abs=1e-14)
    assert frobenius_dist(a, b) == frobenius_dist(b, a)


def _normalized(u: np.ndarray) -> np.ndarray:
    return u / np.abs(u).max()


@pytest.mark.parametrize("make", [pt, apt])
@pytest.mark.parametrize("a", [0.47, 1.0, 1.5, 2.8])
def test_reference_matrix_matches_exp_oracle(make, a):
    # both kinds, both regimes and the EP, at phases w s t where expm is finite
    # and accurate: at the APT EP its own error reaches 8e-14 by phase 40
    p = make(a, s=1.3)
    rate = p.s * (np.sqrt(abs(1.0 - a * a)) or 1.0)
    for phase in (0.0, 0.3, 2.0, 10.0):
        t = phase / rate
        expected = _normalized(mat_exp_oracle(-1j * build_hamiltonian(p), t))
        assert np.max(np.abs(reference_matrix(p, t) - expected)) <= 1e-13


@pytest.mark.parametrize("make", [pt, apt])
def test_reference_matrix_at_the_exceptional_point_is_linear(make):
    # H^2 = 0 at a = 1, so exp(-i H t) = I - i H t exactly
    p = make(1.0, s=1.3)
    for t in (0.5, 3.0, 1e3):
        expected = _normalized(np.eye(2) - 1j * build_hamiltonian(p) * t)
        assert np.max(np.abs(reference_matrix(p, t) - expected)) <= 1e-15
