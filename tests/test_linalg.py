"""The test oracle: matrix exponential and Frobenius distance."""
from __future__ import annotations

import numpy as np
import pytest

from _oracle import frobenius_dist, mat_exp_oracle


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
