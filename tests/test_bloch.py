"""Bloch-vector mapping and renormalized trajectories.

The frozen trajectory point was computed by dense-exponential evolution
plus the (x, y, z) definition, independent of the package.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import apt, pt

from ptcoherence import (
    PureState,
    l1_coherence,
    trajectory_array,
)


def _xyz(st: PureState) -> tuple[float, float, float]:
    """The Bloch vector of ``st`` itself: the row at t = 0."""
    return tuple(trajectory_array(st, pt(0.31), [0.0])[0, 1:])


def _radii(rows: np.ndarray) -> np.ndarray:
    return np.sqrt((rows[:, 1:] ** 2).sum(axis=1))


def test_cardinal_states():
    assert _xyz(PureState.preset("H")) == pytest.approx((0.0, 0.0, 1.0))
    assert _xyz(PureState(0.0, 1.0)) == pytest.approx((0.0, 0.0, -1.0))
    assert _xyz(PureState.preset("D")) == pytest.approx((1.0, 0.0, 0.0))
    # (|H> - i |V>)/sqrt(2) maps to (0, -1, 0) in this sign convention
    circ = PureState(1 / np.sqrt(2), 1 / np.sqrt(2), 3 * np.pi / 2)
    assert _xyz(circ) == pytest.approx((0.0, -1.0, 0.0), abs=1e-14)


def test_pure_states_have_unit_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = rng.uniform(0.05, 0.95)
        st = PureState.from_amplitudes(alpha, np.sqrt(1 - alpha**2), rng.uniform(0, 2 * np.pi))
        assert np.linalg.norm(_xyz(st)) == pytest.approx(1.0, abs=1e-12)


def test_coherence_is_transverse_radius():
    st = PureState(0.6, 0.8, 1.2)
    x, y, _ = _xyz(st)
    assert np.hypot(x, y) == pytest.approx(l1_coherence(st.density()), abs=1e-14)


def test_trajectory_frozen_point():
    rows = trajectory_array(PureState.preset("D"), pt(0.31), np.array([0.0, 0.8]))
    t, x, y, z = rows[1]
    assert t == 0.8
    assert x == pytest.approx(0.908228907592013, abs=1e-12)
    assert y == pytest.approx(-0.2960357819612491, abs=1e-12)
    assert z == pytest.approx(0.2957753661358752, abs=1e-12)


def test_trajectory_stays_on_sphere():
    grid = np.linspace(0.0, 6.0, 40)
    for p in (pt(0.31), pt(1.5), apt(0.47), apt(2.8)):
        rows = trajectory_array(PureState(0.6, 0.8, 0.7), p, grid)
        assert _radii(rows) == pytest.approx(np.ones(grid.size), abs=1e-12)


def test_trajectory_apt_conserves_z_for_balanced_state():
    grid = np.linspace(0.0, 10.0, 64)
    rows = trajectory_array(PureState.preset("D"), apt(1.5), grid)
    assert np.max(np.abs(rows[:, 3])) < 1e-9


def test_trajectory_grid_validation():
    # the density path's rule: a 1-D grid of finite, nonnegative times
    st = PureState.preset("D")
    with pytest.raises(ValueError, match="finite and nonnegative"):
        trajectory_array(st, pt(0.31), np.array([0.0, -1.0]))
    with pytest.raises(ValueError, match="1-D grid"):
        trajectory_array(st, pt(0.31), np.array([[0.0, 0.5]]))


@pytest.mark.parametrize("p", [pt(0.47), pt(2.8), apt(1.5), apt(0.47)])
def test_trajectory_rows_follow_their_times(p):
    # each row depends on its own time alone: a shuffled grid gives the
    # shuffled rows, bit for bit, and an empty grid no rows
    st = PureState.preset("h-sqrt3v")
    grid = np.linspace(0.0, 10.0, 257)
    order = np.random.default_rng(3).permutation(grid.size)
    assert np.array_equal(trajectory_array(st, p, grid[order]),
                          trajectory_array(st, p, grid)[order])
    assert trajectory_array(st, p, []).shape == (0, 4)


@pytest.mark.parametrize("p, label", [
    (pt(2.8), "D"), (pt(0.47), "h-sqrt3v"), (apt(1.5), "h-sqrt3v"), (apt(0.47), "D"),
])
def test_rows_do_not_depend_on_grid_length(p, label):
    # a grid of 100000 points (1.6 MB complex arrays) and 31 of its times:
    # the same time gives the same row, bit for bit
    st = PureState.preset(label)
    grid = np.linspace(0.0, 10.0, 100_000)
    long_rows = trajectory_array(st, p, grid)[::3333]
    short_rows = trajectory_array(st, p, grid[::3333])
    assert short_rows.shape == (31, 4)
    assert np.array_equal(long_rows, short_rows)
