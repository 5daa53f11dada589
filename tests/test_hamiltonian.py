"""Generator construction, spectra, and regime classification."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apt, pt

from ptcoherence import (
    HamiltonianParams,
    PureState,
    Regime,
    SymmetryClass,
    build_hamiltonian,
    coherence_series,
    regime,
)
from ptcoherence.hamiltonian import frequency, w_squared


def test_pt_matrix_layout():
    h = build_hamiltonian(pt(0.31, s=2.0))
    assert np.allclose(h, [[0.62j, 2.0], [2.0, -0.62j]], atol=1e-15)


def test_apt_matrix_layout():
    h = build_hamiltonian(apt(2.8, s=0.5))
    assert np.allclose(h, [[1.4, 0.5j], [0.5j, -1.4]], atol=1e-15)


def test_pt_matrix_is_traceless_and_pt_type():
    # diagonal purely imaginary (balanced gain/loss), coupling real
    h = build_hamiltonian(pt(0.7))
    assert h[0, 0] == -h[1, 1]
    assert h[0, 0].real == 0.0
    assert h[0, 1].imag == 0.0


def _pair_error(p: HamiltonianParams) -> float:
    """Distance of the dense eigenvalues of H from the closed-form pair
    ``+/- s sqrt(w^2)`` (:func:`w_squared`), matched as an unordered pair."""
    lam = p.s * np.sqrt(complex(w_squared(p.kind, p.a)))
    dense = np.linalg.eigvals(build_hamiltonian(p))
    return min(abs(lam - dense[0]) + abs(lam + dense[1]), abs(lam - dense[1]) + abs(lam + dense[0]))


def test_eigenvalues_unbroken_pt_real():
    # real pair +/- s w, w frozen from the dense eigensolver
    p = pt(0.47)
    assert w_squared(p.kind, p.a) > 0.0
    assert frequency(p.kind, p.a) == pytest.approx(0.8826664149042944, abs=1e-12)
    assert _pair_error(p) < 1e-12


def test_eigenvalues_broken_pt_imaginary():
    p = pt(1.5)
    assert w_squared(p.kind, p.a) < 0.0
    assert frequency(p.kind, p.a) == pytest.approx(1.1180339887498949, abs=1e-12)
    assert _pair_error(p) < 1e-12


def test_eigenvalues_apt_mirror():
    # APT: real for a > 1, imaginary for a < 1
    assert w_squared(SymmetryClass.APT, 1.5) > 0.0
    assert frequency(SymmetryClass.APT, 1.5) == pytest.approx(1.1180339887498949, abs=1e-12)
    assert w_squared(SymmetryClass.APT, 0.47) < 0.0
    assert frequency(SymmetryClass.APT, 0.47) == pytest.approx(0.8826664149042944, abs=1e-12)
    assert _pair_error(apt(1.5)) < 1e-12 and _pair_error(apt(0.47)) < 1e-12


def test_eigenvalues_vanish_at_coalescence():
    for p in (pt(1.0), apt(1.0)):
        assert w_squared(p.kind, p.a) == 0.0 and frequency(p.kind, p.a) == 0.0
        assert _pair_error(p) < 1e-12


@given(
    a=st.floats(0.05, 3.0, allow_nan=False),
    s=st.floats(0.1, 3.0, allow_nan=False),
    kind=st.sampled_from([SymmetryClass.PT, SymmetryClass.APT]),
)
@settings(max_examples=60, deadline=None)
def test_eigenvalues_match_dense_solver(a, s, kind):
    p = HamiltonianParams(kind=kind, s=s, a=a)
    assert _pair_error(p) < 1e-10 * max(1.0, s)
    # traceless pair
    assert abs(np.linalg.eigvals(build_hamiltonian(p)).sum()) < 1e-12 * max(1.0, s)


def test_regime_classification_pt():
    assert regime(pt(0.31)) is Regime.UNBROKEN
    assert regime(pt(1.5)) is Regime.BROKEN
    assert regime(pt(1.0)) is Regime.EXCEPTIONAL_POINT


def test_regime_classification_apt_is_mirrored():
    assert regime(apt(0.31)) is Regime.BROKEN
    assert regime(apt(1.5)) is Regime.UNBROKEN
    assert regime(apt(1.0)) is Regime.EXCEPTIONAL_POINT


@pytest.mark.parametrize("make", [pt, apt])
@pytest.mark.parametrize("a", [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                               1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9])
def test_regime_is_the_sign_of_w_squared(make, a):
    # only a == 1.0 is the exceptional point; its neighbouring doubles are not
    p = make(a)
    unbroken = (a < 1.0) == (p.kind is SymmetryClass.PT)
    w2 = w_squared(p.kind, a)
    assert w2 != 0.0 and (w2 > 0.0) == unbroken
    assert regime(p) is (Regime.UNBROKEN if unbroken else Regime.BROKEN)
    assert regime(make(1.0)) is Regime.EXCEPTIONAL_POINT


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_invalid_a_rejected(bad):
    with pytest.raises(ValueError):
        pt(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [pt, apt])
def test_a_square_must_be_finite(make):
    # the (A, B, C) scalars are built from a^2, which overflows above sqrt(max float)
    with pytest.raises(ValueError, match=r"at most 1\.34078e\+154"):
        make(1e300)
    p = make(1.3e154)
    times = np.linspace(0.0, 1e-150, 7)
    assert np.all(np.isfinite(coherence_series(PureState.preset("D"), p, times)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", [pt, apt])
def test_gain_loss_rate_must_be_finite(make):
    # gamma = a s overflows although a^2 and s are finite; accepted
    # parameters keep w s <= max(1, a) s and the generator finite
    for a, s in ((1e154, 1e300), (2.0, 1e308), (np.float64(1e10), np.float64(1e300))):
        with pytest.raises(ValueError, match=r"a\*s must be at most 1\.79769e\+308"):
            make(a, s=s)
    p = make(1e8, s=1e300)
    assert np.all(np.isfinite(build_hamiltonian(p)))


def test_kind_must_be_a_symmetry_class():
    with pytest.raises(ValueError, match="SymmetryClass member"):
        HamiltonianParams(kind="pt", a=0.5)


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
def test_invalid_s_rejected(bad):
    with pytest.raises(ValueError):
        pt(0.5, s=bad)
