"""The test oracles: the Frobenius distance and the high-precision
reference propagators of one and two qubits, checked where the exponential
has a closed form, against the group law and the generator off it, and the
two-qubit one against the Kronecker product of one-qubit ones; and the rule
that no package or test module but ``tests/_oracle.py`` imports mpmath, and
none imports SciPy."""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from _oracle import frobenius_dist, joint_reference_matrix, reference_matrix
from conftest import apt, pt

from ptcoherence import build_hamiltonian


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
def test_reference_matrix_is_the_exponential_of_h(make, a):
    # both kinds, both regimes and the EP: near t = 0 the reference is
    # I - i H t - H^2 t^2 / 2 to third order, and it obeys the group law
    # U(t1) U(t2) = U(t1 + t2), which together pin exp(-i H t)
    p = make(a, s=1.3)
    h = build_hamiltonian(p)
    dt = 1e-6
    expected = _normalized(np.eye(2) - 1j * h * dt - h @ h * dt * dt / 2)
    assert np.max(np.abs(reference_matrix(p, dt) - expected)) <= 1e-15
    rate = p.s * (np.sqrt(abs(1.0 - a * a)) or 1.0)
    for phase1, phase2 in ((0.3, 2.0), (2.0, 10.0)):
        t1, t2 = phase1 / rate, phase2 / rate
        product = _normalized(reference_matrix(p, t1) @ reference_matrix(p, t2))
        assert np.max(np.abs(reference_matrix(p, t1 + t2) - product)) <= 1e-13


@pytest.mark.parametrize("p, q", [(pt(0.47, s=1.3), pt(2.8, s=0.7)),
                                  (apt(0.47, s=1.3), apt(1.5, s=0.7)),
                                  (pt(1.5, s=1.3), apt(0.47, s=0.7)),
                                  (apt(2.8, s=1.3), pt(1.0, s=0.7))],
                         ids=["pt-pt", "apt-apt", "pt-apt", "apt-pt"])
def test_joint_reference_is_the_kronecker_product_of_references(p, q):
    # the joint generator's terms commute, so exp(-i J t) = U_A(t) ⊗ U_B(t):
    # holds the entry-by-entry build of J off the EP, in both regimes
    for t in (0.3, 2.0, 5.0):
        expected = np.kron(reference_matrix(p, t), reference_matrix(q, t))
        assert np.max(np.abs(joint_reference_matrix(p, t, q) - expected)) <= 1e-15


@pytest.mark.parametrize("make", [pt, apt])
def test_reference_matrix_at_the_exceptional_point_is_linear(make):
    # H^2 = 0 at a = 1, so exp(-i H t) = I - i H t exactly
    p = make(1.0, s=1.3)
    for t in (0.5, 3.0, 1e3):
        expected = _normalized(np.eye(2) - 1j * build_hamiltonian(p) * t)
        assert np.max(np.abs(reference_matrix(p, t) - expected)) <= 1e-15


@pytest.mark.parametrize("make", [pt, apt])
def test_joint_reference_at_the_exceptional_point_is_quadratic(make):
    # H_A^2 = H_B^2 = 0 at a = 1, so the joint generator J = H_A ⊗ I + I ⊗ H_B
    # has J^3 = 0 and exp(-i J t) = I - i J t - J^2 t^2 / 2 exactly
    p, q = make(1.0, s=1.3), make(1.0, s=0.7)
    h_a, h_b = build_hamiltonian(p), build_hamiltonian(q)
    j = np.kron(h_a, np.eye(2)) + np.kron(np.eye(2), h_b)
    for t in (0.5, 3.0, 40.0):
        expected = _normalized(np.eye(4) - 1j * j * t - j @ j * t * t / 2)
        assert np.max(np.abs(joint_reference_matrix(p, t, q) - expected)) <= 1e-15


def test_only_the_oracle_imports_mpmath_or_scipy():
    # one high-precision reference: package and tests import no SciPy, and
    # every test reaches mpmath through tests/_oracle.py, at module level or
    # inside a function
    root = Path(__file__).parent.parent
    importers = {"mpmath": set(), "scipy": set()}
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for top in {name.partition(".")[0] for name in names} & importers.keys():
                importers[top].add(path.relative_to(root).as_posix())
    assert importers == {"mpmath": {"tests/_oracle.py"}, "scipy": set()}
