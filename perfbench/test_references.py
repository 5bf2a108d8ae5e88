"""Textbook values for the benchmark's own reference quantities.

Run with ``python -m pytest perfbench -q``.
"""

import numpy as np
import pytest

import references as ref

S2 = np.sqrt(2.0)


def _proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


BELL_PHI = np.array([1, 0, 0, 1]) / S2
BELL_PSI_PLUS = np.array([0, 1, 1, 0]) / S2
SINGLET = np.array([0, 1, -1, 0]) / S2
PRODUCT = np.kron([1, 0], [1, 1]) / S2
GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / S2
W = np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3.0)


def test_pure_concurrence_bell_and_product():
    assert ref.pure_concurrence(BELL_PHI) == pytest.approx(1.0, abs=1e-15)
    assert ref.pure_concurrence(PRODUCT) == pytest.approx(0.0, abs=1e-15)


def test_wootters_pure_states():
    assert ref.wootters_concurrence(_proj(BELL_PHI)) == pytest.approx(1.0, abs=1e-14)
    assert ref.wootters_concurrence(_proj(PRODUCT)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
def test_wootters_werner(p):
    rho = p * _proj(SINGLET) + (1.0 - p) * np.eye(4) / 4.0
    assert ref.wootters_concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9])
def test_wootters_rank_two_bell_mixture(p):
    rho = p * _proj(BELL_PHI) + (1.0 - p) * _proj(BELL_PSI_PLUS)
    assert ref.wootters_concurrence(rho) == pytest.approx(abs(2 * p - 1), abs=1e-14)


def test_three_tangle_ghz_w_product():
    assert ref.sqrt_three_tangle(GHZ) == pytest.approx(1.0, abs=1e-15)
    assert ref.sqrt_three_tangle(W) == pytest.approx(0.0, abs=1e-15)
    assert ref.sqrt_three_tangle(np.kron(BELL_PHI, [1, 0])) == pytest.approx(0.0, abs=1e-15)


def test_hyperdeterminant_is_invariant_under_det1_local_operators():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    op = np.eye(1)
    for _ in range(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = np.kron(op, z / np.sqrt(np.linalg.det(z)))
    assert ref.hyperdeterminant(op @ psi) == pytest.approx(ref.hyperdeterminant(psi), rel=1e-11)


def test_span_hyperdeterminant_coefficients_reproduce_the_quartic():
    rng = np.random.default_rng(1)
    phi0, phi1 = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    c = ref.span_hyperdeterminant_coefficients(phi0, phi1)
    for omega in (0.0, 0.3 - 1.7j, 2.5j):
        assert np.polyval(c[::-1], omega) == pytest.approx(
            ref.hyperdeterminant(phi0 + omega * phi1), rel=1e-12)
    # on the span of W and GHZ: c_0 = Det(W) = 0 and c_4 = Det(GHZ) = 1/4
    c = ref.span_hyperdeterminant_coefficients(W, GHZ)
    assert abs(c[0]) < 1e-15 and c[4] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("nu", [2, 3, 4, 6])
def test_haar_isometry_has_orthonormal_columns(nu):
    v = ref.haar_isometry(nu, np.random.default_rng(nu))
    assert v.shape == (nu, 2)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-14


def test_density_from_span_spectrum():
    rho = ref.density_from_span(BELL_PHI, SINGLET, 0.6, 1.0, 2.0)
    assert np.abs(rho - rho.conj().T).max() < 1e-15
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.eigvalsh(rho) == pytest.approx([0.0, 0.0, 0.2, 0.8], abs=1e-15)


def test_ensemble_averages_on_a_bell_mixture():
    # every ensemble of p|Phi+><Phi+| + (1-p)|Psi+><Psi+| averages to at least
    # the roof |2p - 1|; the eigen-ensemble averages to exactly 1
    rho = 0.7 * _proj(BELL_PHI) + 0.3 * _proj(BELL_PSI_PLUS)
    assert ref.eigen_ensemble_average(rho, ref.pure_concurrence) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(3)
    for nu in (2, 3, 5):
        avg = ref.random_ensemble_average(rho, ref.pure_concurrence, nu, rng)
        assert 0.4 - 1e-14 <= avg <= 1.0 + 1e-14
