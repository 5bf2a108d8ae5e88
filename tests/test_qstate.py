"""State construction, spectra, Bloch coordinates, partial trace."""

import numpy as np
import pytest

from oneroot.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBloch,
    NonOrthogonalBasis,
    RankTooHigh,
)
from oneroot.qstate import (
    BlochVector,
    bloch_from_cartesian,
    bloch_vector,
    density_matrix,
    eigen_decompose_rank2,
    ket,
    make_rank_two,
    partial_trace,
    pure_state,
    trace_distance,
)
from oneroot.tolerances import TOL


def random_rank_two(m, rng, rmax=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((2 ** m, 2))
                        + 1j * rng.standard_normal((2 ** m, 2)))
    b = bloch_vector(rng.uniform(0, rmax), rng.uniform(0, np.pi),
                     rng.uniform(0, 2 * np.pi))
    return make_rank_two(pure_state(q[:, 0]), pure_state(q[:, 1]), b)


class TestPureState:
    def test_ket_indexing_is_big_endian(self):
        # |0110> must sit at integer index 6
        assert ket("0110").amps[6] == 1.0
        assert ket("0110").m == 4

    def test_norm_validation(self):
        with pytest.raises(DimensionMismatch):
            pure_state([1.0, 1.0])  # norm sqrt(2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DimensionMismatch):
            pure_state([bad, 0.0, 0.0, 0.0])

    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            pure_state([1.0, 0.0, 0.0])

    def test_dense_ceiling(self):
        with pytest.raises(DimensionMismatch):
            pure_state(np.eye(64)[0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-3
        a[0, 0] = 0.5
        a[1, 1] = 0.5
        with pytest.raises(DimensionMismatch):
            density_matrix(a)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DimensionMismatch):
            density_matrix(np.eye(4))

    def test_rejects_negative(self):
        with pytest.raises(DimensionMismatch):
            density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_non_finite(self):
        a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        a[0, 1] = np.nan
        with pytest.raises(DimensionMismatch):
            density_matrix(a)


class TestBloch:
    def test_radius_validation(self):
        with pytest.raises(InvalidBloch):
            bloch_vector(1.1, 0.0, 0.0)

    @pytest.mark.parametrize("r, theta, phi", [
        (np.nan, 0.1, 0.2), (0.5, np.nan, 0.2), (0.5, 0.1, np.nan), (0.5, 0.1, np.inf),
    ])
    def test_rejects_non_finite(self, r, theta, phi):
        with pytest.raises(InvalidBloch):
            bloch_vector(r, theta, phi)

    def test_azimuth_wraps(self):
        assert abs(bloch_vector(0.5, 0.1, 2 * np.pi + 0.3).phi - 0.3) < 1e-12

    def test_cartesian_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = bloch_vector(rng.uniform(0, 1), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
            b2 = bloch_from_cartesian(b.cartesian())
            assert np.allclose(b.cartesian(), b2.cartesian(), atol=1e-12)


class TestMakeRankTwo:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(NonOrthogonalBasis):
            make_rank_two(ket("00"), pure_state([1, 1, 0, 0] / np.sqrt(2)),
                          BlochVector(0.5, 0.0, 0.0))

    def test_pure_pole_matches_projector(self):
        # r=1 along +z is exactly |phi0><phi0|
        s = make_rank_two(ket("00"), ket("11"), BlochVector(1.0, 0.0, 0.0))
        assert trace_distance(s.density(), ket("00").density()) < 1e-14

    def test_equator_pure_state(self):
        # r=1, theta=pi/2, phi=0 on the {|00>,|11>} basis is the Bell state
        s = make_rank_two(ket("00"), ket("11"), BlochVector(1.0, np.pi / 2, 0.0))
        bell = pure_state([1, 0, 0, 1] / np.sqrt(2))
        assert trace_distance(s.density(), bell.density()) < 1e-14

    def test_eigenvalues_from_radius(self):
        s = random_rank_two(3, np.random.default_rng(2))
        l0, l1 = s.eigenvalues()
        w = np.linalg.eigvalsh(s.density().mat)[::-1]
        assert abs(w[0] - l0) < 1e-12 and abs(w[1] - l1) < 1e-12


class TestEigenDecompose:
    def test_diagonal_mixture(self):
        rho = density_matrix(np.diag([0.75, 0.0, 0.0, 0.25]))
        s = eigen_decompose_rank2(rho)
        assert abs(s.bloch.r - 0.5) < 1e-12
        assert s.bloch.theta == 0.0
        assert np.allclose(s.phi0.amps, ket("00").amps)
        assert np.allclose(s.phi1.amps, ket("11").amps)
        assert not s.degenerate

    def test_degenerate_tie_break(self):
        # maximally mixed on span{|00>, |11>}: order falls back to basis order
        rho = density_matrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        s = eigen_decompose_rank2(rho)
        assert s.degenerate
        assert np.allclose(s.phi0.amps, ket("00").amps, atol=1e-12)
        assert np.allclose(s.phi1.amps, ket("11").amps, atol=1e-12)

    def test_rank_three_rejected(self):
        with pytest.raises(RankTooHigh):
            eigen_decompose_rank2(density_matrix(np.diag([0.5, 0.3, 0.2, 0.0])))

    def test_round_trip_density(self):
        # matrix -> RankTwoState -> matrix is the identity within 1e-10
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            for _ in range(20):
                s = random_rank_two(m, rng)
                rho = s.density()
                back = eigen_decompose_rank2(rho).density()
                assert trace_distance(rho, back) < 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = eigen_decompose_rank2(random_rank_two(2, rng, rmax=0.9).density())
            for e in (s.phi0, s.phi1):
                lead = e.amps[np.flatnonzero(np.abs(e.amps) > TOL.phase_cut)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestPartialTrace:
    def test_index_validation(self):
        rho = ket("00").density()
        with pytest.raises(IndexOutOfRange):
            partial_trace(rho, 3)
        with pytest.raises(IndexOutOfRange):
            partial_trace(rho, 0)

    def test_product_state_factors(self):
        # tracing qubit 1 of |01><01| leaves |1><1|
        red = partial_trace(ket("01").density(), 1)
        assert np.allclose(red.mat, np.diag([0.0, 1.0]))
        # tracing qubit 2 leaves |0><0|
        red = partial_trace(ket("01").density(), 2)
        assert np.allclose(red.mat, np.diag([1.0, 0.0]))

    def test_bell_marginal_is_maximally_mixed(self):
        bell = pure_state([1, 0, 0, 1] / np.sqrt(2))
        for k in (1, 2):
            red = partial_trace(bell.density(), k)
            assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_rank_two(4, rng)
            red = partial_trace(s.density(), int(rng.integers(1, 5)))
            assert abs(np.trace(red.mat) - 1.0) < 1e-12
            assert red.m == 3


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(ket("00").density(), ket("11").density()) - 1.0) < 1e-14

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (random_rank_two(2, rng).density() for _ in range(3))
            assert trace_distance(a, c) <= (trace_distance(a, b)
                                            + trace_distance(b, c) + 1e-12)

    def test_bloch_chord_on_shared_span(self):
        # for two states on the same 2-dim span, D = ||r1 - r2|| / 2
        phi0, phi1 = ket("000"), random_orthogonal_partner(np.random.default_rng(7))
        b1 = bloch_vector(0.7, 1.1, 0.4)
        b2 = bloch_vector(0.2, 2.0, 5.1)
        s1 = make_rank_two(phi0, phi1, b1)
        s2 = make_rank_two(phi0, phi1, b2)
        d = trace_distance(s1.density(), s2.density())
        assert abs(d - np.linalg.norm(b1.cartesian() - b2.cartesian()) / 2) < 1e-12


def random_orthogonal_partner(rng):
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v[0] = 0.0  # orthogonal to |000>
    return pure_state(v / np.linalg.norm(v))
