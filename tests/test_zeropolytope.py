"""Zero polynomial construction, root clustering, pole safety, certification."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from oneroot.convexroof import closed_form
from oneroot.errors import EntireRangeVanishes, ZeroPolynomialIdentically
from oneroot.measures import CONCURRENCE, SQRT_THREE_TANGLE
from oneroot.qstate import (
    bloch_from_cartesian,
    bloch_vector,
    ket,
    make_rank_two,
    pure_state,
    trace_distance,
)
from oneroot.tolerances import TOL
from oneroot.zeropolytope import (
    ZeroPolynomial,
    _polish_center,
    build_polynomial,
    certify,
    find_roots,
    pole_safe_basis,
    root_direction,
)


def two_qubit_family_state(gamma, delta, r, theta, phi):
    phi1 = pure_state([0, np.cos(gamma / 2), np.sin(gamma / 2) * np.exp(1j * delta), 0])
    return make_rank_two(ket("00"), phi1, bloch_vector(r, theta, phi))


def three_qubit_family_state(a, b, c, g, t1, t2, r, theta, phi):
    s = np.sqrt(c * t1) + np.sqrt(b * t2)
    t3 = s ** 2 / a
    v0 = np.zeros(8, dtype=complex)
    v0[0b001], v0[0b010], v0[0b100] = a, b, c
    v1 = np.zeros(8, dtype=complex)
    v1[0b000], v1[0b011], v1[0b101], v1[0b110] = g, t1, t2, t3
    return make_rank_two(pure_state(v0), pure_state(v1 / np.linalg.norm(v1)),
                         bloch_vector(r, theta, phi))


def random_rank_two(m, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2 ** m, 2))
                        + 1j * rng.standard_normal((2 ** m, 2)))
    b = bloch_vector(rng.uniform(0, 1), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    return make_rank_two(pure_state(q[:, 0]), pure_state(q[:, 1]), b)


def regauged(st, u):
    """``st`` in the basis (phi0, phi1) @ u; the Bloch matrix B becomes u^dag B u."""
    x, y, z = st.bloch.cartesian()
    b = u.conj().T @ (0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])) @ u
    f = st.basis_matrix() @ u
    r = [2 * b[1, 0].real, 2 * b[1, 0].imag, (b[0, 0] - b[1, 1]).real]
    return make_rank_two(pure_state(f[:, 0]), pure_state(f[:, 1]), bloch_from_cartesian(r))


class TestBuildPolynomial:
    def test_bell_diagonal_span_hand_expansion(self):
        # phi0=|00>, phi1=|11>: P(|00> + w|11>) = 2w, so c = (0, 2, 0)
        st = make_rank_two(ket("00"), ket("11"), bloch_vector(0.4, 0.2, 0.1))
        c = build_polynomial(st, CONCURRENCE).coeffs
        assert np.allclose(c, [0.0, 2.0, 0.0], atol=1e-14)

    def test_triplet_span_hand_expansion(self):
        # phi1 = (|01>+|10>)/sqrt(2): P = 2(0 - w^2/2) = -w^2
        st = make_rank_two(ket("00"), pure_state([0, 1, 1, 0] / np.sqrt(2)),
                           bloch_vector(0.4, 0.2, 0.1))
        c = build_polynomial(st, CONCURRENCE).coeffs
        assert np.allclose(c, [0.0, 0.0, -1.0], atol=1e-14)

    def test_endpoint_coefficients_are_pole_values(self):
        # c_0 = P(phi0) and c_D = P(phi1) exactly, for both measures
        rng = np.random.default_rng(1)
        for meas, m in ((CONCURRENCE, 2), (SQRT_THREE_TANGLE, 3)):
            for _ in range(10):
                st = random_rank_two(m, rng)
                c = build_polynomial(st, meas).coeffs
                assert abs(c[0] - meas.poly(st.phi0.amps)) < 1e-12
                assert abs(c[-1] - meas.poly(st.phi1.amps)) < 1e-12

    def test_three_qubit_family_is_pure_quartic(self):
        st = three_qubit_family_state(0.8, 0.4, np.sqrt(1 - 0.8**2 - 0.4**2),
                                      0.7, 0.3, 0.25, 0.5, 0.9, 0.3)
        c = build_polynomial(st, SQRT_THREE_TANGLE).coeffs
        assert np.abs(c[:4]).max() < 1e-14
        assert abs(c[4]) > 1e-3

    def test_interpolation_soundness_random(self):
        # polynomial evaluation agrees with direct amplitude evaluation
        rng = np.random.default_rng(2)
        for meas, m in ((CONCURRENCE, 2), (SQRT_THREE_TANGLE, 3)):
            for _ in range(20):
                st = random_rank_two(m, rng)
                poly = build_polynomial(st, meas)
                w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                direct = meas.poly(st.phi0.amps[None, :]
                                   + w[:, None] * st.phi1.amps[None, :])
                scale = np.abs(direct).max()
                assert np.abs(poly.evaluate(w) - direct).max() < 1e-9 * scale


def poly_with_coeffs(coeffs, measure=SQRT_THREE_TANGLE):
    return ZeroPolynomial(np.asarray(coeffs, dtype=complex), measure)


def spread_roots(rng, k):
    """k roots in the closed unit disk, pairwise at least 0.1 apart."""
    while True:
        z = np.sqrt(rng.uniform(0, 1, k)) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
        if k == 1 or np.abs(z[:, None] - z[None, :])[np.triu_indices(k, 1)].min() >= 0.1:
            return z


class TestFindRoots:
    def test_degree_trim(self):
        # (0, 2, 0): leading coefficient insignificant, single root at 0
        roots = find_roots(poly_with_coeffs([0.0, 2.0, 0.0], CONCURRENCE))
        assert roots == [(0.0, 1)]

    def test_two_simple_roots(self):
        roots = find_roots(poly_with_coeffs([-1.0, 0.0, 1.0], CONCURRENCE))
        assert len(roots) == 2
        assert abs(roots[0][0] + 1.0) < 1e-12 and abs(roots[1][0] - 1.0) < 1e-12

    def test_quadruple_root_merges(self):
        # (w-1)^4: companion eigenvalues scatter ~1e-4, the model pass re-merges
        roots = find_roots(poly_with_coeffs([1.0, -4.0, 6.0, -4.0, 1.0]))
        assert roots == [(1.0, 4)]

    def test_two_double_roots_stay_split(self):
        # (w-2)^2 (w+1)^2 = w^4 - 2w^3 - 3w^2 + 4w + 4
        roots = find_roots(poly_with_coeffs([4.0, 4.0, -3.0, -2.0, 1.0]))
        assert [(round(z.real, 6), mult) for z, mult in roots] == [(-1.0, 2), (2.0, 2)]

    @pytest.mark.parametrize("pattern", [(2,), (1, 1), (3, 1), (2, 1, 1), (2, 2),
                                         (1, 1, 1, 1)])
    def test_multiplicity_patterns(self, pattern):
        # each coefficient moved by up to 1e-13 scatters a root of
        # multiplicity m by ~1e-13^(1/m); the ladder must still recover
        # every multiplicity and locate every root
        rng = np.random.default_rng(pattern)
        for _ in range(20):
            z = spread_roots(rng, len(pattern))
            c = npoly.polyfromroots([r for r, m in zip(z, pattern) for _ in range(m)])
            noise = rng.uniform(0, 1e-13, c.size) * np.exp(2j * np.pi * rng.uniform(0, 1, c.size))
            roots = find_roots(poly_with_coeffs(c + noise))
            assert sorted(m for _, m in roots) == sorted(pattern)
            for r, m in zip(z, pattern):
                got, mult = min(roots, key=lambda t: abs(t[0] - r))
                assert mult == m and abs(got - r) < 1e-8

    def test_close_pair_stays_split(self):
        # 0 and 0.0014 share a group at the first two ladder tolerances; as a
        # double root their rebuild misses by ~5e-7, so both partitions fail
        # and the next decade splits them
        z = np.array([-0.5, 0.0, 0.0014, 0.5])
        roots = find_roots(poly_with_coeffs(npoly.polyfromroots(z)))
        assert [m for _, m in roots] == [1, 1, 1, 1]
        assert np.abs(np.array([r for r, _ in roots]) - z).max() < 1e-12

    def test_escaping_newton_step_is_rejected(self):
        # the first ladder partition chains -0.01, 0 and 0.01; Newton on p''
        # from their centroid passes near the zero of p''' and lands ~0.18
        # away, so that center fails the rebuild and the roots stay simple
        z = np.array([-0.01, 0.0, 0.01, 0.0115j])
        c = npoly.polyfromroots(z)
        assert abs(_polish_center(c, 0j, 3)) > 0.1
        roots = find_roots(poly_with_coeffs(c))
        assert [m for _, m in roots] == [1, 1, 1, 1]
        got = np.sort_complex(np.array([r for r, _ in roots]))
        assert np.abs(got - np.sort_complex(z)).max() < 1e-12

    def test_identically_zero_raises(self):
        with pytest.raises(ZeroPolynomialIdentically):
            find_roots(poly_with_coeffs([1e-14, 0.0, 1e-15]))

    def test_constant_polynomial_has_no_finite_roots(self):
        assert find_roots(poly_with_coeffs([1.0, 0.0, 0.0], CONCURRENCE)) == []

    def test_residual_at_reported_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_rank_two(2, rng)
            poly = build_polynomial(st, CONCURRENCE)
            scale = np.abs(poly.coeffs).max()
            for z, _mult in find_roots(poly):
                assert abs(poly.evaluate(z)) < 1e-9 * scale


class TestRootDirection:
    def test_poles_and_equator(self):
        assert np.allclose(root_direction(0.0), [0, 0, 1])
        assert np.allclose(root_direction(1e9), [0, 0, -1], atol=1e-8)
        assert abs(root_direction(1.0 + 0.0j)[2]) < 1e-15

    def test_broadcasts_like_the_scalar_formula(self):
        rng = np.random.default_rng(3)
        w = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))) * 3.0
        dirs = root_direction(w)
        assert dirs.shape == (4, 5, 3)
        for z, d in zip(w.ravel(), dirs.reshape(-1, 3)):
            s = 1.0 + abs(z) ** 2
            assert np.abs(d - [2 * z.real / s, 2 * z.imag / s, (2 - s) / s]).max() < 1e-15

    def test_matches_state_bloch_angles(self):
        # omega = tan(t/2) e^{i s} must land at polar t, azimuth s
        t, s = 1.1, 2.3
        d = root_direction(np.tan(t / 2) * np.exp(1j * s))
        assert np.allclose(d, [np.sin(t) * np.cos(s), np.sin(t) * np.sin(s), np.cos(t)])


class TestPoleSafeBasis:
    def test_identity_when_safe(self):
        st = two_qubit_family_state(np.pi / 3, 0.5, 0.4, 1.0, 0.2)
        assert pole_safe_basis(st, CONCURRENCE) is st

    def test_swap_when_phi1_vanishes(self):
        # family basis reversed: phi1 = |00> is a zero of concurrence
        fam = two_qubit_family_state(np.pi / 3, 0.5, 0.4, 1.0, 0.2)
        rev = make_rank_two(fam.phi1, fam.phi0, fam.bloch)
        safe = pole_safe_basis(rev, CONCURRENCE)
        assert np.allclose(safe.phi1.amps, fam.phi1.amps)
        assert trace_distance(safe.density(), rev.density()) < 1e-12

    def test_mixer_when_both_poles_vanish(self):
        st = make_rank_two(ket("00"), ket("11"), bloch_vector(0.3, 1.0, 0.2))
        safe = pole_safe_basis(st, CONCURRENCE)
        assert CONCURRENCE.value(safe.phi1) >= TOL.pole_min
        assert trace_distance(safe.density(), st.density()) < 1e-12

    def test_entire_range_vanishes(self):
        st = make_rank_two(ket("00"), ket("01"), bloch_vector(0.3, 1.0, 0.2))
        with pytest.raises(EntireRangeVanishes):
            pole_safe_basis(st, CONCURRENCE)


class TestCertify:
    def test_two_qubit_family_certificate(self):
        gamma = 1.1
        st = two_qubit_family_state(gamma, 0.7, 0.6, 0.9, 0.3)
        cert = certify(st, CONCURRENCE)
        assert cert.one_root
        assert abs(cert.z) < 1e-12
        assert cert.roots[0][1] == 2
        assert abs(abs(np.vdot(cert.root_state.amps, ket("00").amps)) - 1.0) < 1e-12
        assert abs(cert.E_antipode - np.sin(gamma)) < 1e-12
        assert abs(cert.N - np.sin(gamma) / 4) < 1e-13
        assert cert.law_residual < TOL.law_rtol

    def test_three_qubit_family_certificate(self):
        st = three_qubit_family_state(0.75, 0.45, np.sqrt(1 - 0.75**2 - 0.45**2),
                                      0.8, 0.35, 0.3, 0.6, 1.2, 0.4)
        cert = certify(st, SQRT_THREE_TANGLE)
        assert cert.one_root
        assert cert.roots[0][1] == 4
        assert abs(cert.z) < 1e-10
        # the root state is the degenerate pole phi0
        assert abs(abs(np.vdot(cert.root_state.amps, st.phi0.amps)) - 1.0) < 1e-10

    def test_bell_diagonal_not_one_root(self):
        st = make_rank_two(ket("00"), ket("11"), bloch_vector(0.3, 1.0, 0.2))
        cert = certify(st, CONCURRENCE)
        assert not cert.one_root
        assert cert.n_clusters == 2
        assert cert.z is None

    def test_random_spans_report_two_clusters(self):
        # a generic rank-2 two-qubit span has two distinct product states
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(20):
            cert = certify(random_rank_two(2, rng), CONCURRENCE)
            hits += cert.n_clusters
            assert not cert.one_root
        assert hits == 40

    def test_gauge_independence(self):
        st = make_rank_two(ket("00"), ket("11"), bloch_vector(0.5, 0.8, 0.1))
        c1 = certify(st, CONCURRENCE)
        c2 = certify(pole_safe_basis(st, CONCURRENCE), CONCURRENCE)
        assert c1.one_root == c2.one_root
        assert c1.n_clusters == c2.n_clusters

    def test_gauge_independence_of_root_state(self):
        fam = two_qubit_family_state(0.9, 0.2, 0.5, 1.4, 0.6)
        rev = make_rank_two(fam.phi1, fam.phi0, fam.bloch)
        c1 = certify(fam, CONCURRENCE)
        c2 = certify(rev, CONCURRENCE)
        assert c1.one_root and c2.one_root
        assert abs(abs(np.vdot(c1.root_state.amps, c2.root_state.amps)) - 1.0) < 1e-10

    def test_antipode_is_orthogonal(self):
        st = two_qubit_family_state(1.3, 0.4, 0.7, 0.5, 2.0)
        cert = certify(st, CONCURRENCE)
        assert abs(np.vdot(cert.root_state.amps, cert.antipode_state.amps)) < 1e-12

    def test_measure_vanishes_at_root(self):
        st = three_qubit_family_state(0.7, 0.5, np.sqrt(1 - 0.7**2 - 0.5**2),
                                      0.75, 0.3, 0.2, 0.4, 0.8, 1.0)
        cert = certify(st, SQRT_THREE_TANGLE)
        assert SQRT_THREE_TANGLE.value(cert.root_state) < 1e-8

    def test_law_via_full_amplitudes(self):
        # distance law checked from scratch, independent of the poly fast path
        st = two_qubit_family_state(0.8, 1.1, 0.55, 0.7, 1.9)
        cert = certify(st, CONCURRENCE)
        rng = np.random.default_rng(5)
        f = cert.state.basis_matrix()
        zdir = root_direction(cert.z)
        for _ in range(32):
            t = np.arccos(rng.uniform(-1, 1))
            s = rng.uniform(0, 2 * np.pi)
            w = np.tan(t / 2) * np.exp(1j * s)
            amps = (f[:, 0] + w * f[:, 1]) / np.sqrt(1 + abs(w) ** 2)
            e_direct = CONCURRENCE.value(pure_state(amps))
            chord2 = ((root_direction(w) - zdir) ** 2).sum()
            assert abs(e_direct - cert.N * chord2) < 1e-10

    def test_verdict_survives_regauge(self):
        # a basis rotation inside the span leaves the density matrix alone,
        # so the verdict, the cluster count and the roof must not move
        rng = np.random.default_rng(17)
        cases = [
            (two_qubit_family_state(1.2, 0.5, 0.6, 0.8, 2.1), CONCURRENCE),
            (three_qubit_family_state(0.7, 0.5, np.sqrt(1 - 0.7**2 - 0.5**2),
                                      0.75, 0.3, 0.2, 0.4, 0.8, 1.0), SQRT_THREE_TANGLE),
            (random_rank_two(2, rng), CONCURRENCE),
        ]
        moved = 0
        for st, meas in cases:
            base = certify(st, meas)
            for _ in range(20):
                q, r = np.linalg.qr(rng.standard_normal((2, 2))
                                    + 1j * rng.standard_normal((2, 2)))
                rot = regauged(st, q * (np.diagonal(r) / np.abs(np.diagonal(r))))
                assert trace_distance(rot.density(), st.density()) < 1e-12
                cert = certify(rot, meas)
                moved += cert.state is not rot
                assert cert.one_root == base.one_root
                assert cert.n_clusters == base.n_clusters
                if base.one_root:
                    assert abs(closed_form(rot, cert).value
                               - closed_form(st, base).value) < 1e-10
        assert moved >= 1
