"""Closed-form roof, decomposition machinery, oracle, sphere identities."""

import numpy as np
import pytest

from oneroot.convexroof import (
    OptimizerConfig,
    _chart_rows,
    _decomposition,
    _eigen_rows,
    average_over_decomposition,
    closed_form,
    decomposition_objective,
    fd_gradient_norm,
    oracle_minimize,
    random_decomposition,
    sample_sphere_identity_instance,
    verify_sphere_identity,
    wootters_mixed_concurrence,
)
from oneroot.errors import (
    NotOneRoot,
    PreconditionViolated,
    RankDeficient,
    WrongQubitCount,
)
from oneroot.measures import CONCURRENCE, SQRT_THREE_TANGLE, concurrence
from oneroot.qstate import bloch_vector, density_matrix, ket, make_rank_two, pure_state
from oneroot.zeropolytope import certify


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
    return make_rank_two(pure_state(v0 / np.linalg.norm(v0)),
                         pure_state(v1 / np.linalg.norm(v1)),
                         bloch_vector(r, theta, phi))


def generic_span_state(m, rng, r=0.6, theta=1.2, phi=0.5):
    q, _ = np.linalg.qr(rng.standard_normal((2 ** m, 2))
                        + 1j * rng.standard_normal((2 ** m, 2)))
    return make_rank_two(pure_state(q[:, 0]), pure_state(q[:, 1]),
                         bloch_vector(r, theta, phi))


def bell_diagonal_state(r, theta=0.0, phi=0.0):
    b0 = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    b1 = pure_state(np.array([0, 1, 1, 0]) / np.sqrt(2))
    return make_rank_two(b0, b1, bloch_vector(r, theta, phi))


class TestClosedForm:
    def test_two_qubit_family_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = rng.uniform(0.05, np.pi - 0.05)
            d = rng.uniform(0, 2 * np.pi)
            r, th, ph = rng.uniform(0, 1), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            st = two_qubit_family_state(g, d, r, th, ph)
            val = closed_form(st, certify(st, CONCURRENCE)).value
            assert abs(val - 0.5 * (1 - r * np.cos(th)) * np.sin(g)) < 1e-12

    def test_two_qubit_family_matches_wootters(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.uniform(0.05, np.pi - 0.05)
            d = rng.uniform(0, 2 * np.pi)
            r, th, ph = rng.uniform(0, 1), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            st = two_qubit_family_state(g, d, r, th, ph)
            val = closed_form(st, certify(st, CONCURRENCE)).value
            assert abs(val - wootters_mixed_concurrence(st.density())) < 1e-12

    def test_pure_limit_recovers_pure_value(self):
        # r=1 along +z keeps only phi0' of the certified gauge
        st = two_qubit_family_state(1.1, 0.4, 1.0, 0.0, 0.0)
        cert = certify(st, CONCURRENCE)
        val = closed_form(st, cert).value
        assert abs(val - wootters_mixed_concurrence(st.density())) < 1e-12

    def test_rejects_non_one_root_certificate(self):
        st = bell_diagonal_state(0.6)
        cert = certify(st, CONCURRENCE)
        assert not cert.one_root
        with pytest.raises(NotOneRoot):
            closed_form(st, cert)

    def test_rejects_foreign_certificate(self):
        st1 = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        st2 = two_qubit_family_state(0.9, 0.3, 0.7, 0.9, 0.5)
        with pytest.raises(PreconditionViolated):
            closed_form(st2, certify(st1, CONCURRENCE))

    def test_accepts_certificate_from_another_gauge(self):
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        cert = certify(st, CONCURRENCE)
        # the same density matrix with phi0 and phi1 swapped: B -> X B X
        swapped = make_rank_two(st.phi1, st.phi0,
                                bloch_vector(0.4, np.pi - 0.9, -0.5))
        assert closed_form(swapped, cert).value == closed_form(st, cert).value

    def test_rejects_certificate_on_another_register(self):
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        other = three_qubit_family_state(0.5, 0.3, 0.4, 0.6, 0.2, 0.3, 0.5, 1.2, 0.7)
        with pytest.raises(PreconditionViolated):
            closed_form(other, certify(st, CONCURRENCE))

    def test_three_qubit_family_value(self):
        st = three_qubit_family_state(0.5, 0.3, 0.4, 0.6, 0.2, 0.3, 0.5, 1.2, 0.7)
        cert = certify(st, SQRT_THREE_TANGLE)
        res = closed_form(st, cert)
        # z=0 and E(antipode) = sqrt tangle of phi1
        expect = 0.5 * (1 - 0.5 * np.cos(1.2)) * cert.E_antipode
        assert abs(res.value - expect) < 1e-13
        assert res.method == "closed_form"


class TestDecompositions:
    def test_averages_constant_on_one_root_state(self):
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        cf = closed_form(st, certify(st, CONCURRENCE)).value
        rng = np.random.default_rng(3)
        for nu in (2, 3, 4, 6):
            for _ in range(5):
                dec = random_decomposition(st, nu, rng)
                avg = average_over_decomposition(dec, CONCURRENCE)
                assert abs(avg - cf) < 1e-12

    def test_averages_vary_on_non_one_root_state(self):
        st = bell_diagonal_state(0.6)
        rng = np.random.default_rng(4)
        vals = [average_over_decomposition(random_decomposition(st, 3, rng), CONCURRENCE)
                for _ in range(20)]
        assert np.ptp(vals) > 1e-3

    def test_reconstruction(self):
        st = three_qubit_family_state(0.5, 0.3, 0.4, 0.6, 0.2, 0.3, 0.5, 1.2, 0.7)
        rng = np.random.default_rng(5)
        for nu in (2, 5):
            dec = random_decomposition(st, nu, rng)
            assert dec.reconstruction_error() < 1e-12
            assert abs(dec.weights.sum() - 1.0) < 1e-12
            assert dec.weights.min() > 0
            assert len(dec.states) <= nu
            for s in dec.states:
                assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12

    def test_rank_one_state_rejected(self):
        st = two_qubit_family_state(0.9, 0.3, 1.0, 0.0, 0.0)
        with pytest.raises(RankDeficient):
            random_decomposition(st, 3)

    def test_nu_below_two_rejected(self):
        st = bell_diagonal_state(0.5)
        with pytest.raises(ValueError):
            random_decomposition(st, 1)


class TestWootters:
    def test_anchors(self):
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert abs(wootters_mixed_concurrence(density_matrix(bell)) - 1.0) < 1e-14
        assert wootters_mixed_concurrence(density_matrix(np.eye(4) / 4)) == 0.0
        for p in (0.1, 0.4, 0.8):
            werner = p * bell + (1 - p) * np.eye(4) / 4
            expect = max(0.0, (3 * p - 1) / 2)
            assert abs(wootters_mixed_concurrence(density_matrix(werner)) - expect) < 1e-14

    def test_matches_pure_concurrence(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            dm = density_matrix(np.outer(v, v.conj()))
            assert abs(wootters_mixed_concurrence(dm) - concurrence(pure_state(v))) < 1e-12

    def test_wrong_qubit_count(self):
        with pytest.raises(WrongQubitCount):
            wootters_mixed_concurrence(density_matrix(np.eye(8) / 8))


class TestOracle:
    def test_one_root_matches_closed_form(self):
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        cf = closed_form(st, certify(st, CONCURRENCE)).value
        res = oracle_minimize(st, CONCURRENCE, OptimizerConfig(restarts=6, nu_max=3, seed=1))
        assert abs(res.value - cf) < 1e-8
        assert res.method == "oracle"

    def test_non_one_root_matches_wootters(self):
        st = bell_diagonal_state(0.6)
        res = oracle_minimize(st, CONCURRENCE, OptimizerConfig(restarts=8, nu_max=3, seed=2))
        assert abs(res.value - wootters_mixed_concurrence(st.density())) < 1e-7

    def test_stats_and_winner_decomposition(self):
        st = bell_diagonal_state(0.5)
        cfg = OptimizerConfig(restarts=6, nu_max=4, seed=3)
        res = oracle_minimize(st, CONCURRENCE, cfg)
        stats = res.oracle
        assert stats.restarts == 6
        assert stats.nu_values == (2, 3, 4, 2, 3, 4)
        assert stats.final_gradient_norm < 1e-4
        assert stats.seconds > 0.0
        dec = stats.decomposition
        assert dec.reconstruction_error() < 1e-10
        avg = average_over_decomposition(dec, CONCURRENCE)
        assert abs(avg - res.value) < 1e-9

    def test_winner_decomposition_on_quartic_measure(self):
        # the degree-4 branch of the objective against its own ensemble
        st = generic_span_state(3, np.random.default_rng(29), 0.4, 1.0, 2.0)
        assert not certify(st, SQRT_THREE_TANGLE).one_root
        res = oracle_minimize(st, SQRT_THREE_TANGLE, OptimizerConfig(restarts=2, nu_max=3))
        dec = res.oracle.decomposition
        assert dec.reconstruction_error() < 1e-10
        assert abs(average_over_decomposition(dec, SQRT_THREE_TANGLE) - res.value) < 1e-10

    def test_restart_minima_and_nfev(self):
        st = bell_diagonal_state(0.6, 0.7, 0.2)
        res = oracle_minimize(st, CONCURRENCE, OptimizerConfig(restarts=5, nu_max=3, seed=5))
        stats = res.oracle
        assert len(stats.restart_minima) == stats.restarts == 5
        assert min(stats.restart_minima) == res.value
        # each Powell search evaluates the objective at least once per coordinate
        assert stats.nfev >= sum(3 * nu - 4 for nu in stats.nu_values)

    def test_rank_one_short_circuit(self):
        st = two_qubit_family_state(1.1, 0.2, 1.0, 0.0, 0.0)
        res = oracle_minimize(st, CONCURRENCE)
        assert res.oracle.restarts == 0
        assert res.oracle.restart_minima == ()
        assert res.oracle.nfev == 0
        assert res.oracle.seconds == 0.0
        assert abs(res.value - wootters_mixed_concurrence(st.density())) < 1e-12

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -2}, {"nu_max": 1}])
    def test_config_rejects_empty_search(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_three_qubit_oracle_agrees_with_closed_form(self):
        st = three_qubit_family_state(0.5, 0.3, 0.4, 0.6, 0.2, 0.3, 0.6, 0.8, 0.3)
        cf = closed_form(st, certify(st, SQRT_THREE_TANGLE)).value
        res = oracle_minimize(st, SQRT_THREE_TANGLE,
                              OptimizerConfig(restarts=4, nu_max=3, seed=4))
        assert abs(res.value - cf) < 1e-8


def _sphere_angles(y):
    """Hyperspherical angles of the unit vector y, each in [0, pi] but the
    last in (-pi, pi]."""
    tails = np.sqrt(np.cumsum((y ** 2)[::-1])[::-1])
    ang = np.arctan2(tails[1:], y[:-1])
    ang[-1] = np.arctan2(y[-1], y[-2])
    return ang


def _chart_coordinates(v):
    """The chart coordinates of a nu x 2 isometry whose first column is real:
    the angles of v1, and those of u = (R^T v2)[1:], with R the rotation in
    the plane of e1 and [0; t] that takes e1 to v1."""
    nu = v.shape[0]
    v1 = v[:, 0].real
    a = _sphere_angles(v1)
    tau = np.zeros(nu)
    tau[1:] = v1[1:] / np.linalg.norm(v1[1:])
    e1 = np.eye(nu)[0]
    rot = (np.eye(nu) + np.sin(a[0]) * (np.outer(tau, e1) - np.outer(e1, tau))
           + (np.cos(a[0]) - 1.0) * (np.outer(e1, e1) + np.outer(tau, tau)))
    u = (rot.T @ v[:, 1])[1:]
    return np.concatenate([a, _sphere_angles(np.column_stack([u.real, u.imag]).ravel())])


class TestObjective:
    def test_constant_on_one_root_state(self):
        # the roof objective of a one-root state is flat: every ensemble
        # averages to the same value, so the gradient vanishes everywhere
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        cf = closed_form(st, certify(st, CONCURRENCE)).value
        f, dim = decomposition_objective(st, CONCURRENCE, 3)
        assert dim == 5
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(dim)
            assert abs(f(x) - cf) < 1e-12
            assert fd_gradient_norm(f, x) < 1e-8

    @pytest.mark.parametrize("nu", [2, 3, 4, 5])
    def test_phase_fixed_chart(self, nu):
        # x in R^(3 nu - 4) covers the nu x 2 isometries modulo row phases
        # without a flat coordinate
        rng = np.random.default_rng(40 + nu)
        st = generic_span_state(2, rng)
        _, dim = decomposition_objective(st, CONCURRENCE, nu)
        assert dim == 3 * nu - 4
        w0 = _eigen_rows(st)
        x0_rows = _chart_rows(np.zeros(dim), nu, w0)
        assert np.array_equal(x0_rows[:2], w0) and not x0_rows[2:].any()

        def projectors(x):
            # each row's r r^dag, the data a phase on the row leaves alone
            rows = _chart_rows(x, nu, w0)
            cross = rows[:, 0] * rows[:, 1].conj()
            return np.concatenate([np.abs(rows).ravel() ** 2, cross.real, cross.imag])

        step = 1e-6
        for _ in range(5):
            x = rng.standard_normal(dim)
            assert _decomposition(st, _chart_rows(x, nu, w0)).reconstruction_error() < 1e-12
            # away from the poles of the angles, where hyperspherical charts fold
            x = rng.uniform(0.2, 1.4, dim)
            jac = np.empty((4 * nu, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = step
                jac[:, i] = (projectors(x + e) - projectors(x - e)) / (2.0 * step)
            assert np.linalg.matrix_rank(jac, tol=1e-6) == dim

        for _ in range(5):
            v = np.linalg.qr(rng.standard_normal((nu, 2))
                             + 1j * rng.standard_normal((nu, 2)))[0]
            v = v * (v[:, :1].conj() / np.abs(v[:, :1]))  # first column real, >= 0
            x = _chart_coordinates(v)
            assert np.abs(_chart_rows(x, nu, w0) - v @ w0).max() < 1e-12

    @pytest.mark.parametrize("m, measure", [(2, CONCURRENCE), (3, SQRT_THREE_TANGLE)])
    def test_kernel_matches_measure_on_amplitudes(self, m, measure):
        st = generic_span_state(m, np.random.default_rng(50 + m))
        w0 = _eigen_rows(st)
        rng = np.random.default_rng(60 + m)
        for nu in (2, 3, 4):
            f, dim = decomposition_objective(st, measure, nu)
            for _ in range(10):
                x = rng.standard_normal(dim)
                dec = _decomposition(st, _chart_rows(x, nu, w0))
                assert abs(f(x) - average_over_decomposition(dec, measure)) < 1e-12

    def test_gradient_nonzero_off_one_root(self):
        st = bell_diagonal_state(0.6)
        f, dim = decomposition_objective(st, CONCURRENCE, 2)
        rng = np.random.default_rng(8)
        norms = [fd_gradient_norm(f, rng.standard_normal(dim)) for _ in range(10)]
        assert max(norms) > 1e-3


class TestSphereIdentity:
    def test_random_instances(self):
        for n in (2, 4):
            for k in range(50):
                geom, z = sample_sphere_identity_instance(n, np.random.default_rng(900 + k))
                rep = verify_sphere_identity(geom, z)
                assert rep.max_residual < 1e-10
                assert rep.norm_identity < 1e-10
                assert rep.apollonius_a < 1e-10
                assert rep.apollonius_b < 1e-10
                assert rep.main_identity < 1e-10

    def test_barycenter_property(self):
        geom, _ = sample_sphere_identity_instance(2, np.random.default_rng(7))
        gb = geom.weights_b @ geom.points_b
        assert np.linalg.norm(geom.weights_a @ geom.points_a - gb) < 1e-10
        assert geom.n == 2

    def test_dimension_gate(self):
        with pytest.raises(PreconditionViolated, match="dimension"):
            sample_sphere_identity_instance(3, np.random.default_rng(0))

    def test_precondition_reports(self):
        geom, z = sample_sphere_identity_instance(2, np.random.default_rng(11))
        off = z + np.array([0.1, 0.0, 0.0])
        with pytest.raises(PreconditionViolated, match="on-sphere"):
            verify_sphere_identity(geom, off)
        # a generic on-sphere z is not equidistant from set A
        u = geom.points_b[0] - geom.center
        zb = geom.center + geom.radius * u / np.linalg.norm(u)
        with pytest.raises(PreconditionViolated, match="equidistance"):
            verify_sphere_identity(geom, zb)

    def test_bad_weights_report(self):
        import dataclasses
        geom, z = sample_sphere_identity_instance(2, np.random.default_rng(13))
        bad = dataclasses.replace(geom, weights_a=geom.weights_a * 2)
        with pytest.raises(PreconditionViolated, match="weights"):
            verify_sphere_identity(bad, z)

    def test_mismatched_barycenters_report(self):
        import dataclasses
        g1, z = sample_sphere_identity_instance(2, np.random.default_rng(17))
        g2, _ = sample_sphere_identity_instance(2, np.random.default_rng(19))
        # graft set B of another instance onto the same sphere: barycenters differ
        pts = g2.points_b - g2.center
        pts = g1.center + g1.radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        bad = dataclasses.replace(g1, weights_b=g2.weights_b, points_b=pts)
        with pytest.raises(PreconditionViolated, match="barycenter"):
            verify_sphere_identity(bad, z)
