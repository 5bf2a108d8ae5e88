"""Closed-form roof, decomposition machinery, oracle, sphere identities."""

import numpy as np
import pytest

from oneroot.convexroof import (
    OptimizerConfig,
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
        dec = stats.decomposition
        assert dec.reconstruction_error() < 1e-10
        avg = average_over_decomposition(dec, CONCURRENCE)
        assert abs(avg - res.value) < 1e-9

    def test_winner_decomposition_on_quartic_measure(self):
        # the degree-4 branch of the objective against its own ensemble
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        st = make_rank_two(pure_state(q[:, 0]), pure_state(q[:, 1]),
                           bloch_vector(0.4, 1.0, 2.0))
        assert not certify(st, SQRT_THREE_TANGLE).one_root
        res = oracle_minimize(st, SQRT_THREE_TANGLE, OptimizerConfig(restarts=2, nu_max=3))
        dec = res.oracle.decomposition
        assert dec.reconstruction_error() < 1e-10
        assert abs(average_over_decomposition(dec, SQRT_THREE_TANGLE) - res.value) < 1e-10

    def test_rank_one_short_circuit(self):
        st = two_qubit_family_state(1.1, 0.2, 1.0, 0.0, 0.0)
        res = oracle_minimize(st, CONCURRENCE)
        assert res.oracle.restarts == 0
        assert abs(res.value - wootters_mixed_concurrence(st.density())) < 1e-12

    def test_three_qubit_oracle_agrees_with_closed_form(self):
        st = three_qubit_family_state(0.5, 0.3, 0.4, 0.6, 0.2, 0.3, 0.6, 0.8, 0.3)
        cf = closed_form(st, certify(st, SQRT_THREE_TANGLE)).value
        res = oracle_minimize(st, SQRT_THREE_TANGLE,
                              OptimizerConfig(restarts=4, nu_max=3, seed=4))
        assert abs(res.value - cf) < 1e-8


class TestObjective:
    def test_constant_on_one_root_state(self):
        # the roof objective of a one-root state is flat: every ensemble
        # averages to the same value, so the gradient vanishes everywhere
        st = two_qubit_family_state(0.9, 0.3, 0.4, 0.9, 0.5)
        cf = closed_form(st, certify(st, CONCURRENCE)).value
        f, dim = decomposition_objective(st, CONCURRENCE, 3)
        assert dim == 18
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(dim)
            assert abs(f(x) - cf) < 1e-12
            assert fd_gradient_norm(f, x) < 1e-8

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
