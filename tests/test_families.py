"""Tests for the state families, class generators, and marginal scans."""

import dataclasses

import numpy as np
import pytest

from oneroot.convexroof import (
    OptimizerConfig,
    closed_form,
    wootters_mixed_concurrence,
)
from oneroot.errors import (
    DegenerateParameters,
    EntireRangeVanishes,
    UnsupportedClass,
)
from oneroot.families import (
    TRACEABLE,
    ThreeQubitFamily,
    TwoQubitFamily,
    expected_one_root,
    generator,
    identity_slocc,
    random_slocc,
    random_three_qubit_family,
    random_two_qubit_family,
    scan_classes,
    scan_table_verdict,
    slocc_class,
    slocc_marginal,
    sqrt_tangle_formula,
    three_qubit_family,
    three_qubit_state,
    two_qubit_concurrence,
    two_qubit_state,
)
from oneroot.measures import CONCURRENCE, SQRT_THREE_TANGLE, apply_slocc
from oneroot.qstate import (
    bloch_vector,
    density_matrix,
    partial_trace,
)
from oneroot.tolerances import TOL
from oneroot.zeropolytope import certify


class TestTwoQubitFamily:

    def test_formula_matches_wootters(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            fam = random_two_qubit_family(rng)
            w = wootters_mixed_concurrence(two_qubit_state(fam).density())
            assert abs(w - two_qubit_concurrence(fam)) < 1e-12

    def test_formula_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            fam = random_two_qubit_family(rng)
            state = two_qubit_state(fam)
            cert = certify(state, CONCURRENCE)
            assert cert.one_root
            got = closed_form(state, cert).value
            assert abs(got - two_qubit_concurrence(fam)) < 1e-12

    def test_anchor_value(self):
        # frozen from the independent Wootters evaluation of this member
        fam = TwoQubitFamily(np.pi / 3, 0.7, bloch_vector(0.5, np.pi / 4, 1.0))
        got = wootters_mixed_concurrence(two_qubit_state(fam).density())
        assert abs(got - 0.279919592968271) < 1e-12

    def test_balanced_mix_at_half(self):
        fam = TwoQubitFamily(np.pi / 2, 0.0, bloch_vector(0.0, 0.0, 0.0))
        assert abs(two_qubit_concurrence(fam) - 0.5) < 1e-15
        got = wootters_mixed_concurrence(two_qubit_state(fam).density())
        assert abs(got - 0.5) < 1e-12

    def test_pure_toward_root_is_separable(self):
        fam = TwoQubitFamily(1.2, 0.4, bloch_vector(1.0, 0.0, 0.0))
        assert abs(two_qubit_concurrence(fam)) < 1e-15
        got = wootters_mixed_concurrence(two_qubit_state(fam).density())
        assert got < 1e-12

    def test_gamma_zero_vanishes(self):
        state = two_qubit_state(
            TwoQubitFamily(0.0, 0.0, bloch_vector(0.3, 1.0, 0.0)))
        with pytest.raises(EntireRangeVanishes):
            certify(state, CONCURRENCE)

    def test_sampler_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            fam = random_two_qubit_family(rng)
            assert 0.05 <= fam.gamma <= np.pi - 0.05
            assert 0.0 <= fam.bloch.r <= 1.0


class TestThreeQubitFamily:

    def test_formula_matches_oracle_anchor(self):
        # frozen from the brute-force roof (24 restarts, seed 3)
        fam = three_qubit_family(0.6, 0.48, 0.64, 1.3, 0.35, 0.25,
                                 bloch_vector(0.4, 1.1, 0.3))
        assert abs(sqrt_tangle_formula(fam) - 0.186734255496680) < 1e-9

    def test_formula_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            fam = random_three_qubit_family(rng)
            state = three_qubit_state(fam)
            cert = certify(state, SQRT_THREE_TANGLE)
            assert cert.one_root
            got = closed_form(state, cert).value
            assert abs(got - sqrt_tangle_formula(fam)) < 1e-10

    def test_matrix_element_identity(self):
        # value = (1/2) |1 - <phi0|rho|phi0> + <phi1|rho|phi1>| E(phi1-hat)
        rng = np.random.default_rng(22)
        for _ in range(20):
            fam = random_three_qubit_family(rng)
            state = three_qubit_state(fam)
            dm = state.density().mat
            v0, v1 = state.phi0.amps, state.phi1.amps
            b00 = np.vdot(v0, dm @ v0).real
            b11 = np.vdot(v1, dm @ v1).real
            ident = 0.5 * abs(1.0 - b00 + b11) * SQRT_THREE_TANGLE.value(state.phi1)
            assert abs(ident - sqrt_tangle_formula(fam)) < 1e-12

    def test_t3_symmetric_identity(self):
        # a = b = c, t1 = t2 = t collapses the derived amplitude to 4t
        s = 1.0 / np.sqrt(3.0)
        fam = three_qubit_family(s, s, s, 2.0, 0.3, 0.3, bloch_vector(0, 0, 0))
        assert abs(fam.t3 - 1.2) < 1e-12

    def test_canonical_flag(self):
        s = 1.0 / np.sqrt(3.0)
        big = ThreeQubitFamily(s, s, s, 5.0, 0.3, 0.3, bloch_vector(0, 0, 0))
        small = ThreeQubitFamily(s, s, s, 0.1, 0.3, 0.3, bloch_vector(0, 0, 0))
        assert big.canonical
        assert not small.canonical

    def test_factory_rejects_zero_a(self):
        with pytest.raises(DegenerateParameters):
            three_qubit_family(0.0, 0.6, 0.8, 1.0, 0.3, 0.3,
                               bloch_vector(0, 0, 0))

    def test_factory_rejects_non_unit(self):
        with pytest.raises(ValueError):
            three_qubit_family(0.5, 0.5, 0.5, 1.0, 0.3, 0.3,
                               bloch_vector(0, 0, 0))

    def test_factory_rejects_negative_t(self):
        s = 1.0 / np.sqrt(3.0)
        with pytest.raises(ValueError):
            three_qubit_family(s, s, s, 1.0, -0.3, 0.3, bloch_vector(0, 0, 0))

    def test_sampler_canonical_and_unit(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            fam = random_three_qubit_family(rng)
            assert fam.canonical
            norm = fam.a ** 2 + fam.b ** 2 + fam.c ** 2
            assert abs(norm - 1.0) < 1e-12


class TestGenerators:

    @pytest.mark.parametrize("mu,params", [
        (4, (0.7 + 0.2j, 0.4 - 0.1j)),
        (5, (0.9 + 0.3j,)),
        (7, ()),
        (8, ()),
    ])
    def test_normalized(self, mu, params):
        g = generator(mu, params)
        assert abs(np.linalg.norm(g.amps) - 1.0) < 1e-12

    def test_class7_amplitudes(self):
        g = generator(7)
        want = np.zeros(16)
        want[[0b0000, 0b0101, 0b1000, 0b1110]] = 0.5
        np.testing.assert_allclose(g.amps, want, atol=1e-15)

    def test_class8_amplitudes(self):
        g = generator(8)
        want = np.zeros(16)
        want[[0b0000, 0b1011, 0b1101, 0b1110]] = 0.5
        np.testing.assert_allclose(g.amps, want, atol=1e-15)

    def test_class4_equal_params_kill_odd_slots(self):
        g = generator(4, (0.8, 0.8))
        assert abs(g.amps[0b0110]) < 1e-15
        assert abs(g.amps[0b1001]) < 1e-15
        assert abs(g.amps[0b0101] - g.amps[0b0000]) < 1e-15

    def test_class5_structure(self):
        g = generator(5, (0.5,))
        # norm before scaling is 2, so the fixed entries land at 1/2
        assert abs(g.amps[0b0001] - 0.5j) < 1e-15
        assert abs(g.amps[0b0110] - 0.5) < 1e-15
        assert abs(g.amps[0b1011] + 0.5j) < 1e-15
        assert abs(g.amps[0b0000] - 0.25) < 1e-15

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedClass):
            generator(1)

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            generator(4, (0.5,))

    def test_negative_real_part(self):
        with pytest.raises(ValueError):
            generator(5, (-0.5,))

    def test_slocc_class_bundle(self):
        sc = slocc_class(5, (0.8,))
        assert sc.traceable == TRACEABLE[5]
        assert sc.params == (0.8 + 0j,)

    def test_expected_one_root_table(self):
        assert expected_one_root(4, 1) and expected_one_root(4, 4)
        assert expected_one_root(5, 2) and not expected_one_root(5, 1)
        assert not expected_one_root(7, 1) and expected_one_root(7, 3)
        assert not expected_one_root(8, 1) and expected_one_root(8, 2)
        assert not expected_one_root(3, 1)


class TestSloccSampling:

    def test_factors_unit_det_and_conditioned(self):
        op = random_slocc(seed=40)
        assert op.m == 4
        for f in op.factors:
            assert abs(np.linalg.det(f) - 1.0) < 1e-10
            assert np.linalg.cond(f) <= TOL.cond_cap

    def test_accepts_generator(self):
        rng = np.random.default_rng(41)
        a = random_slocc(rng)
        b = random_slocc(np.random.default_rng(41))
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_allclose(fa, fb)

    def test_identity(self):
        op = identity_slocc()
        np.testing.assert_allclose(op.matrix(), np.eye(16))

    def test_marginal_matches_direct_reduction(self):
        op = random_slocc(seed=42)
        state = slocc_marginal(5, (0.8,), op, 2)
        assert state.m == 3
        vec = apply_slocc(op, generator(5, (0.8,)))
        vec = vec / np.linalg.norm(vec)
        want = partial_trace(density_matrix(np.outer(vec, vec.conj())), 2)
        np.testing.assert_allclose(state.density().mat, want.mat, atol=1e-12)


class TestScan:

    def test_identity_table(self):
        rows = scan_classes(draws=3, base_seed=1)
        assert len(rows) == 4 * 4 * 3
        ok, complaints = scan_table_verdict(rows)
        assert ok, complaints
        for row in rows:
            assert row.one_root == expected_one_root(row.mu, row.k)
            if row.mu == 7 and row.k == 1:
                assert row.n_root_clusters == -1
            if (row.mu, row.k) in ((5, 1), (8, 1)):
                assert row.n_root_clusters >= 2
            if row.one_root:
                assert row.n_root_clusters == 1
                assert row.closed_form_value is not None
                assert row.closed_form_value > 0
            else:
                assert row.closed_form_value is None

    def test_deterministic(self):
        a = scan_classes(mus=(4, 7), draws=2, base_seed=5)
        b = scan_classes(mus=(4, 7), draws=2, base_seed=5)
        assert a == b

    def test_row_seed_formula(self):
        rows = scan_classes(mus=(5,), draws=2, base_seed=3)
        seeds = [r.seed for r in rows]
        want = [3 * 10000 + 5 * 1000 + k * 100 + d
                for k in (1, 2, 3, 4) for d in (0, 1)]
        assert seeds == want

    def test_draws_bounds(self):
        with pytest.raises(ValueError):
            scan_classes(draws=0)
        with pytest.raises(ValueError):
            scan_classes(draws=101)

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedClass):
            scan_classes(mus=(6,), draws=1)

    def test_slocc_conjugation_preserves_table(self):
        rows = scan_classes(mus=(7, 8), draws=2, base_seed=9, with_slocc=True)
        ok, complaints = scan_table_verdict(rows)
        assert ok, complaints
        for row in rows:
            if row.mu == 7 and row.k == 1:
                assert row.n_root_clusters == -1

    def test_oracle_column(self):
        cfg = OptimizerConfig(restarts=8)
        rows = scan_classes(mus=(5,), draws=1, base_seed=2,
                            with_oracle=True, config=cfg)
        for row in rows:
            assert row.oracle_value is not None
            if row.one_root:
                assert row.abs_diff is not None and row.abs_diff < 1e-6
            else:
                assert row.abs_diff is None

    def test_verdict_flags_forged_row(self):
        rows = scan_classes(mus=(7,), draws=1, base_seed=4)
        forged = [dataclasses.replace(rows[-1], one_root=not rows[-1].one_root)]
        ok, complaints = scan_table_verdict(forged)
        assert not ok
        assert "mu=7" in complaints[0]
