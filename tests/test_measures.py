"""Measure anchors, homogeneity, and SLOCC structure.

The tangle coefficient convention is pinned by hand-expanded anchors before
anything downstream relies on it: for GHZ only d1 = 1/4 survives, for W and
for products every monomial carries a vanishing factor.
"""

import numpy as np
import pytest

from oneroot.errors import DimensionMismatch, WrongQubitCount, ZeroVector
from oneroot.measures import (
    CONCURRENCE,
    SQRT_THREE_TANGLE,
    apply_slocc,
    concurrence,
    get_measure,
    slocc_operator,
    sqrt_three_tangle,
    three_tangle,
)
from oneroot.qstate import ket, pure_state

BELL = pure_state([1, 0, 0, 1] / np.sqrt(2))
GHZ = pure_state([1, 0, 0, 0, 0, 0, 0, 1] / np.sqrt(2))
W = pure_state(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))


def random_state(m, rng):
    v = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    return pure_state(v / np.linalg.norm(v))


def random_sl2(rng):
    while True:
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        d = np.linalg.det(z)
        if abs(d) > 1e-3:
            return z / np.sqrt(d)


class TestConcurrence:
    def test_bell_is_one(self):
        assert abs(concurrence(BELL) - 1.0) < 1e-15

    def test_product_is_zero(self):
        assert concurrence(ket("01")) == 0.0
        # generic product state
        a = np.kron([0.6, 0.8], [0.8j, 0.6])
        assert concurrence(pure_state(a)) < 1e-15

    def test_partially_entangled(self):
        # cos(x)|00> + sin(x)|11> has C = sin(2x)
        x = 0.37
        psi = pure_state([np.cos(x), 0, 0, np.sin(x)])
        assert abs(concurrence(psi) - np.sin(2 * x)) < 1e-15

    def test_range_on_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c = concurrence(random_state(2, rng))
            assert -1e-12 <= c <= 1.0 + 1e-12

    def test_wrong_qubit_count(self):
        with pytest.raises(WrongQubitCount):
            concurrence(GHZ)


class TestThreeTangle:
    def test_ghz_is_one(self):
        assert abs(three_tangle(GHZ) - 1.0) < 1e-15

    def test_w_is_zero(self):
        assert three_tangle(W) < 1e-15

    def test_product_is_zero(self):
        assert three_tangle(ket("000")) == 0.0
        # biseparable |0> x Bell also has zero tangle
        a = np.kron([1, 0], BELL.amps)
        assert three_tangle(pure_state(a)) < 1e-15

    def test_generalized_ghz(self):
        # cos(x)|000> + sin(x)|111>: tau = sin^2(2x), hand expansion 4|d1|
        for x in (0.2, 0.7, 1.3):
            psi = pure_state(np.array([np.cos(x), 0, 0, 0, 0, 0, 0, np.sin(x)]))
            assert abs(three_tangle(psi) - np.sin(2 * x) ** 2) < 1e-14

    def test_sqrt_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = random_state(3, rng)
            assert abs(sqrt_three_tangle(psi) ** 2 - three_tangle(psi)) < 1e-12

    def test_range_on_random_states(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = three_tangle(random_state(3, rng))
            assert -1e-12 <= t <= 1.0 + 1e-12


class TestHomogeneity:
    def test_unnormalized_anchor(self):
        # 3x a Bell vector: h = 2 gives a factor 9
        assert abs(CONCURRENCE.unnormalized(3.0 * BELL.amps) - 9.0) < 1e-14

    def test_degree_two_both_measures(self):
        rng = np.random.default_rng(2)
        for meas, m in ((CONCURRENCE, 2), (SQRT_THREE_TANGLE, 3)):
            for _ in range(100):
                v = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
                k = np.exp(rng.uniform(-1.5, 1.5))
                e1 = meas.unnormalized(v)
                e2 = meas.unnormalized(k * v)
                assert abs(e2 - k ** 2 * e1) <= 1e-12 * max(1.0, e2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            CONCURRENCE.unnormalized(np.zeros(4))


class TestSlocc:
    def test_determinant_validation(self):
        with pytest.raises(DimensionMismatch):
            slocc_operator([2.0 * np.eye(2), np.eye(2)])

    def test_kappa_validation(self):
        with pytest.raises(DimensionMismatch):
            slocc_operator([np.eye(2), np.eye(2)], kappa=-1.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(DimensionMismatch):
            slocc_operator([np.eye(2), np.eye(2)], kappa=kappa)

    def test_rejects_non_finite_factor(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(DimensionMismatch):
            slocc_operator([np.eye(2), bad])

    def test_invariance_of_underlying_polynomial(self):
        # P(L psi) = P(psi) exactly for det-1 factors; any index slip in the
        # hyperdeterminant monomials would break this
        rng = np.random.default_rng(3)
        for meas, m in ((CONCURRENCE, 2), (SQRT_THREE_TANGLE, 3)):
            for _ in range(50):
                psi = random_state(m, rng)
                op = slocc_operator([random_sl2(rng) for _ in range(m)])
                p0 = meas.poly(psi.amps)
                p1 = meas.poly(apply_slocc(op, psi))
                assert abs(p1 - p0) < 1e-10 * max(1.0, abs(p0))

    def test_zero_set_preserved_with_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            op = slocc_operator([random_sl2(rng), random_sl2(rng)], kappa=rng.uniform(0.5, 2))
            v = apply_slocc(op, ket("01"))
            assert CONCURRENCE.unnormalized(v) < 1e-12

    def test_local_unitary_invariance(self):
        # det-1 unitaries are SLOCC with kappa = 1 and preserve E exactly
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
            u = q / np.sqrt(np.linalg.det(q))
            psi = random_state(3, rng)
            op = slocc_operator([u, np.eye(2), np.eye(2)])
            w = apply_slocc(op, psi)
            assert abs(SQRT_THREE_TANGLE.unnormalized(w)
                       - sqrt_three_tangle(psi)) < 1e-12

    def test_registry(self):
        assert get_measure("concurrence") is CONCURRENCE
        assert get_measure("sqrt_three_tangle") is SQRT_THREE_TANGLE
        with pytest.raises(WrongQubitCount):
            get_measure("negativity")
