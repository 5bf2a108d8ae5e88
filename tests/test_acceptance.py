"""Acceptance suite: nine numbered criteria gating the toolkit's claims.

Each criterion is one test; it prints a single line with the measured
figures it gates on, so a verbose run reads as a scorecard. Tolerances are
stated inline next to the assertions. The slow entry is criterion 3 (the
brute-force oracle at full restart count); everything else is seconds.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from oneroot.cli import main as cli_main
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
from oneroot.errors import EntireRangeVanishes
from oneroot.families import (
    expected_one_root,
    random_slocc,
    random_three_qubit_family,
    random_two_qubit_family,
    scan_classes,
    scan_table_verdict,
    slocc_marginal,
    three_qubit_state,
    two_qubit_concurrence,
    two_qubit_state,
)
from oneroot.measures import (
    CONCURRENCE,
    SQRT_THREE_TANGLE,
    apply_slocc,
    slocc_operator,
)
from oneroot.qstate import bloch_vector, make_rank_two, pure_state
from oneroot.stateio import save_state
from oneroot.tolerances import TOL
from oneroot.zeropolytope import certify, root_direction


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ---- shared samplers ----

_POSITIVE_CELLS = (
    (4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 4),
    (7, 2), (7, 3), (7, 4), (8, 2), (8, 3), (8, 4),
)


def _generic_params(mu: int, rng: np.random.Generator):
    if mu == 4:
        while True:
            a = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            b = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            if min(abs(a), abs(b), abs(a - b), abs(a + b)) > 0.1:
                return (a, b)
    if mu == 5:
        while True:
            a = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            if abs(a) > 0.1:
                return (a,)
    return ()


def _random_marginal(rng: np.random.Generator):
    """One-root three-qubit marginal of a random four-qubit class member."""
    mu, k = _POSITIVE_CELLS[rng.integers(len(_POSITIVE_CELLS))]
    return slocc_marginal(mu, _generic_params(mu, rng), random_slocc(rng), k)


def _one_root_states(n2: int, n3: int, n4: int, rng: np.random.Generator):
    """Certified one-root states mixed across the three sources."""
    out = []
    for _ in range(n2):
        state = two_qubit_state(random_two_qubit_family(rng))
        out.append((state, CONCURRENCE))
    for _ in range(n3):
        state = three_qubit_state(random_three_qubit_family(rng))
        out.append((state, SQRT_THREE_TANGLE))
    for _ in range(n4):
        out.append((_random_marginal(rng), SQRT_THREE_TANGLE))
    certified = []
    for state, measure in out:
        cert = certify(state, measure)
        assert cert.one_root, "sampler produced a non-one-root state"
        certified.append((state, measure, cert))
    return certified


def _non_one_root_two_qubit(n: int, rng: np.random.Generator):
    """Generic rank-2 two-qubit states whose span has two root clusters."""
    out = []
    while len(out) < n:
        basis, _ = np.linalg.qr(rng.standard_normal((4, 2))
                                + 1j * rng.standard_normal((4, 2)))
        state = make_rank_two(
            pure_state(basis[:, 0]), pure_state(basis[:, 1]),
            bloch_vector(rng.uniform(0.2, 0.95), rng.uniform(0.0, np.pi),
                         rng.uniform(0.0, 2.0 * np.pi)))
        try:
            cert = certify(state, CONCURRENCE)
        except EntireRangeVanishes:
            continue
        if not cert.one_root:
            out.append(state)
    return out


def _local_det1_op(m: int, rng: np.random.Generator, kappa: float):
    factors = []
    while len(factors) < m:
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(z)
        if abs(det) < 1e-6:
            continue
        f = z / np.sqrt(det)
        if np.linalg.cond(f) <= TOL.cond_cap:
            factors.append(f)
    return slocc_operator(factors, kappa)


# ---- criteria ----


def test_criterion1_two_qubit_closed_form():
    """Closed form against the analytic family value and Wootters, 1e4 draws."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_formula = worst_wootters = 0.0
    for _ in range(10_000):
        fam = random_two_qubit_family(rng)
        state = two_qubit_state(fam)
        value = closed_form(state, certify(state, CONCURRENCE)).value
        worst_formula = max(worst_formula,
                            abs(value - two_qubit_concurrence(fam)))
        worst_wootters = max(worst_wootters,
                             abs(value - wootters_mixed_concurrence(
                                 state.density())))
    elapsed = time.perf_counter() - t0
    ok = worst_formula < 1e-10 and worst_wootters < 1e-9 and elapsed < 30.0
    line = _report(1, ok, f"max |closed-formula| {worst_formula:.2e} (<1e-10), "
                          f"max |closed-wootters| {worst_wootters:.2e} (<1e-9), "
                          f"{elapsed:.1f}s (<30s)")
    assert ok, line


def test_criterion2_decomposition_independence():
    """Ensemble averages are decomposition-independent on one-root states."""
    rng = np.random.default_rng(202)
    states = _one_root_states(34, 33, 33, rng)
    worst_spread = worst_dev = 0.0
    for state, measure, cert in states:
        closed = closed_form(state, cert).value
        averages = []
        for j in range(50):
            dec = random_decomposition(state, 2 + j % 5, rng)
            averages.append(average_over_decomposition(dec, measure))
        averages = np.asarray(averages)
        worst_spread = max(worst_spread, float(np.ptp(averages)))
        worst_dev = max(worst_dev, float(np.abs(averages - closed).max()))
    ok = worst_spread < 1e-8 and worst_dev < 1e-8
    line = _report(2, ok, f"100 states x 50 ensembles (nu 2..6): "
                          f"max spread {worst_spread:.2e} (<1e-8), "
                          f"max |avg-closed| {worst_dev:.2e} (<1e-8)")
    assert ok, line


@pytest.mark.slow
def test_criterion3_oracle_agreement():
    """Brute-force roof matches the closed form and Wootters independently."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    one_root = _one_root_states(20, 15, 15, rng)
    worst_closed = 0.0
    for i, (state, measure, cert) in enumerate(one_root):
        cfg = OptimizerConfig(seed=1000 + i)
        got = oracle_minimize(state, measure, cfg).value
        worst_closed = max(worst_closed,
                           abs(got - closed_form(state, cert).value))
    worst_wootters = 0.0
    for i, state in enumerate(_non_one_root_two_qubit(50, rng)):
        cfg = OptimizerConfig(seed=2000 + i)
        got = oracle_minimize(state, CONCURRENCE, cfg).value
        want = wootters_mixed_concurrence(state.density())
        worst_wootters = max(worst_wootters, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-6 and worst_wootters < 1e-5 and elapsed < 600.0
    line = _report(3, ok, f"64 restarts: max |oracle-closed| {worst_closed:.2e} "
                          f"(<1e-6) on 50 one-root, max |oracle-wootters| "
                          f"{worst_wootters:.2e} (<1e-5) on 50 generic, "
                          f"{elapsed:.0f}s (<600s)")
    assert ok, line


def test_criterion4_gradient_vanishes_on_manifold():
    """The roof objective is flat everywhere over one-root states."""
    rng = np.random.default_rng(404)
    states = _one_root_states(8, 6, 6, rng)
    worst = 0.0
    for state, measure, _ in states:
        for j in range(20):
            nu = 2 + j % 3
            f, dim = decomposition_objective(state, measure, nu)
            x = rng.standard_normal(dim)
            worst = max(worst, fd_gradient_norm(f, x, step=1e-6))
    ok = worst < 1e-5
    line = _report(4, ok, f"20 states x 20 manifold points: "
                          f"max fd-gradient norm {worst:.2e} (<1e-5)")
    assert ok, line


def test_criterion5_class_table_and_slocc_invariance():
    """Marginal traceability table at 20 draws/cell; cluster counts are
    local-operation invariants (100 random conjugations per cell)."""
    rows = scan_classes(draws=20, base_seed=7)
    ok_table, complaints = scan_table_verdict(rows)
    assert len(rows) == 16 * 20
    for row in rows:
        ok_table = ok_table and (row.one_root == expected_one_root(row.mu, row.k))

    def clusters(mu, params, op, k):
        try:
            return certify(slocc_marginal(mu, params, op, k),
                           SQRT_THREE_TANGLE).n_clusters
        except EntireRangeVanishes:
            return -1

    rng = np.random.default_rng(505)
    from oneroot.families import identity_slocc
    violations = 0
    for mu in (4, 5, 7, 8):
        for k in (1, 2, 3, 4):
            params = _generic_params(mu, rng)
            base = clusters(mu, params, identity_slocc(), k)
            for _ in range(100):
                if clusters(mu, params, random_slocc(rng), k) != base:
                    violations += 1
    ok = ok_table and violations == 0
    line = _report(5, ok, f"320-row table reproduced: {ok_table} "
                          f"({len(complaints)} complaints); cluster-count "
                          f"violations under 1600 conjugations: {violations}")
    assert ok, line


def test_criterion6_sphere_barycenter_identity():
    """Equidistant-decomposition identity on random sphere configurations."""
    rng = np.random.default_rng(606)
    worst = {2: 0.0, 4: 0.0}
    for n in (2, 4):
        for _ in range(1000):
            geom, z = sample_sphere_identity_instance(n, rng)
            worst[n] = max(worst[n], verify_sphere_identity(geom, z).max_residual)
    ok = worst[2] < 1e-10 and worst[4] < 1e-10
    line = _report(6, ok, f"1000 constructions each: max residual "
                          f"n=2 {worst[2]:.2e}, n=4 {worst[4]:.2e} (<1e-10)")
    assert ok, line


def test_criterion7_distance_law():
    """Entanglement over a one-root span is a squared distance from the root.

    Checked in both gauges: on normalized states against N * chord^2 with
    N = E(antipode)/4, and on raw superpositions phi0 + omega phi1 against
    the induced flat constant 4N/(1+|z|^2) times |omega - z|^2.
    """
    rng = np.random.default_rng(707)
    states = _one_root_states(10, 10, 10, rng)
    worst_chord = worst_flat = worst_nconst = 0.0
    for state, measure, cert in states:
        v0, v1 = cert.state.phi0.amps, cert.state.phi1.amps
        z = cert.z
        antipode = (np.conj(z) * v0 - v1) / np.sqrt(1.0 + abs(z) ** 2)
        n_const = measure.mag(measure.poly(antipode)) / 4.0
        worst_nconst = max(worst_nconst, abs(n_const - cert.N))
        zdir = root_direction(z)
        got = 0
        while got < 32:
            omega = z + rng.uniform(0.05, 3.0) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi))
            wdir = root_direction(complex(omega))
            chord2 = float(((wdir - zdir) ** 2).sum())
            if chord2 < 2.5e-3:
                continue
            got += 1
            raw = v0 + omega * v1
            e_surf = measure.mag(measure.poly(raw / np.linalg.norm(raw)))
            worst_chord = max(worst_chord,
                              abs(e_surf / (n_const * chord2) - 1.0))
            e_raw = measure.mag(measure.poly(raw))
            flat = 4.0 * n_const / (1.0 + abs(z) ** 2) * abs(omega - z) ** 2
            worst_flat = max(worst_flat, abs(e_raw / flat - 1.0))
    ok = worst_chord < 1e-7 and worst_flat < 1e-7
    line = _report(7, ok, f"30 states x 32 probes: max rel dev chord-law "
                          f"{worst_chord:.2e}, flat-law {worst_flat:.2e} "
                          f"(<1e-7); N recomputed from antipode to "
                          f"{worst_nconst:.1e}")
    assert ok, line


def test_criterion8_homogeneity():
    """E(kappa L psi) = kappa^2 E(psi) for determinant-1 local L."""
    rng = np.random.default_rng(808)
    worst = {}
    for measure in (CONCURRENCE, SQRT_THREE_TANGLE):
        w = 0.0
        done = 0
        while done < 1000:
            amps = (rng.standard_normal(2 ** measure.m)
                    + 1j * rng.standard_normal(2 ** measure.m))
            amps /= np.linalg.norm(amps)
            base = measure.mag(measure.poly(amps))
            if base < 0.02:
                continue
            done += 1
            kappa = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            op = _local_det1_op(measure.m, rng, kappa)
            lhs = measure.mag(measure.poly(apply_slocc(op, amps)))
            w = max(w, abs(lhs / (kappa ** 2 * base) - 1.0))
        worst[measure.name] = w
    ok = all(v < 1e-8 for v in worst.values())
    line = _report(8, ok, "1000 triples per measure: max rel err "
                          + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
                          + " (<1e-8)")
    assert ok, line


def test_criterion9_grid_geometry(tmp_path):
    """Grid output: extremes at the poles, rings of constant value."""
    runner = CliRunner()
    fam2 = two_qubit_state(random_two_qubit_family(np.random.default_rng(909)))
    fam3 = three_qubit_state(
        random_three_qubit_family(np.random.default_rng(919)))
    cases = [(fam2, "concurrence", "g2.json"),
             (fam3, "sqrt_three_tangle", "g3.json")]
    worst_ring = 0.0
    ok = True
    for state, mname, fname in cases:
        path = str(tmp_path / fname)
        save_state(state, path)
        res = runner.invoke(cli_main, ["bloch-grid", path, "-M", mname,
                                       "--ntheta", "25", "--nphi", "25"])
        assert res.exit_code == 0, res.output
        data = [ln.split(",") for ln in res.stdout.strip().split("\n")
                if ln and not ln.startswith("#")][1:]
        rows = np.array([[float(x) for x in r] for r in data])
        thetas = np.unique(rows[:, 0])
        for t in thetas:
            worst_ring = max(worst_ring, float(np.ptp(rows[rows[:, 0] == t, 2])))
        ok = ok and rows[np.argmin(rows[:, 2]), 0] == thetas[0]
        ok = ok and rows[np.argmax(rows[:, 2]), 0] == thetas[-1]
    ok = ok and worst_ring < 1e-9
    line = _report(9, ok, f"min at the root pole and max at the antipode on "
                          f"both grids; max fixed-latitude ring spread "
                          f"{worst_ring:.2e} (<1e-9)")
    assert ok, line
