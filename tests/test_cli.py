"""End-to-end CLI tests through click's test runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import oneroot
from oneroot.cli import main
from oneroot.families import (
    TwoQubitFamily,
    three_qubit_family,
    three_qubit_state,
    two_qubit_concurrence,
    two_qubit_state,
)
from oneroot.measures import get_measure
from oneroot.qstate import bloch_vector, density_matrix, ket, make_rank_two, pure_state
from oneroot.stateio import load_state, save_state
from oneroot.zeropolytope import certify


def run_fresh(*args):
    """Run python in a new interpreter that imports oneroot from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oneroot.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def one_root_file(tmp_path):
    fam = TwoQubitFamily(1.1, 0.4, bloch_vector(0.5, 0.9, 0.2))
    path = tmp_path / "one_root.json"
    save_state(two_qubit_state(fam), str(path))
    return str(path), two_qubit_concurrence(fam)


@pytest.fixture
def three_qubit_file(tmp_path):
    fam = three_qubit_family(0.6, 0.48, 0.64, 1.0, 0.2, 0.3, bloch_vector(0.5, 1.2, 0.7))
    path = tmp_path / "three_qubit.json"
    save_state(three_qubit_state(fam), str(path))
    return str(path)


@pytest.fixture
def nan_pure_file(tmp_path):
    path = tmp_path / "nan_pure.json"
    path.write_text('{"m": 2, "amps": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
    return str(path)


@pytest.fixture
def nan_matrix_file(tmp_path):
    mat = [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
           [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
    text = json.dumps({"m": 2, "mat": mat})
    # one off-diagonal entry NaN, the rest a valid rank-2 density matrix
    path = tmp_path / "nan_mat.json"
    path.write_text(text.replace("[0.0, 0.0]", "[NaN, 0.0]", 1))
    return str(path)


@pytest.fixture
def bell_diagonal_file(tmp_path):
    plus = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    minus = pure_state(np.array([1, 0, 0, -1]) / np.sqrt(2))
    path = tmp_path / "bell_diag.json"
    save_state(make_rank_two(plus, minus, bloch_vector(0.6, 0.0, 0.0)), str(path))
    return str(path)


@pytest.fixture
def pure_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2)), str(path))
    return str(path)


@pytest.fixture
def product_span_file(tmp_path):
    path = tmp_path / "product.json"
    save_state(make_rank_two(ket("00"), ket("01"), bloch_vector(0.3, 1.0, 0.0)),
               str(path))
    return str(path)


class TestMeasure:

    def test_pure_bell(self, runner, pure_file):
        res = runner.invoke(main, ["measure", pure_file, "-M", "concurrence"])
        assert res.exit_code == 0
        assert res.output.strip() == "1.000000000000"

    def test_mixed_concurrence(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["measure", bell_diagonal_file,
                                   "-M", "concurrence"])
        assert res.exit_code == 0
        assert res.output.strip() == "0.600000000000"

    def test_mixed_tangle_rejected(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["measure", bell_diagonal_file,
                                   "-M", "sqrt_three_tangle"])
        assert res.exit_code == 3

    def test_wrong_qubit_count(self, runner, pure_file):
        res = runner.invoke(main, ["measure", pure_file,
                                   "-M", "sqrt_three_tangle"])
        assert res.exit_code == 3

    def test_nan_amplitude_rejected(self, runner, nan_pure_file):
        res = runner.invoke(main, ["measure", nan_pure_file, "-M", "concurrence"])
        assert res.exit_code == 3
        assert "finite" in res.stderr

    def test_missing_file(self, runner, tmp_path):
        res = runner.invoke(main, ["measure", str(tmp_path / "absent.json"),
                                   "-M", "concurrence"])
        assert res.exit_code == 2

    def test_garbage_file(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        res = runner.invoke(main, ["measure", str(path), "-M", "concurrence"])
        assert res.exit_code == 2


class TestCertify:

    def test_one_root_certificate(self, runner, one_root_file):
        path, value = one_root_file
        res = runner.invoke(main, ["certify", path, "-M", "concurrence"])
        assert res.exit_code == 0
        cert = json.loads(res.stdout)
        assert cert["one_root"] is True
        assert cert["n_root_clusters"] == 1
        assert cert["measure"] == "concurrence"
        assert "z" in cert and "N" in cert and "E_antipode" in cert

    def test_nan_matrix_entry_rejected(self, runner, nan_matrix_file):
        res = runner.invoke(main, ["certify", nan_matrix_file, "-M", "concurrence"])
        assert res.exit_code == 3
        assert "finite" in res.stderr

    def test_not_one_root_exits_one(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["certify", bell_diagonal_file,
                                   "-M", "concurrence"])
        assert res.exit_code == 1
        cert = json.loads(res.stdout)
        assert cert["one_root"] is False
        assert cert["n_root_clusters"] == 2

    def test_vanishing_span_exits_four(self, runner, product_span_file):
        res = runner.invoke(main, ["certify", product_span_file,
                                   "-M", "concurrence"])
        assert res.exit_code == 4
        assert "vanishes" in res.stderr

    def test_pure_input_rejected(self, runner, pure_file):
        res = runner.invoke(main, ["certify", pure_file, "-M", "concurrence"])
        assert res.exit_code == 3

    def test_density_matrix_input_matches_span(self, runner, one_root_file, tmp_path):
        # the same state saved as a matrix comes back eigen-decomposed, in
        # another gauge; the verdict and the closed form must not move
        path, value = one_root_file
        mat_path = str(tmp_path / "one_root_mat.json")
        save_state(load_state(path).density(), mat_path)
        certs, roofs = [], []
        for p in (path, mat_path):
            res = runner.invoke(main, ["certify", p, "-M", "concurrence"])
            assert res.exit_code == 0
            certs.append(json.loads(res.stdout))
            res = runner.invoke(main, ["roof", p, "-M", "concurrence"])
            assert res.exit_code == 0
            roofs.append(json.loads(res.stdout)["value"])
        assert certs[0]["one_root"] is certs[1]["one_root"] is True
        assert certs[0]["n_root_clusters"] == certs[1]["n_root_clusters"] == 1
        assert abs(roofs[0] - value) < 1e-10 and abs(roofs[1] - roofs[0]) < 1e-12

    def test_rank_three_matrix_rejected(self, runner, tmp_path):
        path = str(tmp_path / "rank3.json")
        save_state(density_matrix(np.diag([0.5, 0.3, 0.2, 0.0])), path)
        for cmd in ("certify", "roof"):
            res = runner.invoke(main, [cmd, path, "-M", "concurrence"])
            assert res.exit_code == 3
            assert "eigenvalue" in res.stderr


class TestRoof:

    def test_closed_matches_family(self, runner, one_root_file):
        path, value = one_root_file
        res = runner.invoke(main, ["roof", path, "-M", "concurrence"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["method"] == "closed"
        assert abs(report["value"] - value) < 1e-10

    def test_both_methods_agree(self, runner, one_root_file):
        path, value = one_root_file
        res = runner.invoke(main, ["roof", path, "-M", "concurrence",
                                   "--method", "both", "--restarts", "16"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["difference"] < 1e-7
        assert abs(report["value"] - value) < 1e-10

    def test_closed_refuses_non_one_root(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["roof", bell_diagonal_file,
                                   "-M", "concurrence"])
        assert res.exit_code == 1
        cert = json.loads(res.stdout)
        assert cert["one_root"] is False
        assert "--method oracle" in res.stderr

    def test_oracle_on_non_one_root(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["roof", bell_diagonal_file,
                                   "-M", "concurrence", "--method", "oracle",
                                   "--restarts", "16"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        # Bell-diagonal mix of |phi+>, |phi-> at r = 0.6 has roof 0.6
        assert abs(report["value"] - 0.6) < 1e-6

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_oracle_needs_a_restart(self, runner, bell_diagonal_file, restarts):
        res = runner.invoke(main, ["roof", bell_diagonal_file, "-M", "concurrence",
                                   "--method", "oracle", "--restarts", restarts])
        assert res.exit_code == 2
        assert "--restarts" in res.stderr

    def test_nan_amplitude_rejected(self, runner, nan_pure_file):
        res = runner.invoke(main, ["roof", nan_pure_file, "-M", "concurrence"])
        assert res.exit_code == 3
        assert "finite" in res.stderr

    def test_oracle_in_fresh_process(self, one_root_file):
        # the oracle imports scipy on first use; this runs that path cold
        path, value = one_root_file
        res = run_fresh("-m", "oneroot.cli", "roof", path, "-M", "concurrence",
                        "--method", "oracle", "--restarts", "2")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["method"] == "oracle"
        # an explicit ensemble can only sit on or above the roof
        assert value - 1e-9 <= report["value"] <= 1.0

    def test_pure_state_is_its_own_roof(self, runner, pure_file):
        res = runner.invoke(main, ["roof", pure_file, "-M", "concurrence",
                                   "--method", "both"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["difference"] == 0.0
        assert abs(report["value"] - 1.0) < 1e-12


class TestScan:

    def test_default_table_small(self, runner):
        res = runner.invoke(main, ["scan", "--draws", "2", "--seed", "1"])
        assert res.exit_code == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == ("mu,k,seed,n_root_clusters,one_root,"
                           "closed_form_value,oracle_value,abs_diff")
        assert len(lines) == 1 + 4 * 4 * 2
        assert "traceability table reproduced" in res.stderr

    def test_deterministic_csv(self, runner, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            res = runner.invoke(main, ["scan", "--classes", "5,7",
                                       "--draws", "2", "--out", out])
            assert res.exit_code == 0
        with open(out1) as f1, open(out2) as f2:
            assert f1.read() == f2.read()

    def test_vanishing_cell_sentinel(self, runner):
        res = runner.invoke(main, ["scan", "--classes", "7", "--draws", "1"])
        assert res.exit_code == 0
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:]]
        k1 = [r for r in rows if r[1] == "1"]
        assert len(k1) == 1
        assert k1[0][3] == "-1" and k1[0][4] == "false" and k1[0][5] == ""

    def test_row_error_keeps_the_scan(self, runner):
        # one SLOCC marginal at this seed raises InterpolationUnsound in
        # certify; the scan keeps it as a row without a verdict
        res = runner.invoke(main, ["scan", "--with-slocc", "--draws", "20",
                                   "--seed", "82"])
        assert res.exit_code == 1
        rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:]]
        assert len(rows) == 4 * 4 * 20
        bad = [r for r in rows if r[2] == "827402"]
        assert bad == [["7", "4", "827402", "-1", "false", "", "", ""]]
        assert "seed=827402" in res.stderr

    def test_unknown_class_exits_five(self, runner):
        res = runner.invoke(main, ["scan", "--classes", "6", "--draws", "1"])
        assert res.exit_code == 5
        assert "class 6" in res.stderr

    def test_bad_classes_string(self, runner):
        res = runner.invoke(main, ["scan", "--classes", "4,x"])
        assert res.exit_code == 2

    def test_bad_draws(self, runner):
        res = runner.invoke(main, ["scan", "--draws", "0"])
        assert res.exit_code == 2

    def test_oracle_needs_a_restart(self, runner):
        res = runner.invoke(main, ["scan", "--classes", "5", "--draws", "1",
                                   "--with-oracle", "--restarts", "0"])
        assert res.exit_code == 2
        assert "--restarts" in res.stderr


class TestBlochGrid:

    def test_root_aligned_rings_constant(self, runner, one_root_file):
        path, value = one_root_file
        res = runner.invoke(main, ["bloch-grid", path, "-M", "concurrence",
                                   "--ntheta", "7", "--nphi", "12"])
        assert res.exit_code == 0
        lines = res.stdout.strip().split("\n")
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("root-aligned" in c for c in comments)
        assert any("closed_form" in c for c in comments)
        data = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
        assert data[0] == ["theta", "phi", "value"]
        rows = np.array([[float(x) for x in r] for r in data[1:]])
        assert rows.shape == (7 * 12, 3)
        for theta in np.unique(rows[:, 0]):
            ring = rows[rows[:, 0] == theta, 2]
            assert np.ptp(ring) < 1e-9
        # value grows monotonically from the root pole to its antipode
        ring_means = [rows[rows[:, 0] == t, 2].mean()
                      for t in np.unique(rows[:, 0])]
        assert all(x < y + 1e-12 for x, y in zip(ring_means, ring_means[1:]))

    @pytest.mark.parametrize("fixture, measure_name", [
        ("one_root_file", "concurrence"),
        ("three_qubit_file", "sqrt_three_tangle"),
        ("bell_diagonal_file", "concurrence"),
    ])
    def test_values_match_surface_states(self, runner, request, fixture,
                                         measure_name):
        path = request.getfixturevalue(fixture)
        path = path[0] if isinstance(path, tuple) else path
        res = runner.invoke(main, ["bloch-grid", path, "-M", measure_name,
                                   "--ntheta", "7", "--nphi", "5"])
        assert res.exit_code == 0
        measure = get_measure(measure_name)
        cert = certify(load_state(path), measure)
        if cert.one_root:
            chi0, chi1 = cert.root_state.amps, cert.antipode_state.amps
        else:
            chi0, chi1 = cert.state.phi0.amps, cert.state.phi1.amps
        lines = res.stdout.strip().split("\n")
        rows = [[float(x) for x in ln.split(",")] for ln in
                lines[lines.index("theta,phi,value") + 1:]]
        thetas = np.linspace(0.0, np.pi, 7)
        phis = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        want = [(t, p) for t in thetas for p in phis]  # theta-major
        assert len(rows) == len(want)
        for (t, p, v), (t0, p0) in zip(rows, want):
            assert abs(t - t0) < 1e-12 and abs(p - p0) < 1e-12
            amps = np.cos(t0 / 2) * chi0 + np.sin(t0 / 2) * np.exp(1j * p0) * chi1
            surface = pure_state(amps / np.linalg.norm(amps))
            assert abs(v - measure.value(surface)) < 1e-12

    def test_eigenbasis_frame_on_non_one_root(self, runner, bell_diagonal_file):
        res = runner.invoke(main, ["bloch-grid", bell_diagonal_file,
                                   "-M", "concurrence",
                                   "--ntheta", "5", "--nphi", "4"])
        assert res.exit_code == 0
        assert "eigenbasis" in res.stdout
        assert "2 root clusters" in res.stdout

    def test_vanishing_span_exits_four(self, runner, product_span_file):
        res = runner.invoke(main, ["bloch-grid", product_span_file,
                                   "-M", "concurrence"])
        assert res.exit_code == 4
        assert "vanishes" in res.stderr

    def test_grid_bounds_checked(self, runner, one_root_file):
        path, _ = one_root_file
        res = runner.invoke(main, ["bloch-grid", path, "-M", "concurrence",
                                   "--ntheta", "1"])
        assert res.exit_code == 2

    def test_out_file(self, runner, one_root_file, tmp_path):
        path, _ = one_root_file
        out = str(tmp_path / "grid.csv")
        res = runner.invoke(main, ["bloch-grid", path, "-M", "concurrence",
                                   "--ntheta", "3", "--nphi", "4",
                                   "--out", out])
        assert res.exit_code == 0
        with open(out) as fh:
            assert fh.readline().startswith("# measure: concurrence")


def test_cli_import_leaves_scipy_unloaded():
    # a fresh interpreter, because this test process may have loaded scipy;
    # numpy.random stays unloaded too, as certify draws its probes on first use
    res = run_fresh("-c", "import sys, oneroot.cli; print([m in sys.modules "
                          "for m in ('scipy.optimize', 'numpy.random')])")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[False, False]"
