"""Command-line front end.

Exit codes separate science from plumbing: 0 is success (or a granted
certificate), 1 is a valid negative (not one-root), 2 is a parse problem,
3 a dimension or rank problem, 4 a span on which the measure vanishes
identically, 5 anything else that went wrong downstream. An error the
package raises gets its code in one place, :meth:`_Main.invoke`, by type.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .convexroof import OptimizerConfig, closed_form, oracle_minimize, wootters_mixed_concurrence
from .errors import (
    DimensionMismatch,
    EntireRangeVanishes,
    InvalidBloch,
    NonOrthogonalBasis,
    OneRootError,
    RankTooHigh,
    WrongQubitCount,
    ZeroVector,
)
from .families import scan_classes, scan_table_verdict
from .measures import get_measure
from .qstate import DensityMatrix, PureState, RankTwoState, eigen_decompose_rank2
from .stateio import certificate_to_dict, load_state
from .zeropolytope import certify, root_direction

_PARSE, _SHAPE, _VANISHES, _OTHER = 2, 3, 4, 5

_SHAPE_ERRORS = (DimensionMismatch, WrongQubitCount, RankTooHigh,
                 NonOrthogonalBasis, InvalidBloch, ZeroVector)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(path: str):
    try:
        return load_state(path)
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        _fail(_PARSE, f"cannot read state file {path}: {exc}")


def _as_rank_two(state, path: str) -> RankTwoState:
    if isinstance(state, RankTwoState):
        return state
    if isinstance(state, DensityMatrix):
        return eigen_decompose_rank2(state)
    _fail(_SHAPE, f"{path} holds a pure state; this command needs a rank-2 "
                  "or density-matrix input")


def _fmt(v: float) -> str:
    return f"{v:.12f}"


_measure_option = click.option(
    "-M", "--measure", "measure_name", required=True,
    type=click.Choice(["concurrence", "sqrt_three_tangle"]),
    help="Which degree-2 measure to use.")


class _Main(click.Group):
    """Maps the package's errors to exit codes for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except EntireRangeVanishes as exc:
            _fail(_VANISHES, str(exc))
        except _SHAPE_ERRORS as exc:
            _fail(_SHAPE, str(exc))
        except OneRootError as exc:
            _fail(_OTHER, str(exc))


@click.group(cls=_Main)
def main():
    """Entanglement toolkit for rank-2 states of degree-2 measures."""


@main.command(name="measure")
@click.argument("state_file", type=click.Path())
@_measure_option
def cmd_measure(state_file, measure_name):
    """Evaluate the measure on a pure state (or Wootters on a 2-qubit
    density matrix)."""
    measure = get_measure(measure_name)
    state = _load(state_file)
    if isinstance(state, PureState):
        value = measure.value(state)
    else:
        dm = state.density() if isinstance(state, RankTwoState) else state
        if measure_name != "concurrence":
            _fail(_SHAPE, "mixed-state evaluation is only wired up for "
                          "concurrence (two qubits); use `roof` for "
                          "certified rank-2 states")
        value = wootters_mixed_concurrence(dm)
    click.echo(_fmt(value))


@main.command(name="certify")
@click.argument("state_file", type=click.Path())
@_measure_option
def cmd_certify(state_file, measure_name):
    """Decide the one-root property; certificate JSON goes to stdout."""
    measure = get_measure(measure_name)
    cert = certify(_as_rank_two(_load(state_file), state_file), measure)
    click.echo(json.dumps(certificate_to_dict(cert), indent=1, sort_keys=True))
    sys.exit(0 if cert.one_root else 1)


@main.command(name="roof")
@click.argument("state_file", type=click.Path())
@_measure_option
@click.option("--method", default="closed", show_default=True,
              type=click.Choice(["closed", "oracle", "both"]))
@click.option("--restarts", default=64, show_default=True, type=click.IntRange(min=1),
              help="Multistart count for the oracle.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the oracle restarts.")
def cmd_roof(state_file, measure_name, method, restarts, seed):
    """Convex-roof value: exact closed form, brute-force oracle, or both."""
    measure = get_measure(measure_name)
    state = _load(state_file)
    report = {"measure": measure_name, "method": method}

    if isinstance(state, PureState):
        # the roof of a pure state is its own value, whatever the method
        value = measure.value(state)
        report["value"] = value
        if method == "both":
            report.update(closed=value, oracle=value, difference=0.0)
        click.echo(json.dumps(report, indent=1, sort_keys=True))
        return

    rank2 = _as_rank_two(state, state_file)
    if method in ("closed", "both"):
        cert = certify(rank2, measure)
        if not cert.one_root:
            click.echo(json.dumps(certificate_to_dict(cert),
                                  indent=1, sort_keys=True))
            _fail(1, f"state is not one-root ({cert.n_clusters} root "
                     "clusters); the closed form does not apply. "
                     "Use --method oracle.")
        report["closed"] = closed_form(rank2, cert).value
    if method in ("oracle", "both"):
        report["oracle"] = oracle_minimize(
            rank2, measure, OptimizerConfig(restarts=restarts, seed=seed)).value

    if method == "both":
        report["difference"] = abs(report["closed"] - report["oracle"])
        report["value"] = report["closed"]
    else:
        report["value"] = report[method]
    click.echo(json.dumps(report, indent=1, sort_keys=True))


@main.command(name="scan")
@click.option("--classes", default="4,5,7,8", show_default=True,
              help="Comma-separated class indices.")
@click.option("--draws", default=20, show_default=True,
              help="Parameter draws per (class, traced qubit) cell.")
@click.option("--seed", default=0, show_default=True, help="Base seed.")
@click.option("--with-slocc", is_flag=True,
              help="Conjugate each draw by a random determinant-1 local "
                   "operator before tracing.")
@click.option("--with-oracle", is_flag=True,
              help="Also run the brute-force roof per row (slow).")
@click.option("--restarts", default=16, show_default=True, type=click.IntRange(min=1),
              help="Oracle restarts when --with-oracle is set.")
@click.option("--out", type=click.Path(), default=None,
              help="Write CSV here instead of stdout.")
def cmd_scan(classes, draws, seed, with_slocc, with_oracle, restarts, out):
    """Certify class marginals in bulk; CSV out, verdict on stderr."""
    try:
        mus = tuple(int(tok) for tok in classes.split(",") if tok.strip())
    except ValueError:
        _fail(_PARSE, f"cannot parse --classes {classes!r}")
    try:
        rows = scan_classes(mus, draws=draws, base_seed=seed,
                            with_slocc=with_slocc, with_oracle=with_oracle,
                            config=OptimizerConfig(restarts=restarts))
    except ValueError as exc:
        _fail(_PARSE, str(exc))

    lines = ["mu,k,seed,n_root_clusters,one_root,closed_form_value,"
             "oracle_value,abs_diff"]
    for r in rows:
        lines.append(",".join([
            str(r.mu), str(r.k), str(r.seed), str(r.n_root_clusters),
            "true" if r.one_root else "false",
            _fmt(r.closed_form_value) if r.closed_form_value is not None else "",
            _fmt(r.oracle_value) if r.oracle_value is not None else "",
            _fmt(r.abs_diff) if r.abs_diff is not None else "",
        ]))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)

    ok, complaints = scan_table_verdict(rows)
    if ok:
        click.echo(f"scan: {len(rows)} rows, traceability table reproduced",
                   err=True)
    else:
        click.echo(f"scan: {len(complaints)} rows off the expected table:",
                   err=True)
        for c in complaints:
            click.echo(f"  {c}", err=True)
        sys.exit(1)


@main.command(name="bloch-grid")
@click.argument("state_file", type=click.Path())
@_measure_option
@click.option("--ntheta", default=25, show_default=True)
@click.option("--nphi", default=25, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write CSV here instead of stdout.")
def cmd_bloch_grid(state_file, measure_name, ntheta, nphi, out):
    """Surface entanglement grid over the state's span.

    When the state certifies one-root the grid frame is root-aligned (theta
    measured from the root direction), which makes fixed-theta rings lines
    of constant entanglement; otherwise the eigenbasis frame is used.
    """
    if ntheta < 2 or nphi < 1:
        _fail(_PARSE, "need --ntheta >= 2 and --nphi >= 1")
    measure = get_measure(measure_name)
    state = _as_rank_two(_load(state_file), state_file)
    cert = certify(state, measure)

    lines = [f"# measure: {measure_name}"]
    if cert.one_root:
        chi0 = cert.root_state.amps
        chi1 = cert.antipode_state.amps
        rdot = float(cert.state.bloch.cartesian() @ root_direction(cert.z))
        lines += ["# frame: root-aligned",
                  f"# plane_constant_r_dot_zhat: {_fmt(rdot)}",
                  f"# closed_form: {_fmt(closed_form(state, cert).value)}",
                  f"# E_antipode: {_fmt(cert.E_antipode)}"]
    else:
        basis = cert.state.basis_matrix()
        chi0, chi1 = basis[:, 0], basis[:, 1]
        lines.append(f"# frame: eigenbasis (not one-root; "
                     f"{cert.n_clusters} root clusters)")
    lines.append("theta,phi,value")

    thetas = np.linspace(0.0, np.pi, ntheta)
    phis = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
    a, b = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    # every surface state at once: axes (theta, phi, amplitude)
    amps = (a[:, None, None] * chi0
            + (b[:, None] * np.exp(1j * phis))[:, :, None] * chi1)
    values = measure.mag(measure.poly(amps))
    phi_strs = [_fmt(p) for p in phis]
    for t, row in zip(thetas, values):
        t_str = _fmt(t)
        lines.extend(f"{t_str},{p_str},{_fmt(v)}" for p_str, v in zip(phi_strs, row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
