"""Convex-roof evaluation: closed form on certified states, brute force otherwise.

The roof of a measure E over a rank-2 state rho is the minimum of
sum_i p_i E(psi_i) over all ensembles realizing rho. Every ensemble is the
image of the eigenensemble under an isometry on the ensemble labels, so the
average of E is a function on isometries; when the span is one-root the
distance law makes that function constant and the roof collapses to

    E(rho) = (1/2) (1 - r . z_hat) E(|z'>),

with r the Bloch vector of rho, z_hat the Bloch direction of the root state
and |z'> its antipode. The factor (1/2)(1 - r . z_hat) equals the trace
distance from the projection of rho onto the root axis to the root state.
oracle_minimize() is the independent check: multistart derivative-free
minimization over explicit ensembles of size nu.

verify_sphere_identity() checks the sphere identity behind the constancy claim:
two weighted sets on a sphere with a common barycenter assign the same
weighted mean squared distance to any point z of the sphere whenever one of
the sets is equidistant from z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NotOneRoot,
    PreconditionViolated,
    RankDeficient,
    SamplingFailed,
    WrongQubitCount,
)
from .measures import MeasureDescriptor
from .qstate import PAULI_Y, DensityMatrix, PureState, RankTwoState, trace_distance
from .tolerances import TOL
from .zeropolytope import RootCertificate, build_polynomial, root_direction


@dataclass(frozen=True)
class Decomposition:
    """A pure-state ensemble sum_i weights_i |states_i><states_i| of ``target``."""

    weights: np.ndarray
    states: tuple[PureState, ...]
    target: RankTwoState

    def reconstruction_error(self) -> float:
        """Trace distance between the ensemble average and the target."""
        acc = np.zeros_like(self.target.density().mat)
        for w, s in zip(self.weights, self.states):
            acc += w * np.outer(s.amps, s.amps.conj())
        return trace_distance(DensityMatrix(acc, self.target.m), self.target.density())


@dataclass(frozen=True)
class OracleStats:
    """Bookkeeping from a multistart oracle run."""

    restarts: int
    nu_values: tuple[int, ...]
    final_gradient_norm: float
    best_nu: int
    decomposition: Decomposition | None


@dataclass(frozen=True)
class RoofResult:
    value: float
    method: str
    certificate: RootCertificate | None = None
    oracle: OracleStats | None = None


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _eigvec_coords(state: RankTwoState) -> np.ndarray:
    """Rows are the span coordinates of the eigenvectors e0, e1 of rho.

    In the {phi0, phi1} basis the eigenvectors are the spinors along the
    Bloch direction: e0 = (cos(t/2), e^{i s} sin(t/2)) for (theta, phi) =
    (t, s), e1 its orthogonal partner.
    """
    c = np.cos(state.bloch.theta / 2.0)
    s = np.sin(state.bloch.theta / 2.0)
    e = np.exp(1j * state.bloch.phi)
    return np.array([[c, s * e], [-s * e.conjugate(), c]])


def _eigen_rows(state: RankTwoState) -> np.ndarray:
    """Span coordinates of the eigenensemble sqrt(lambda_j) |e_j>, one per row;
    every ensemble of ``state`` is V @ _eigen_rows(state) for a nu x 2 isometry V."""
    return np.sqrt(state.eigenvalues())[:, None] * _eigvec_coords(state)


def _decomposition(state: RankTwoState, ab: np.ndarray) -> Decomposition:
    """The ensemble with members |psi~_i> = a_i phi0 + b_i phi1 for the rows of
    ``ab``, weighted by their squared norms; weights below ``TOL.weight_floor``
    are dropped."""
    tilde = ab @ state.basis_matrix().T  # rows psi~_i
    p = np.einsum("ij,ij->i", tilde, tilde.conj()).real
    keep = p >= TOL.weight_floor
    states = tuple(PureState(tilde[i] / np.sqrt(p[i]), state.m)
                   for i in np.flatnonzero(keep))
    return Decomposition(p[keep], states, state)


def closed_form(state: RankTwoState, cert: RootCertificate) -> RoofResult:
    """Roof value from a one-root certificate.

    Uses the gauge recorded in the certificate (certify may have rotated the
    basis for pole safety), after checking it represents the same density
    matrix as ``state``.

    Raises
    ------
    NotOneRoot
        If the certificate was not granted.
    PreconditionViolated
        If the certificate belongs to a different density matrix.
    """
    if not cert.one_root:
        raise NotOneRoot("closed form needs a granted one-root certificate")
    if cert.state is not state:
        # both gauges were validated when built, so their trace distance
        # needs only the spectrum of the difference
        same = (cert.state.m == state.m and 0.5 * np.abs(np.linalg.eigvalsh(
            state.matrix() - cert.state.matrix())).sum() <= TOL.same_state_atol)
        if not same:
            raise PreconditionViolated("certificate gauge represents a different state")
    rdot = float(cert.state.bloch.cartesian() @ root_direction(cert.z))
    return RoofResult(0.5 * (1.0 - rdot) * cert.E_antipode, "closed_form", certificate=cert)


def average_over_decomposition(dec: Decomposition, measure: MeasureDescriptor) -> float:
    """sum_i p_i E(psi_i) for an explicit ensemble."""
    return float(sum(w * measure.value(s) for w, s in zip(dec.weights, dec.states)))


def random_decomposition(state: RankTwoState, nu: int, rng=None) -> Decomposition:
    """Haar-random size-nu ensemble of ``state``.

    Draws a Haar nu x nu unitary, keeps its first two columns as the
    isometry V, and forms |psi~_i> = sum_j V_ij sqrt(lambda_j) |e_j>.
    Weights below ``TOL.weight_floor`` are dropped.

    Raises
    ------
    RankDeficient
        If the smaller eigenvalue is (numerically) zero; only trivial
        ensembles exist then.
    """
    if nu < 2:
        raise ValueError("ensemble size nu must be at least 2")
    if state.eigenvalues()[1] < TOL.rank_deficient:
        raise RankDeficient("state has rank 1; only trivial decompositions exist")
    v = _haar_unitary(nu, np.random.default_rng(rng))[:, :2]
    return _decomposition(state, v @ _eigen_rows(state))


def wootters_mixed_concurrence(dm: DensityMatrix) -> float:
    """Two-qubit mixed concurrence max(0, mu1 - mu2 - mu3 - mu4).

    The mu_i are the decreasing square roots of the spectrum of
    rho (sy x sy) rho* (sy x sy); an independent route to the roof of the
    concurrence, used to cross-check the closed form and the oracle.
    Evaluated as the singular values of the symmetric matrix
    tau_ij = sqrt(l_i l_j) e_i^T (sy x sy) e_j over the eigenbasis of rho:
    same spectrum, but small mu_i come out at rounding accuracy instead of
    as square roots of rounding noise.
    """
    if dm.m != 2:
        raise WrongQubitCount("mixed concurrence is a two-qubit quantity")
    yy = np.kron(PAULI_Y, PAULI_Y)
    w, q = np.linalg.eigh(dm.mat)
    half = q * np.sqrt(np.clip(w, 0.0, None))
    tau = half.T @ yy @ half
    mu = np.linalg.svd(tau, compute_uv=False)
    return float(max(0.0, mu[0] - mu[1:].sum()))


# ---- oracle ----


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    Only the oracle needs scipy, and importing it costs several times the
    rest of a closed-form CLI command, so the import waits until here.
    ``oracle_minimize`` looks this name up as a module global.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multistart oracle; defaults match the CLI."""

    restarts: int = 64
    nu_max: int = 4
    seed: int = 0


def _exp_rows(x: np.ndarray, nu: int, w0: np.ndarray) -> np.ndarray:
    """U[:, :2] @ w0 for U = exp(i(A + A^dag)), A = re + i im from 2 nu^2 reals:
    only the first two columns of U ever touch the span."""
    n2 = nu * nu
    a = x[:n2].reshape(nu, nu) + 1j * x[n2:].reshape(nu, nu)
    w, q = np.linalg.eigh(a + a.conj().T)
    return (q * np.exp(1j * w)) @ (q[:2, :].conj().T @ w0)


def decomposition_objective(state: RankTwoState, measure: MeasureDescriptor,
                            nu: int) -> tuple[Callable[[np.ndarray], float], int]:
    """The roof objective on size-nu ensembles, in exponential coordinates.

    Returns (f, dim) with f(x) = sum_i E(psi~_i(x)) for x in R^dim,
    dim = 2 nu^2. Subnormalized vectors keep the objective smooth; by
    homogeneity the sum equals sum_i p_i E(psi_i). Each call costs one
    nu x nu eigh plus O(nu) arithmetic; the optimizer spends millions of
    calls here, so P(a phi0 + b phi1) = sum_j c_j a^(D-j) b^j is spelled
    out for the two measure degrees, 2 and 4.
    """
    w0 = _eigen_rows(state)
    c = build_polynomial(state, measure).coeffs
    mag = measure.mag

    def f(x: np.ndarray) -> float:
        ab = _exp_rows(x, nu, w0)
        av, bv = ab[:, 0], ab[:, 1]
        if c.size == 3:
            p = (c[0] * av + c[1] * bv) * av + c[2] * bv * bv
        else:
            a2, b2, axb = av * av, bv * bv, av * bv
            p = (c[0] * a2 * a2 + c[1] * a2 * axb + c[2] * a2 * b2
                 + c[3] * axb * b2 + c[4] * b2 * b2)
        return float(mag(p).sum())

    return f, 2 * nu * nu


def fd_gradient_norm(f: Callable[[np.ndarray], float], x: np.ndarray,
                     step: float = 1e-6) -> float:
    """Central finite-difference gradient norm of f at x."""
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return float(np.linalg.norm(g))


def oracle_minimize(state: RankTwoState, measure: MeasureDescriptor,
                    config: OptimizerConfig | None = None) -> RoofResult:
    """Brute-force roof: multistart derivative-free minimization.

    Restarts are spread round-robin over ensemble sizes nu = 2..nu_max.
    Each restart starts from Gaussian exponential coordinates and is refined
    with Powell until the step falls below 1e-8 or 120 direction sweeps
    pass. These settings are tuned for cross-checking the closed form at
    ~1e-8: looser line searches with many restarts beat a few deep ones,
    since the landscape has plenty of equivalent minima. The
    finite-difference gradient norm is recorded at the winner.

    A rank-1 state short-circuits to its pure value (the only ensembles are
    trivial).

    For ``sqrt_three_tangle`` the value bounds the roof from above only to
    about 1e-9: the objective takes 2 sqrt|p| of interpolated coefficients,
    the square root magnifies their rounding near a root, and Powell finds
    those dips (up to ~3e-9 below the roof on rotated family states).
    """
    cfg = config or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    if state.eigenvalues()[1] < TOL.rank_deficient:
        e0 = PureState(state.basis_matrix() @ _eigvec_coords(state)[0], state.m)
        dec = Decomposition(np.array([1.0]), (e0,), state)
        stats = OracleStats(0, (), 0.0, 1, dec)
        return RoofResult(measure.value(e0), "oracle", oracle=stats)

    nus = list(range(2, cfg.nu_max + 1))
    objectives = {nu: decomposition_objective(state, measure, nu) for nu in nus}
    best_val, best_x, best_nu = np.inf, None, nus[0]
    used_nus = []
    for i in range(cfg.restarts):
        nu = nus[i % len(nus)]
        f, dim = objectives[nu]
        x0 = rng.standard_normal(dim)
        used_nus.append(nu)
        res = minimize(f, x0, method="Powell",
                       options={"xtol": 1e-8, "ftol": 1e-11, "maxiter": 120})
        if res.fun < best_val:
            best_val, best_x, best_nu = float(res.fun), res.x, nu
    final_grad = fd_gradient_norm(objectives[best_nu][0], best_x)
    dec = _decomposition(state, _exp_rows(best_x, best_nu, _eigen_rows(state)))
    stats = OracleStats(cfg.restarts, tuple(used_nus), final_grad, best_nu, dec)
    return RoofResult(best_val, "oracle", oracle=stats)


# ---- sphere identity ----


@dataclass(frozen=True)
class SphereGeometry:
    """Two weighted point sets on an n-sphere in R^(n+1)."""

    center: np.ndarray
    radius: float
    weights_a: np.ndarray
    points_a: np.ndarray
    weights_b: np.ndarray
    points_b: np.ndarray

    @property
    def n(self) -> int:
        return self.center.size - 1


@dataclass(frozen=True)
class SphereIdentityReport:
    """Residuals of the sphere identities; all should sit at rounding level."""

    norm_identity: float
    apollonius_a: float
    apollonius_b: float
    main_identity: float

    @property
    def max_residual(self) -> float:
        return max(self.norm_identity, self.apollonius_a,
                   self.apollonius_b, self.main_identity)


def _apollonius_residual(weights, points, z, g) -> float:
    lhs = float(weights @ ((points - z) ** 2).sum(axis=1))
    rhs = float(((z - g) ** 2).sum() + weights @ ((points - g) ** 2).sum(axis=1))
    return abs(lhs - rhs)


def verify_sphere_identity(geom: SphereGeometry, z: np.ndarray) -> SphereIdentityReport:
    """Check the equal-barycenter sphere identity and its two ingredients.

    Preconditions (each reported by name when violated): dimension n in
    {2, 4}; normalized positive weights; all points and z on the sphere;
    set A equidistant from z; equal barycenters. The identities checked:
    the weighted squared-norm identity sum_a alpha ||a||^2 =
    sum_b beta ||b||^2, the Apollonius split for both sets, and the main
    statement sum_b beta ||z - b||^2 = ||z - a_l||^2 for every a_l.
    """
    if geom.n not in (2, 4):
        raise PreconditionViolated(f"dimension: n = {geom.n}, expected 2 or 4")
    for name, w in (("A", geom.weights_a), ("B", geom.weights_b)):
        if w.min() <= 0.0 or abs(w.sum() - 1.0) > 1e-12:
            raise PreconditionViolated(f"weights: set {name} not a positive unit mass")
    for name, pts in (("A", geom.points_a), ("B", geom.points_b),
                      ("z", z[None, :])):
        offs = np.abs(np.linalg.norm(pts - geom.center, axis=1) - geom.radius)
        if offs.max() > TOL.sphere_atol:
            raise PreconditionViolated(f"on-sphere: {name} off by {offs.max():.3e}")
    dists2 = ((geom.points_a - z) ** 2).sum(axis=1)
    spread = float(np.ptp(np.sqrt(dists2)))
    if spread > TOL.sphere_atol:
        raise PreconditionViolated(f"equidistance: set A distances spread {spread:.3e}")
    g_a = geom.weights_a @ geom.points_a
    g_b = geom.weights_b @ geom.points_b
    if np.linalg.norm(g_a - g_b) > TOL.sphere_atol:
        raise PreconditionViolated(
            f"barycenter: sets differ by {np.linalg.norm(g_a - g_b):.3e}")

    norm_res = abs(float(geom.weights_a @ (geom.points_a ** 2).sum(axis=1))
                   - float(geom.weights_b @ (geom.points_b ** 2).sum(axis=1)))
    apo_a = _apollonius_residual(geom.weights_a, geom.points_a, z, g_a)
    apo_b = _apollonius_residual(geom.weights_b, geom.points_b, z, g_b)
    mean_b = float(geom.weights_b @ ((geom.points_b - z) ** 2).sum(axis=1))
    main = float(np.abs(mean_b - dists2).max())
    return SphereIdentityReport(norm_res, apo_a, apo_b, main)


def sample_sphere_identity_instance(n: int, rng=None) -> tuple[SphereGeometry, np.ndarray]:
    """Random instance satisfying the hypotheses of the sphere identity.

    Set A is built equidistant from a random z by polar-angle construction.
    Set B candidates are random sphere points plus one constructed pair
    whose midpoint is A's barycenter (so the hull always contains it);
    nonnegative least squares then solves for weights, retrying while the
    solve falls short of exact reproduction.

    Raises
    ------
    SamplingFailed
        If no feasible set B is found within the attempt budget.
    """
    from scipy.optimize import nnls

    if n not in (2, 4):
        raise PreconditionViolated(f"dimension: n = {n}, expected 2 or 4")
    rng = np.random.default_rng(rng)
    dim = n + 1
    center = rng.standard_normal(dim)
    radius = rng.uniform(0.5, 2.5)

    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    z = center + radius * u

    ka = int(rng.integers(2, 7))
    t = rng.uniform(0.15, np.pi - 0.15)
    pts_a = np.empty((ka, dim))
    for i in range(ka):
        w = rng.standard_normal(dim)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        pts_a[i] = center + radius * (np.cos(t) * u + np.sin(t) * w)
    wa = rng.uniform(0.1, 1.0, ka)
    wa /= wa.sum()
    g = wa @ pts_a

    # pair of sphere points straddling g: their midpoint is exactly g
    v = g - center
    rho_g = np.linalg.norm(v)
    v /= rho_g
    for _ in range(TOL.resample_cap):
        w = rng.standard_normal(dim)
        w -= (w @ v) * v
        w /= np.linalg.norm(w)
        straddle = center + rho_g * v + np.sqrt(radius ** 2 - rho_g ** 2) * np.array([w, -w])
        kb = int(rng.integers(dim + 2, dim + 8))
        pts_b = rng.standard_normal((kb, dim))
        pts_b /= np.linalg.norm(pts_b, axis=1)[:, None]
        pts_b = center + radius * pts_b
        target = np.concatenate([g, [1.0]])
        # random points alone when their hull contains g, else add the pair
        for cand in (pts_b, np.vstack([pts_b, straddle])):
            mat = np.vstack([cand.T, np.ones(len(cand))])
            wb, _ = nnls(mat, target)
            # the residual reported by nnls is unreliable here; recompute it
            resid = np.linalg.norm(mat @ wb - target)
            if resid < 1e-10 and (wb > TOL.weight_floor).sum() >= 2:
                keep = wb > TOL.weight_floor
                wb = wb[keep]
                return SphereGeometry(center, radius, wa, pts_a,
                                      wb / wb.sum(), cand[keep]), z
    raise SamplingFailed("no nonnegative weights reproduce the barycenter")
