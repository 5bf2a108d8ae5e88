"""Zero polytope of a measure on a rank-2 span: polynomial, roots, certificate.

For a basis pair (phi0, phi1) of the span, the underlying polynomial of the
measure restricted to the Bloch sphere of the span,

    p(omega) = P(|phi0> + omega |phi1>),    deg p <= D,

has the surface zeros of E as its roots (omega parametrizes the sphere
stereographically, the pole phi1 itself sitting at omega = infinity). When
all D roots coincide at a single z, E obeys an exact distance law on
normalized surface states,

    E(psi_omega) = N * || n(omega) - n(z) ||^2,      N = E(|z'>) / 4,

with n(.) the unit Bloch vector and |z'> the antipode of the root state.
certify() builds the polynomial by interpolation, finds and clusters the
roots, and verifies the law at random probes before granting the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    EntireRangeVanishes,
    InterpolationUnsound,
    ZeroPolynomialIdentically,
)
from .measures import MeasureDescriptor
from .qstate import PureState, RankTwoState, _bloch_from_matrix, _bloch_matrix, make_rank_two
from .tolerances import TOL

# interpolation nodes (first D+1 used) and extra residual-check nodes
_NODES = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j])
_CHECK_NODES = np.array([2.0, -2.0, 2.0j])


def _vander_inv(degree: int) -> np.ndarray:
    n = _NODES[: degree + 1]
    return np.linalg.inv(np.vander(n, degree + 1, increasing=True))


_VINV = {2: _vander_inv(2), 4: _vander_inv(4)}


def root_direction(z) -> np.ndarray:
    """Unit Bloch vector of the normalized state (phi0 + z phi1)/sqrt(1+|z|^2).

    The map sends omega = tan(t/2) e^{i phi} to polar angle t, azimuth phi:
    (0 -> north pole phi0, infinity -> south pole phi1). Broadcasts over an
    array of z; the vector is the last axis.
    """
    z = np.asarray(z)
    s = 1.0 + np.abs(z) ** 2
    return np.stack([2.0 * z.real / s, 2.0 * z.imag / s, (2.0 - s) / s], axis=-1)


@dataclass(frozen=True)
class ZeroPolynomial:
    """Coefficients c_0..c_D of p(omega), ascending order, tied to a basis."""

    coeffs: np.ndarray
    measure: MeasureDescriptor

    def evaluate(self, omega) -> np.ndarray:
        """p(omega), broadcasting over arrays of omega."""
        w = np.asarray(omega, dtype=complex)
        out = np.zeros_like(w)
        for c in self.coeffs[::-1]:
            out = out * w + c
        return out

    def surface_value(self, omega) -> np.ndarray:
        """E of the normalized surface state at omega (h = 2)."""
        w = np.asarray(omega, dtype=complex)
        return self.measure.mag(np.abs(self.evaluate(w))) / (1.0 + np.abs(w) ** 2)


def build_polynomial(state: RankTwoState, measure: MeasureDescriptor) -> ZeroPolynomial:
    """Interpolate p(omega) = P(phi0 + omega phi1) on D+1 fixed nodes.

    Coefficients come from a Vandermonde solve at omega in {0, 1, -1, i, -i}
    (the first D+1 of them); the result is checked against direct evaluation
    at three extra nodes and must reproduce it within
    ``TOL.interp_rtol * max|c_j|``.

    Raises
    ------
    WrongQubitCount
        If the measure does not match the register size.
    InterpolationUnsound
        If the residual check fails (never expected for exact-degree input).
    """
    d = measure.poly_degree
    if state.m != measure.m:
        # reuse the measure's own validation and error type
        measure.value(state.phi0)
    nodes = _NODES[: d + 1]
    base = state.phi0.amps[None, :] + nodes[:, None] * state.phi1.amps[None, :]
    coeffs = _VINV[d] @ measure.poly(base)

    scale = float(np.abs(coeffs).max())
    poly = ZeroPolynomial(coeffs, measure)
    if scale > TOL.poly_floor:
        probe = state.phi0.amps[None, :] + _CHECK_NODES[:, None] * state.phi1.amps[None, :]
        resid = float(np.abs(poly.evaluate(_CHECK_NODES) - measure.poly(probe)).max())
        if resid > TOL.interp_rtol * scale:
            raise InterpolationUnsound(
                f"interpolation residual {resid:.3e} exceeds {TOL.interp_rtol} * {scale:.3e}")
    return poly


def _chain_labels(roots: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage labels: roots closer than tol share a label."""
    labels = -np.ones(roots.size, dtype=int)
    nxt = 0
    for i in range(roots.size):
        if labels[i] >= 0:
            continue
        labels[i] = nxt
        stack = [i]
        while stack:
            j = stack.pop()
            near = np.abs(roots - roots[j]) < tol
            for k in np.flatnonzero(near & (labels < 0)):
                labels[k] = nxt
                stack.append(k)
        nxt += 1
    return labels


def _polish_center(coeffs: np.ndarray, z0: complex, mult: int) -> complex:
    """Newton-refine a multiplicity-``mult`` root seed on the (mult-1)-th
    derivative, where that root is simple. A step that escapes or leaves
    the finite plane is not caught here: the rebuild check in
    :func:`find_roots` rejects such a center."""
    d1 = npoly.polyder(coeffs, mult - 1)
    d2 = npoly.polyder(coeffs, mult)
    z = z0
    for _ in range(2):
        z = z - npoly.polyval(z, d1) / npoly.polyval(z, d2)
    return complex(z)


def find_roots(poly: ZeroPolynomial) -> list[tuple[complex, int]]:
    """Roots of p with multiplicities, via companion-matrix eigenvalues.

    Trailing coefficients below ``TOL.coeff_floor * max|c_j|`` are treated
    as zero (those roots escaped to infinity; certify accounts for them
    through the leading-coefficient test). A root of full multiplicity D
    scatters as eps^(1/D) under the eigenvalue method, so a one-cluster
    model p = c_D (omega - z*)^D with z* = -c_{D-1} / (D c_D) is tried
    first and accepted when it reproduces every coefficient within
    ``TOL.merge_model_rtol * max|c_j|``.

    Partial multiplicities (a triple plus a simple root, say) scatter the
    same way, and no fixed chain tolerance separates an eps^(1/3) cloud
    from a genuinely close pair. So the cluster structure is chosen by
    validation instead: single-linkage partitions are formed at a ladder
    of shrinking tolerances, each candidate's centers are Newton-polished
    on the derivative that makes them simple, the polynomial is rebuilt
    from the hypothesized structure, and the coarsest partition whose
    rebuild matches every coefficient within ``TOL.merge_model_rtol *
    max|c_j|`` wins. Centroids of a scattered multiple root are first-order
    clean (the eps^(1/m) cloud is centered), so the rebuild residual sits
    at the backward error of the coefficients for the true structure and
    at the cluster-separation scale for a wrong merge. If no partition
    validates (simple roots of an ill-conditioned polynomial), every
    companion eigenvalue is reported as a simple root.

    Returns
    -------
    list of (root, multiplicity), sorted by (Re, Im).

    Raises
    ------
    ZeroPolynomialIdentically
        If every coefficient is below ``TOL.poly_floor`` (the measure
        vanishes on the whole span).
    """
    c = poly.coeffs
    scale = float(np.abs(c).max())
    if scale < TOL.poly_floor:
        raise ZeroPolynomialIdentically("measure vanishes identically on the span")

    sig = np.flatnonzero(np.abs(c) >= TOL.coeff_floor * scale)
    deg = int(sig.max())
    if deg == 0:
        return []

    if deg >= 2:
        zstar = -c[deg - 1] / (deg * c[deg])
        model = np.array([c[deg] * comb(deg, j) * (-zstar) ** (deg - j)
                          for j in range(deg + 1)])
        if float(np.abs(model - c[: deg + 1]).max()) <= TOL.merge_model_rtol * scale:
            return [(complex(zstar), deg)]

    roots = np.roots(c[deg::-1])
    s = 1.0 + float(np.abs(roots).max())
    tail = c[: deg + 1]
    out = [(complex(z), 1) for z in roots]
    seen_counts = set()
    for exp in range(2, 10):
        tol = s * 10.0 ** (-exp)
        labels = _chain_labels(roots, tol)
        n = int(labels.max()) + 1
        if n in seen_counts:
            # nested partitions: equal count means an identical partition
            continue
        seen_counts.add(n)
        centers = []
        for g in range(n):
            grp = roots[labels == g]
            z0 = complex(grp.mean())
            if grp.size >= 2:
                z0 = _polish_center(tail, z0, int(grp.size))
            centers.append((z0, int(grp.size)))
        rep = [z for z, m in centers for _ in range(m)]
        model = npoly.polyfromroots(rep) * c[deg]
        if float(np.abs(model - tail).max()) <= TOL.merge_model_rtol * scale:
            out = centers
            break
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _rotated(state: RankTwoState, u: np.ndarray) -> RankTwoState:
    """The same density matrix in the basis (phi0, phi1) @ u, for a 2x2 unitary u.

    Rotating the basis conjugates the Bloch coefficient matrix, B -> u^dag B u.
    """
    f = state.basis_matrix()
    bmat = u.conj().T @ _bloch_matrix(state.bloch) @ u
    return make_rank_two(
        PureState(f @ u[:, 0], state.m), PureState(f @ u[:, 1], state.m),
        _bloch_from_matrix(bmat), state.degenerate)


# pole rotations tried in order: identity, pole swap, then fixed mixers
def _mixer(angle: float, phase: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    e = np.exp(1j * phase)
    return np.array([[c, -s * e.conjugate()], [s * e, c]])


_POLE_ATTEMPTS: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    _mixer(np.pi / 4, 0.0),
    _mixer(np.pi / 4, np.pi / 2),
    _mixer(np.pi / 4, np.pi),
    _mixer(np.pi / 4, 3 * np.pi / 2),
    _mixer(np.pi / 8, 0.0),
    _mixer(3 * np.pi / 8, np.pi / 4),
)


def pole_safe_basis(state: RankTwoState, measure: MeasureDescriptor) -> RankTwoState:
    """Rotate the basis within the span until E(phi1) is bounded away from 0.

    The represented density matrix is unchanged (see :func:`_rotated`). The
    attempt order is deterministic (identity, swap the poles, then six fixed
    mixing rotations), so the output gauge is reproducible.

    Raises
    ------
    EntireRangeVanishes
        If no attempt reaches ``TOL.pole_min``, i.e. the measure vanishes on
        (numerically) the entire span.
    """
    f = state.basis_matrix()
    for u in _POLE_ATTEMPTS:
        if measure.unnormalized(f @ u[:, 1]) >= TOL.pole_min:
            return state if u is _POLE_ATTEMPTS[0] else _rotated(state, u)
    raise EntireRangeVanishes(
        f"{measure.name} vanishes on the whole span within {TOL.pole_min}")


@dataclass(frozen=True)
class RootCertificate:
    """Outcome of certify(): root structure of the measure on a span.

    ``state`` is the (pole-safe) gauge the polynomial was built in; the
    fields after ``one_root`` are populated only for a granted certificate.
    ``N = E_antipode / 4`` is the constant of the distance law, and
    ``law_residual`` the largest relative deviation observed at the probes.
    """

    state: RankTwoState
    measure: MeasureDescriptor
    polynomial: ZeroPolynomial
    roots: tuple[tuple[complex, int], ...]
    one_root: bool
    z: complex | None = None
    root_state: PureState | None = None
    antipode_state: PureState | None = None
    E_antipode: float | None = None
    N: float | None = None
    law_residual: float | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.roots)


@cache
def _law_probes() -> tuple[np.ndarray, np.ndarray]:
    """``TOL.law_probes`` fixed random surface points omega and their Bloch
    directions, built on first use so that importing the package does not
    load numpy.random."""
    rng = np.random.default_rng(1729)
    ct = rng.uniform(-1.0, 1.0, TOL.law_probes)
    az = rng.uniform(0.0, 2.0 * np.pi, TOL.law_probes)
    omega = np.tan(np.arccos(ct) / 2.0) * np.exp(1j * az)
    return omega, root_direction(omega)


def _law_residual(poly: ZeroPolynomial, z: complex, n_const: float) -> float:
    """Max relative deviation of E from N * chord^2 at fixed random probes."""
    omega, dirs = _law_probes()
    e_vals = poly.surface_value(omega)
    chord2 = ((dirs - root_direction(z)) ** 2).sum(axis=1)
    scale = max(float(e_vals.max()), 1e-300)
    return float(np.abs(e_vals - n_const * chord2).max()) / scale


def certify(state: RankTwoState, measure: MeasureDescriptor) -> RootCertificate:
    """Decide the one-root property and package the evidence.

    Routes through :func:`pole_safe_basis` first (a no-op on safe bases), so
    a zero of E at the raw phi1 pole becomes a finite root instead of a
    dropped degree; the certificate records the gauge actually used. The
    verdict requires a single root cluster, a significant leading
    coefficient (no root left at infinity), and the distance law holding at
    ``TOL.law_probes`` probes within ``TOL.law_rtol``.

    A root landing far from the origin means its coefficients are
    pole-dominated and carry error amplified like |root|^degree, enough to
    defeat the partition validation inside :func:`find_roots`. When the
    farthest cluster sits beyond ``TOL.recenter_radius`` the basis is
    re-gauged once, rotating the structurally dominant root to the center,
    and the polynomial is rebuilt there.

    Raises
    ------
    EntireRangeVanishes
        If the measure vanishes on the whole span. Rounding can carry such
        a span past the pole check, so an identically-zero polynomial found
        later is folded into the same error.
    """
    def rooted(p: ZeroPolynomial):
        try:
            return tuple(find_roots(p))
        except ZeroPolynomialIdentically as exc:
            raise EntireRangeVanishes(
                f"{measure.name} vanishes on the whole span within "
                f"{TOL.poly_floor}") from exc

    safe = pole_safe_basis(state, measure)
    poly = build_polynomial(safe, measure)
    roots = rooted(poly)

    if max((abs(z) for z, _ in roots), default=0.0) > TOL.recenter_radius:
        zc, _ = max(roots, key=lambda t: (t[1], abs(t[0])))
        d = np.sqrt(1.0 + abs(zc) ** 2)
        u = np.array([[1.0, -np.conj(zc)], [zc, 1.0]], dtype=complex) / d
        safe = pole_safe_basis(_rotated(safe, u), measure)
        poly = build_polynomial(safe, measure)
        roots = rooted(poly)

    scale = float(np.abs(poly.coeffs).max())
    lead_ok = abs(poly.coeffs[-1]) >= TOL.coeff_floor * scale
    if not (lead_ok and len(roots) == 1):
        return RootCertificate(safe, measure, poly, roots, one_root=False)

    z = roots[0][0]
    denom = np.sqrt(1.0 + abs(z) ** 2)
    root_amps = (safe.phi0.amps + z * safe.phi1.amps) / denom
    anti_amps = (np.conj(z) * safe.phi0.amps - safe.phi1.amps) / denom
    root_state = PureState(root_amps, safe.m)
    antipode = PureState(anti_amps, safe.m)
    e_anti = measure.value(antipode)
    n_const = e_anti / 4.0
    residual = _law_residual(poly, z, n_const)
    return RootCertificate(
        safe, measure, poly, roots, one_root=residual <= TOL.law_rtol,
        z=z, root_state=root_state, antipode_state=antipode,
        E_antipode=e_anti, N=n_const, law_residual=residual)
