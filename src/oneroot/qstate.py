"""States of small qubit registers and their rank-2 structure.

Everything here is dense numpy on at most ``MAX_QUBITS`` qubits. A rank-2
density matrix is represented by an orthonormal basis pair of its range
together with a Bloch vector in that basis,

    rho = sum_ij B_ij |phi_i><phi_j|,      B = (1 + r . sigma) / 2,

so the closed unit ball of Bloch vectors sweeps out exactly the states
supported on span{phi0, phi1}. Qubits are numbered 1..m from the left
(big-endian): basis index q1 q2 ... qm has integer value sum_k q_k 2^(m-k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBloch,
    NonOrthogonalBasis,
    RankTooHigh,
)
from .tolerances import TOL

MAX_QUBITS = 5

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _qubit_count(dim: int) -> int:
    m = int(round(np.log2(dim)))
    if dim < 2 or 2 ** m != dim:
        raise DimensionMismatch(f"dimension {dim} is not a power of two >= 2")
    if m > MAX_QUBITS:
        raise DimensionMismatch(f"{m} qubits exceeds the dense ceiling of {MAX_QUBITS}")
    return m


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``m`` qubits.

    Attributes
    ----------
    amps : ndarray
        Complex amplitudes of length ``2**m`` in big-endian basis order,
        renormalized to unit norm on construction.
    m : int
        Number of qubits.
    """

    amps: np.ndarray
    m: int

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), self.m)


def pure_state(amps) -> PureState:
    """Validate amplitudes and build a :class:`PureState`.

    Parameters
    ----------
    amps : array_like
        Complex vector of length ``2**m``. Its norm must be within
        ``TOL.norm_atol`` of 1; the stored amplitudes are renormalized
        exactly so downstream homogeneity arguments stay clean.
    """
    a = np.asarray(amps, dtype=complex).reshape(-1)
    m = _qubit_count(a.size)
    if not np.isfinite(a).all():
        raise DimensionMismatch("amplitudes must be finite")
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > TOL.norm_atol:
        raise DimensionMismatch(f"amplitudes have norm {nrm}, expected 1")
    return PureState(a / nrm, m)


def ket(bits: str) -> PureState:
    """Computational basis state from a bit string, e.g. ``ket("0101")``."""
    idx = int(bits, 2)
    a = np.zeros(2 ** len(bits), dtype=complex)
    a[idx] = 1.0
    return PureState(a, len(bits))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on ``m`` qubits."""

    mat: np.ndarray
    m: int


def density_matrix(mat) -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity, then wrap.

    Raises
    ------
    DimensionMismatch
        If the matrix is not square of power-of-two size within the dense
        ceiling, not Hermitian, not unit trace, or not positive
        semidefinite up to ``TOL.psd_floor``.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    m = _qubit_count(a.shape[0])
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite")
    if np.abs(a - a.conj().T).max() > TOL.herm_atol:
        raise DimensionMismatch("matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > TOL.trace_atol or abs(np.trace(a).imag) > TOL.trace_atol:
        raise DimensionMismatch(f"trace is {np.trace(a)}, expected 1")
    if np.linalg.eigvalsh(a).min() < TOL.psd_floor:
        raise DimensionMismatch("matrix has a significantly negative eigenvalue")
    return DensityMatrix(a, m)


@dataclass(frozen=True)
class BlochVector:
    """Spherical Bloch coordinates: radius ``r``, polar ``theta``, azimuth ``phi``."""

    r: float
    theta: float
    phi: float

    def cartesian(self) -> np.ndarray:
        st = np.sin(self.theta)
        return self.r * np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


def bloch_vector(r: float, theta: float, phi: float) -> BlochVector:
    """Validate ranges and build a :class:`BlochVector`.

    ``r`` must lie in the closed unit ball (up to ``TOL.bloch_atol``),
    ``theta`` in [0, pi]; ``phi`` must be finite and is wrapped into
    [0, 2 pi).
    """
    if not (-TOL.bloch_atol <= r <= 1.0 + TOL.bloch_atol):
        raise InvalidBloch(f"radius {r} outside [0, 1]")
    if not (0.0 <= theta <= np.pi + 1e-12):
        raise InvalidBloch(f"polar angle {theta} outside [0, pi]")
    if not np.isfinite(phi):
        raise InvalidBloch(f"azimuth {phi} is not finite")
    return BlochVector(float(min(max(r, 0.0), 1.0)), float(theta), float(np.mod(phi, 2 * np.pi)))


def bloch_from_cartesian(vec) -> BlochVector:
    """Spherical coordinates of a Cartesian Bloch vector."""
    x, y, z = np.asarray(vec, dtype=float)
    r = float(np.sqrt(x * x + y * y + z * z))
    if r < 1e-15:
        return BlochVector(0.0, 0.0, 0.0)
    theta = float(np.arccos(np.clip(z / r, -1.0, 1.0)))
    return bloch_vector(r, theta, float(np.arctan2(y, x)))


def _bloch_matrix(b: BlochVector) -> np.ndarray:
    """2x2 coefficient matrix B = (1 + r . sigma)/2 in the basis order (phi0, phi1)."""
    x, y, z = b.cartesian()
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def _bloch_from_matrix(bmat: np.ndarray) -> BlochVector:
    x = 2.0 * bmat[1, 0].real
    y = 2.0 * bmat[1, 0].imag
    z = (bmat[0, 0] - bmat[1, 1]).real
    return bloch_from_cartesian([x, y, z])


@dataclass(frozen=True)
class RankTwoState:
    """Rank <= 2 density matrix in range-basis plus Bloch-vector form.

    Attributes
    ----------
    phi0, phi1 : PureState
        Orthonormal basis of the range. For states produced by
        :func:`eigen_decompose_rank2` this is the eigenbasis in eigenvalue
        order lambda0 >= lambda1 and the Bloch vector points along +z.
    bloch : BlochVector
        Coordinates of the state in the {phi0, phi1} basis.
    degenerate : bool
        Set when the top two eigenvalues of the source matrix were closer
        than ``TOL.degenerate_gap``, so basis order was a tie-break.
    """

    phi0: PureState
    phi1: PureState
    bloch: BlochVector
    degenerate: bool = field(default=False)

    @property
    def m(self) -> int:
        return self.phi0.m

    def eigenvalues(self) -> tuple[float, float]:
        """(lambda0, lambda1) = ((1 + r)/2, (1 - r)/2)."""
        return (1.0 + self.bloch.r) / 2.0, (1.0 - self.bloch.r) / 2.0

    def basis_matrix(self) -> np.ndarray:
        """2^m x 2 matrix whose columns are phi0, phi1."""
        return np.stack([self.phi0.amps, self.phi1.amps], axis=1)

    def matrix(self) -> np.ndarray:
        """The matrix sum_ij B_ij |phi_i><phi_j|, without re-validating it."""
        f = self.basis_matrix()
        return f @ _bloch_matrix(self.bloch) @ f.conj().T

    def density(self) -> DensityMatrix:
        """Reconstruct the density matrix sum_ij B_ij |phi_i><phi_j|."""
        return density_matrix(self.matrix())


def make_rank_two(phi0: PureState, phi1: PureState, bloch: BlochVector,
                  degenerate: bool = False) -> RankTwoState:
    """Assemble a :class:`RankTwoState`, checking orthonormality of the basis.

    Raises
    ------
    NonOrthogonalBasis
        If ``|<phi0|phi1>|`` exceeds ``TOL.ortho_atol``.
    DimensionMismatch
        If the two states live on different registers.
    InvalidBloch
        Propagated from Bloch-vector validation on out-of-ball input.
    """
    if phi0.m != phi1.m:
        raise DimensionMismatch("basis vectors live on different registers")
    ov = abs(np.vdot(phi0.amps, phi1.amps))
    if ov > TOL.ortho_atol:
        raise NonOrthogonalBasis(f"|<phi0|phi1>| = {ov:.3e}")
    bloch = bloch_vector(bloch.r, bloch.theta, bloch.phi)
    return RankTwoState(phi0, phi1, bloch, degenerate)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant amplitude is real positive."""
    idx = np.flatnonzero(np.abs(v) > TOL.phase_cut)
    if idx.size == 0:
        return v
    a = v[idx[0]]
    return v * (a.conj() / abs(a))


def _canonical_block(vecs: np.ndarray, need: int) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Gram-Schmidt of the standard basis vectors projected onto the space, in
    index order, which makes the tie-break reproducible and lines degenerate
    eigenvectors up with computational basis states whenever possible.
    """
    proj = vecs @ vecs.conj().T
    out: list[np.ndarray] = []
    for k in range(proj.shape[0]):
        u = proj[:, k].copy()
        for w in out:
            u -= w * np.vdot(w, u)
        nrm = np.linalg.norm(u)
        if nrm > 1e-6:
            out.append(u / nrm)
        if len(out) == need:
            break
    return np.stack(out, axis=1)


def eigen_decompose_rank2(dm: DensityMatrix) -> RankTwoState:
    """Spectral form of a rank <= 2 density matrix.

    Returns a :class:`RankTwoState` whose basis is the eigenbasis in
    eigenvalue order lambda0 >= lambda1, with Bloch vector
    (r, 0, 0) = (lambda0 - lambda1, theta=0, phi=0). Ties (degenerate top
    eigenvalues) are broken deterministically toward computational basis
    states and flagged via ``degenerate`` rather than raised. Each
    eigenvector's global phase is fixed so its first significant amplitude
    is real positive.

    Raises
    ------
    RankTooHigh
        If the third eigenvalue exceeds ``TOL.rank_atol``.
    """
    w, v = np.linalg.eigh(dm.mat)
    w = w[::-1]
    v = v[:, ::-1]
    if w.size > 2 and w[2] > TOL.rank_atol:
        raise RankTooHigh(f"third eigenvalue {w[2]:.3e} exceeds {TOL.rank_atol}")

    # group indices whose eigenvalues tie, then canonicalize any group that
    # contributes to the leading pair
    cols = []
    i = 0
    while len(cols) < 2:
        j = i
        while j + 1 < w.size and abs(w[j + 1] - w[i]) < TOL.degenerate_gap:
            j += 1
        block = v[:, i:j + 1]
        need = min(2 - len(cols), j + 1 - i)
        if j > i:
            block = _canonical_block(block, need)
        for k in range(need):
            cols.append(block[:, k])
        i = j + 1
    degenerate = abs(w[0] - w[1]) < TOL.degenerate_gap

    e0 = _fix_phase(cols[0])
    e1 = _fix_phase(cols[1])
    r = float(np.clip(w[0] - w[1], 0.0, 1.0))
    return RankTwoState(
        PureState(e0, dm.m), PureState(e1, dm.m), BlochVector(r, 0.0, 0.0), degenerate
    )


def partial_trace(dm: DensityMatrix, k: int) -> DensityMatrix:
    """Trace out qubit ``k`` (1-based, counted from the left).

    Raises
    ------
    IndexOutOfRange
        If ``k`` is outside 1..m.
    DimensionMismatch
        If the input is a single qubit (nothing would remain).
    """
    m = dm.m
    if m < 2:
        raise DimensionMismatch("cannot trace the only qubit away")
    if not 1 <= k <= m:
        raise IndexOutOfRange(f"qubit index {k} outside 1..{m}")
    t = dm.mat.reshape((2,) * (2 * m))
    out = np.trace(t, axis1=k - 1, axis2=m + k - 1)
    return density_matrix(out.reshape(2 ** (m - 1), 2 ** (m - 1)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """D(a, b) = (1/2) ||a - b||_1 via the spectrum of the Hermitian difference."""
    if a.m != b.m:
        raise DimensionMismatch("density matrices live on different registers")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.mat - b.mat)).sum())
