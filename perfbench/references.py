"""Reference quantities computed apart from oneroot.

Everything the benchmark checks the program against is computed here from
textbook definitions, with its own code paths:

* the Wootters concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy),
  evaluated in 40-digit arithmetic so that the two (near-)zero eigenvalues of a
  rank-2 state do not turn into square roots of rounding noise;
* the concurrence 2 |a00 a11 - a01 a10| of a pure two-qubit state;
* the Cayley hyperdeterminant of a pure three-qubit state as the discriminant
  of t -> det(A0 + t A1), where A0 and A1 are the two slices of the amplitude
  tensor along the first qubit, and sqrt(tau_3) = 2 sqrt|Det| from it;
* the coefficients of the quartic omega -> Det(phi0 + omega phi1) on a span,
  whose size says how close the span lies to the zero set of the tangle;
* Haar isometries, and from them ensemble averages of E over random
  decompositions of a density matrix.

Only numpy and mpmath are used; nothing here imports oneroot.
"""

from __future__ import annotations

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(_SY, _SY).real  # sy x sy is real: antidiagonal (-1, 1, 1, -1)
_PAULIS = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), _SY,
           np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))

_MP_DIGITS = 40


def pure_concurrence(psi: np.ndarray) -> float:
    """C(psi) = 2 |a00 a11 - a01 a10| of a normalized two-qubit vector."""
    return float(2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]))


def hyperdeterminant(psi: np.ndarray) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 amplitude tensor (qubit 1 leftmost).

    det(A0 + t A1) = alpha + beta t + gamma t^2, and Det = beta^2 - 4 alpha gamma.
    """
    a = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    alpha = np.linalg.det(a[0])
    gamma = np.linalg.det(a[1])
    beta = np.linalg.det(a[0] + a[1]) - alpha - gamma
    return complex(beta * beta - 4.0 * alpha * gamma)


def span_hyperdeterminant_coefficients(phi0: np.ndarray, phi1: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_4 of the quartic omega -> Det(phi0 + omega phi1),
    from its values at the fifth roots of unity (a discrete Fourier transform)."""
    w = np.exp(2j * np.pi * np.arange(5) / 5)
    return np.fft.fft([hyperdeterminant(phi0 + x * phi1) for x in w]) / 5


def sqrt_three_tangle(psi: np.ndarray) -> float:
    """sqrt(tau_3) with tau_3 = 4 |Det| for a normalized three-qubit vector."""
    return float(2.0 * np.sqrt(abs(hyperdeterminant(psi))))


def measure_for(m: int):
    """The pure-state measure the program pairs with an m-qubit register."""
    return {2: pure_concurrence, 3: sqrt_three_tangle}[m]


def wootters_concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4), l_i the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), in 40-digit arithmetic."""
    import mpmath  # here, so that a run's set-up and peak RSS do not include it

    with mpmath.workdps(_MP_DIGITS):
        r = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho])
        rc = mpmath.matrix([[mpmath.mpc(complex(x).conjugate()) for x in row]
                            for row in rho])
        yy = mpmath.matrix(SPIN_FLIP.tolist())
        ev = mpmath.eig(r * yy * rc * yy, left=False, right=False)
        lam = sorted((mpmath.sqrt(abs(mpmath.re(e))) for e in ev), reverse=True)
        return float(max(mpmath.mpf(0), lam[0] - lam[1] - lam[2] - lam[3]))


def density_from_span(phi0: np.ndarray, phi1: np.ndarray, r: float, theta: float,
                      phi: float) -> np.ndarray:
    """rho = sum_ij B_ij |phi_i><phi_j| with B = (1 + r.sigma)/2 in (phi0, phi1)."""
    n = r * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
    b = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(n, _PAULIS)))
    f = np.stack([phi0, phi1], axis=1)
    return f @ b @ f.conj().T


def haar_isometry(nu: int, rng: np.random.Generator) -> np.ndarray:
    """nu x 2 isometry: first two columns of a Haar unitary (QR, phase-fixed)."""
    z = (rng.standard_normal((nu, 2)) + 1j * rng.standard_normal((nu, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def top_eigenpairs(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two largest eigenvalues of rho and their eigenvectors (columns)."""
    w, v = np.linalg.eigh(rho)
    return np.clip(w[::-1][:2], 0.0, None), v[:, ::-1][:, :2]


def ensemble_average(tilde: np.ndarray, measure) -> float:
    """sum_i p_i E(psi_i) for subnormalized ensemble rows psi~_i = sqrt(p_i) psi_i."""
    p = np.einsum("ij,ij->i", tilde, tilde.conj()).real
    return float(sum(pi * measure(row / np.sqrt(pi))
                     for pi, row in zip(p, tilde) if pi > 0.0))


def eigen_ensemble_average(rho: np.ndarray, measure) -> float:
    """Average of E over the eigen-ensemble of a rank-2 rho."""
    lam, vecs = top_eigenpairs(rho)
    return ensemble_average((vecs * np.sqrt(lam)).T, measure)


def random_ensemble_average(rho: np.ndarray, measure, nu: int,
                            rng: np.random.Generator) -> float:
    """Average of E over the size-nu ensemble V (sqrt(lambda) e)^T, V Haar."""
    lam, vecs = top_eigenpairs(rho)
    return ensemble_average(haar_isometry(nu, rng) @ (vecs * np.sqrt(lam)).T, measure)
