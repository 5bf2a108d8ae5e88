"""Degree-2 polynomial entanglement measures and SLOCC operations.

Each measure is E(psi) = mag(P(psi)) where P is a polynomial in the
amplitudes and mag rescales the modulus so that E is homogeneous of degree
h = 2: E(kappa psi) = kappa^2 E(psi). Concurrence on two qubits uses the
quadratic P = 2(a00 a11 - a01 a10) with mag = abs; the square root of the
three-tangle uses the quartic hyperdeterminant with mag(p) = 2 sqrt|p|.
The zero set of E is SLOCC invariant because P picks up only the factor
kappa^h prod_i det(L_i) under kappa L1 x ... x Lm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, WrongQubitCount, ZeroVector
from .qstate import PureState
from .tolerances import TOL


def _concurrence_poly(a: np.ndarray) -> np.ndarray:
    return 2.0 * (a[..., 0] * a[..., 3] - a[..., 1] * a[..., 2])


def _hyperdet_poly(a: np.ndarray) -> np.ndarray:
    # Cayley hyperdeterminant of a 2x2x2 tensor, amplitudes indexed big-endian:
    # a[q1*4 + q2*2 + q3]. d1 collects squared "diagonal" pairs, d2 the mixed
    # products, d3 the two odd permanent-like terms.
    d1 = (a[..., 0] ** 2 * a[..., 7] ** 2
          + a[..., 1] ** 2 * a[..., 6] ** 2
          + a[..., 2] ** 2 * a[..., 5] ** 2
          + a[..., 4] ** 2 * a[..., 3] ** 2)
    d2 = (a[..., 0] * a[..., 7] * (a[..., 3] * a[..., 4]
                                   + a[..., 5] * a[..., 2]
                                   + a[..., 6] * a[..., 1])
          + a[..., 3] * a[..., 4] * a[..., 5] * a[..., 2]
          + a[..., 3] * a[..., 4] * a[..., 6] * a[..., 1]
          + a[..., 5] * a[..., 2] * a[..., 6] * a[..., 1])
    d3 = (a[..., 0] * a[..., 6] * a[..., 5] * a[..., 3]
          + a[..., 7] * a[..., 1] * a[..., 2] * a[..., 4])
    return d1 - 2.0 * d2 + 4.0 * d3


@dataclass(frozen=True)
class MeasureDescriptor:
    """A degree-2 homogeneous measure E = mag(P(psi)) on m qubits.

    ``poly`` evaluates P on amplitude arrays (broadcasting over leading
    axes), ``mag`` maps |P| values to E values, and ``poly_degree`` is the
    degree D of P in the amplitudes.
    """

    name: str
    m: int
    poly_degree: int
    poly: Callable[[np.ndarray], np.ndarray]
    mag: Callable[[np.ndarray], np.ndarray]

    def unnormalized(self, vec: np.ndarray) -> float:
        """E on a raw (not necessarily normalized) amplitude vector."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != 2 ** self.m:
            raise WrongQubitCount(
                f"{self.name} needs {2 ** self.m} amplitudes, got {v.size}")
        if np.linalg.norm(v) < TOL.zero_vector:
            raise ZeroVector("measure undefined on the zero vector")
        return float(self.mag(np.abs(self.poly(v))))

    def value(self, psi: PureState) -> float:
        """E on a normalized state."""
        if psi.m != self.m:
            raise WrongQubitCount(f"{self.name} is defined on {self.m} qubits, "
                                  f"state has {psi.m}")
        return float(self.mag(np.abs(self.poly(psi.amps))))


CONCURRENCE = MeasureDescriptor(
    name="concurrence", m=2, poly_degree=2,
    poly=_concurrence_poly, mag=lambda p: np.abs(p),
)

SQRT_THREE_TANGLE = MeasureDescriptor(
    name="sqrt_three_tangle", m=3, poly_degree=4,
    poly=_hyperdet_poly, mag=lambda p: 2.0 * np.sqrt(np.abs(p)),
)

_REGISTRY = {d.name: d for d in (CONCURRENCE, SQRT_THREE_TANGLE)}


def get_measure(name: str) -> MeasureDescriptor:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WrongQubitCount(f"unknown measure {name!r}; "
                              f"known: {sorted(_REGISTRY)}") from None


def concurrence(psi: PureState) -> float:
    """Two-qubit concurrence C(psi) = 2 |a00 a11 - a01 a10|."""
    return CONCURRENCE.value(psi)


def three_tangle(psi: PureState) -> float:
    """Three-qubit tangle tau = 4 |d1 - 2 d2 + 4 d3|, in [0, 1] when normalized."""
    if psi.m != 3:
        raise WrongQubitCount("three_tangle is defined on 3 qubits")
    return float(4.0 * np.abs(_hyperdet_poly(psi.amps)))


def sqrt_three_tangle(psi: PureState) -> float:
    """sqrt(tau), the degree-2 homogeneous companion of the tangle."""
    return SQRT_THREE_TANGLE.value(psi)


@dataclass(frozen=True)
class SloccOperator:
    """kappa L1 x ... x Lm with det(L_i) = 1 and kappa > 0."""

    factors: tuple[np.ndarray, ...]
    kappa: float = 1.0

    @property
    def m(self) -> int:
        return len(self.factors)

    def matrix(self) -> np.ndarray:
        out = np.eye(1, dtype=complex)
        for f in self.factors:
            out = np.kron(out, f)
        return self.kappa * out


def slocc_operator(factors, kappa: float = 1.0) -> SloccOperator:
    """Validate determinants and the positive scale, then wrap."""
    fs = tuple(np.asarray(f, dtype=complex) for f in factors)
    for i, f in enumerate(fs):
        if f.shape != (2, 2):
            raise DimensionMismatch(f"factor {i} has shape {f.shape}, expected (2, 2)")
        if not np.isfinite(f).all():
            raise DimensionMismatch(f"factor {i} has non-finite entries")
        det = np.linalg.det(f)
        if abs(det - 1.0) > TOL.slocc_det_atol:
            raise DimensionMismatch(f"factor {i} has det {det}, expected 1")
    if not 0.0 < kappa < np.inf:
        raise DimensionMismatch(f"scale kappa = {kappa} must be positive and finite")
    return SloccOperator(fs, float(kappa))


def apply_slocc(op: SloccOperator, psi) -> np.ndarray:
    """(kappa L1 x ... x Lm) |psi>, returned unnormalized.

    Accepts a PureState or a raw amplitude vector; the result is a plain
    vector because SLOCC maps do not preserve the norm.
    """
    amps = psi.amps if isinstance(psi, PureState) else np.asarray(psi, dtype=complex)
    if amps.size != 2 ** op.m:
        raise DimensionMismatch(
            f"operator acts on {op.m} qubits, state has {amps.size} amplitudes")
    return op.matrix() @ amps
