"""Concrete state families with one-root structure.

Three constructions are packaged here: a two-qubit family whose roof has an
elementary closed form, a three-qubit family built over a generalized W
state, and a catalog of four-qubit SLOCC class generators whose one-qubit
marginals are one-root for specific traced qubits. The scan machinery
certifies those marginals in bulk and reports the outcomes as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .convexroof import OptimizerConfig, closed_form, oracle_minimize
from .errors import (
    DegenerateParameters,
    OneRootError,
    SamplingFailed,
    UnsupportedClass,
)
from .measures import SQRT_THREE_TANGLE, SloccOperator, apply_slocc, slocc_operator
from .qstate import (
    BlochVector,
    PureState,
    RankTwoState,
    bloch_vector,
    density_matrix,
    eigen_decompose_rank2,
    ket,
    make_rank_two,
    partial_trace,
    pure_state,
)
from .tolerances import TOL
from .zeropolytope import certify

# class index -> traced qubits whose marginal is one-root at generic params
TRACEABLE = {
    4: frozenset({1, 2, 3, 4}),
    5: frozenset({2, 4}),
    7: frozenset({2, 3, 4}),
    8: frozenset({2, 3, 4}),
}

_PARAM_COUNT = {4: 2, 5: 1, 7: 0, 8: 0}


# ---- two-qubit family ----


@dataclass(frozen=True)
class TwoQubitFamily:
    """Span of |00> and cos(g/2)|01> + sin(g/2)e^{id}|10>, mixed by ``bloch``.

    Every rank-2 two-qubit one-root state is locally equivalent to a member.
    gamma in [0, pi], delta in [0, 2pi).
    """

    gamma: float
    delta: float
    bloch: BlochVector


def two_qubit_state(fam: TwoQubitFamily) -> RankTwoState:
    """Assemble the two-qubit family member.

    The concurrence zero polynomial over this span is a multiple of w^2, so
    certification returns the root z = 0 (towards |00>) for gamma in (0, pi).
    At gamma = 0 the span contains only product states and certification
    raises EntireRangeVanishes.
    """
    phi1 = pure_state([0.0,
                       np.cos(fam.gamma / 2.0),
                       np.sin(fam.gamma / 2.0) * np.exp(1j * fam.delta),
                       0.0])
    return make_rank_two(ket("00"), phi1, fam.bloch)


def two_qubit_concurrence(fam: TwoQubitFamily) -> float:
    """Closed concurrence of the family: (1/2)(1 - r cos theta) sin gamma."""
    b = fam.bloch
    return 0.5 * (1.0 - b.r * np.cos(b.theta)) * np.sin(fam.gamma)


def random_two_qubit_family(rng=None) -> TwoQubitFamily:
    """Generic family member; gamma keeps clear of the product plane at 0."""
    rng = np.random.default_rng(rng)
    return TwoQubitFamily(
        rng.uniform(0.05, np.pi - 0.05),
        rng.uniform(0.0, 2.0 * np.pi),
        bloch_vector(rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi),
                     rng.uniform(0.0, 2.0 * np.pi)))


# ---- three-qubit family ----


@dataclass(frozen=True)
class ThreeQubitFamily:
    """Span of a generalized W state and a constrained partner vector.

    phi0 = a|001> + b|010> + c|100> with a^2+b^2+c^2 = 1, and
    phi1 proportional to g|000> + t1|011> + t2|101> + t3|110> where t3 is
    not free: t3 = (sqrt(c t1) + sqrt(b t2))^2 / a. That constraint is what
    collapses the zero polynomial of the square-root tangle to a single
    root of full multiplicity at w = 0.
    """

    a: float
    b: float
    c: float
    g_amp: float
    t1: float
    t2: float
    bloch: BlochVector

    @property
    def t3(self) -> float:
        return (np.sqrt(self.c * self.t1) + np.sqrt(self.b * self.t2)) ** 2 / self.a

    @property
    def canonical(self) -> bool:
        """Whether g dominates every t_i.

        Parameter draws violating this fall outside the validated family
        and are excluded by the sampler rather than rejected here.
        """
        return self.g_amp >= max(self.t1, self.t2, self.t3)


def three_qubit_family(a: float, b: float, c: float, g_amp: float,
                       t1: float, t2: float, bloch: BlochVector) -> ThreeQubitFamily:
    """Validate ranges and build a :class:`ThreeQubitFamily`.

    Raises
    ------
    DegenerateParameters
        If a is (numerically) zero; the derived t3 divides by it.
    ValueError
        If (a, b, c) is not a nonnegative unit vector or t1, t2 < 0.
    """
    if a < 1e-8:
        raise DegenerateParameters(f"a = {a}; the derived amplitude divides by a")
    if b < 0 or c < 0:
        raise ValueError("b and c must be nonnegative")
    if abs(a * a + b * b + c * c - 1.0) > 1e-10:
        raise ValueError("(a, b, c) must be a unit vector")
    if t1 < 0 or t2 < 0:
        raise ValueError("t1 and t2 must be nonnegative")
    return ThreeQubitFamily(a, b, c, g_amp, t1, t2, bloch)


def three_qubit_state(fam: ThreeQubitFamily) -> RankTwoState:
    """Assemble the three-qubit family member.

    phi1 is renormalized after t3 is derived; orthogonality to phi0 is exact
    because their computational supports are disjoint.
    """
    v0 = np.zeros(8, dtype=complex)
    v0[0b001], v0[0b010], v0[0b100] = fam.a, fam.b, fam.c
    v1 = np.zeros(8, dtype=complex)
    v1[0b000], v1[0b011], v1[0b101], v1[0b110] = fam.g_amp, fam.t1, fam.t2, fam.t3
    return make_rank_two(pure_state(v0), pure_state(v1 / np.linalg.norm(v1)), fam.bloch)


def sqrt_tangle_formula(fam: ThreeQubitFamily) -> float:
    """Closed square-root tangle of the family member.

    2 (1 - r cos theta) (sqrt(c t1) + sqrt(b t2)) sqrt(g t1 t2 / a) / S
    with S = g^2 + t1^2 + t2^2 + t3^2. Equivalent to the generic one-root
    evaluation (1/2)(1 - r cos theta) E(phi1-hat): the surviving invariant
    monomial of phi1 is g t1 t2 t3, and t3 contributes the bracket via its
    defining constraint.
    """
    s = np.sqrt(fam.c * fam.t1) + np.sqrt(fam.b * fam.t2)
    scale = fam.g_amp ** 2 + fam.t1 ** 2 + fam.t2 ** 2 + fam.t3 ** 2
    b = fam.bloch
    return float(2.0 * (1.0 - b.r * np.cos(b.theta)) * s
                 * np.sqrt(fam.g_amp * fam.t1 * fam.t2 / fam.a) / scale)


def random_three_qubit_family(rng=None) -> ThreeQubitFamily:
    """Generic canonical member: g is drawn above max(t1, t2, t3)."""
    rng = np.random.default_rng(rng)
    t1, t2 = rng.uniform(0.05, 0.6, 2)
    w = rng.uniform(0.35, 1.0, 3)
    w /= np.linalg.norm(w)
    a, b, c = w
    t3 = (np.sqrt(c * t1) + np.sqrt(b * t2)) ** 2 / a
    g = rng.uniform(1.0, 2.0) * max(t1, t2, t3)
    bloch = bloch_vector(rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi),
                         rng.uniform(0.0, 2.0 * np.pi))
    return three_qubit_family(a, b, c, g, t1, t2, bloch)


# ---- four-qubit class generators ----


def generator(mu: int, params=()) -> PureState:
    """Normalized generator of four-qubit SLOCC class ``mu``.

    Only the classes with one-root marginals are cataloged: mu = 4 takes
    complex (a, b), mu = 5 takes (a,), mu = 7 and 8 are parameter-free.
    Real parts of parameters must be nonnegative (the opposite sign is the
    same state up to a local phase).

    Raises
    ------
    UnsupportedClass
        For any other class index.
    ValueError
        On wrong parameter count or negative real parts.
    """
    if mu not in _PARAM_COUNT:
        raise UnsupportedClass(f"class {mu} has no cataloged generator")
    params = tuple(complex(p) for p in params)
    if len(params) != _PARAM_COUNT[mu]:
        raise ValueError(f"class {mu} takes {_PARAM_COUNT[mu]} parameters, "
                         f"got {len(params)}")
    if any(p.real < 0 for p in params):
        raise ValueError("parameters must have nonnegative real part")
    v = np.zeros(16, dtype=complex)
    if mu == 4:
        a, b = params
        v[0b0000] = v[0b1111] = a
        v[0b0101] = v[0b1010] = (a + b) / 2.0
        v[0b0110] = v[0b1001] = (a - b) / 2.0
        v[[0b0001, 0b0010, 0b0111, 0b1011]] = 1j / np.sqrt(2.0)
    elif mu == 5:
        (a,) = params
        v[[0b0000, 0b0101, 0b1010, 0b1111]] = a
        v[0b0001] = 1j
        v[0b0110] = 1.0
        v[0b1011] = -1j
    elif mu == 7:
        v[[0b0000, 0b0101, 0b1000, 0b1110]] = 1.0
    else:
        v[[0b0000, 0b1011, 0b1101, 0b1110]] = 1.0
    return pure_state(v / np.linalg.norm(v))


@dataclass(frozen=True)
class SloccClass:
    """A cataloged class: its index, parameters, generator, and the traced
    qubits that yield one-root marginals."""

    mu: int
    params: tuple[complex, ...]
    generator: PureState
    traceable: frozenset[int]


def slocc_class(mu: int, params=()) -> SloccClass:
    return SloccClass(mu, tuple(complex(p) for p in params),
                      generator(mu, params), TRACEABLE[mu])


def expected_one_root(mu: int, k: int) -> bool:
    return k in TRACEABLE.get(mu, frozenset())


def random_slocc(seed, kappa: float = 1.0) -> SloccOperator:
    """Random determinant-1 local operator on four qubits.

    Each factor is a complex Gaussian 2x2 matrix rescaled to unit
    determinant, redrawn while its condition number exceeds the cap (badly
    conditioned factors push marginals toward rank deficiency).

    ``seed`` may be an integer or a Generator to draw from.

    Raises
    ------
    SamplingFailed
        If a factor keeps failing the condition cap within the budget.
    """
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(4):
        for _ in range(TOL.resample_cap):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            det = np.linalg.det(z)
            if abs(det) < 1e-8:
                continue
            f = z / np.sqrt(det)
            if np.linalg.cond(f) <= TOL.cond_cap:
                factors.append(f)
                break
        else:
            raise SamplingFailed("no well-conditioned determinant-1 factor found")
    return slocc_operator(factors, kappa)


def identity_slocc(n: int = 4, kappa: float = 1.0) -> SloccOperator:
    return slocc_operator([np.eye(2, dtype=complex)] * n, kappa)


def slocc_marginal(mu: int, params, op: SloccOperator, k: int) -> RankTwoState:
    """Marginal of L|G_mu> after tracing out qubit k, as a RankTwoState.

    The marginal of a pure four-qubit state over one qubit has rank at most
    two, so the eigendecomposition is exact; RankTooHigh from it signals a
    numerically degenerate ``op`` and means the draw should be resampled.
    """
    vec = apply_slocc(op, generator(mu, params))
    vec = vec / np.linalg.norm(vec)
    dm = density_matrix(np.outer(vec, vec.conj()))
    return eigen_decompose_rank2(partial_trace(dm, k))


# ---- class scans ----


@dataclass(frozen=True)
class ScanRow:
    """One certified marginal: where it came from and what came out.

    n_root_clusters = -1 marks a marginal without a root count: its span
    lies entirely inside the zero set of the measure, or its certification
    raised. Such rows are negatives (one_root = False). The class-7 qubit-1
    marginal vanishes on its span for every local operator.
    """

    mu: int
    k: int
    seed: int
    n_root_clusters: int
    one_root: bool
    closed_form_value: float | None
    oracle_value: float | None
    abs_diff: float | None


def _draw_params(mu: int, rng: np.random.Generator) -> tuple[complex, ...]:
    """Generic class parameters, rejecting known degeneracy loci."""
    if mu not in _PARAM_COUNT:
        raise UnsupportedClass(f"class {mu} has no cataloged generator")
    margin = TOL.degeneracy_margin
    for _ in range(TOL.resample_cap):
        if mu == 4:
            a = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            b = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            if min(abs(a), abs(b), abs(a - b), abs(a + b)) < margin:
                continue
            return (a, b)
        if mu == 5:
            a = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
            if abs(a) < margin:
                continue
            return (a,)
        return ()
    raise SamplingFailed(f"no generic parameters for class {mu} within budget")


def scan_classes(mus=(4, 5, 7, 8), draws: int = 20, base_seed: int = 0,
                 with_slocc: bool = False, with_oracle: bool = False,
                 config: OptimizerConfig | None = None) -> list[ScanRow]:
    """Certify class marginals over parameter draws; one row per (mu, k, draw).

    Row seeds are reconstructible: base_seed*10000 + mu*1000 + k*100 + draw,
    which also makes the output deterministic and sortable. Each row draws
    fresh generic parameters; ``with_slocc`` additionally conjugates by a
    random determinant-1 local operator before tracing. ``with_oracle`` runs
    the brute-force roof per row (slow) and reports the difference against
    the closed form where the latter exists.
    """
    if not 0 < draws <= 100:
        raise ValueError("draws must lie in 1..100 to keep row seeds unique")
    rows = []
    for mu in sorted(mus):
        if mu not in _PARAM_COUNT:
            raise UnsupportedClass(f"class {mu} has no cataloged generator")
        for k in (1, 2, 3, 4):
            for draw in range(draws):
                row_seed = base_seed * 10000 + mu * 1000 + k * 100 + draw
                rng = np.random.default_rng(row_seed)
                params = _draw_params(mu, rng)
                op = random_slocc(rng) if with_slocc else identity_slocc()
                state = slocc_marginal(mu, params, op, k)
                try:
                    cert = certify(state, SQRT_THREE_TANGLE)
                    clusters, one_root = cert.n_clusters, cert.one_root
                except OneRootError:
                    # one row without a verdict must not abort the scan
                    cert, clusters, one_root = None, -1, False
                closed = (closed_form(state, cert).value if one_root else None)
                oracle_value = abs_diff = None
                if with_oracle:
                    cfg = replace(config or OptimizerConfig(), seed=row_seed)
                    oracle_value = oracle_minimize(
                        state, SQRT_THREE_TANGLE, cfg).value
                    if closed is not None:
                        abs_diff = abs(closed - oracle_value)
                rows.append(ScanRow(mu, k, row_seed, clusters, one_root,
                                    closed, oracle_value, abs_diff))
    return rows


def scan_table_verdict(rows) -> tuple[bool, list[str]]:
    """Compare scan rows against the expected traceability table.

    Returns (ok, complaints); a complaint names the row and what went wrong.
    Expected-negative rows must show more than one root cluster, expected-
    positive rows must certify.
    """
    complaints = []
    for row in rows:
        want = expected_one_root(row.mu, row.k)
        if row.one_root != want:
            complaints.append(
                f"mu={row.mu} k={row.k} seed={row.seed}: one_root={row.one_root}, "
                f"expected {want} (clusters={row.n_root_clusters})")
    return not complaints, complaints
