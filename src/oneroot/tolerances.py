"""Single home for every numerical tolerance the package uses.

Nothing else in the package hard-codes a threshold; tests reference these
fields by name so a tolerance change propagates everywhere at once.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # state validation
    norm_atol: float = 1e-12        # |  ||amps|| - 1  | on pure-state input
    herm_atol: float = 1e-12        # Hermiticity residual of density matrices
    trace_atol: float = 1e-12       # | tr(rho) - 1 |
    psd_floor: float = -1e-10       # most negative eigenvalue tolerated
    ortho_atol: float = 1e-10       # |<phi0|phi1>| on rank-2 bases
    rank_atol: float = 1e-10        # third eigenvalue ceiling for "rank 2"
    bloch_atol: float = 1e-12       # r may exceed 1 by at most this
    degenerate_gap: float = 1e-12   # spectral gap below which ordering is a tie-break
    phase_cut: float = 1e-8         # amplitude floor when picking the phase anchor

    # measures
    zero_vector: float = 1e-150     # hard floor for unnormalized evaluation
    slocc_det_atol: float = 1e-10   # |det(L_i) - 1| on SLOCC factors

    # zero polytope
    interp_rtol: float = 1e-10      # interpolation residual / max|c_j|
    coeff_floor: float = 1e-12      # coefficient significance / max|c_j|
    poly_floor: float = 1e-12       # max|c_j| below this means E vanishes on the span
    merge_model_rtol: float = 1e-7  # partition acceptance, coefficient residual
    recenter_radius: float = 5.0    # |root| beyond which certify re-gauges
    law_rtol: float = 1e-7          # distance-law residual / peak probe value
    law_probes: int = 32
    pole_min: float = 1e-10         # minimum E(phi1) for a pole-safe basis

    # convex roof
    weight_floor: float = 1e-14     # ensemble weights below this are dropped
    rank_deficient: float = 1e-12   # smaller eigenvalue floor for decompositions
    same_state_atol: float = 1e-8   # trace distance for "same density matrix"
    sphere_atol: float = 1e-10      # on-sphere / equidistance / barycenter checks

    # families
    cond_cap: float = 20.0          # condition-number ceiling for SLOCC factors
    degeneracy_margin: float = 1e-3 # rejection radius around degenerate parameters
    resample_cap: int = 100         # bounded resampling before SamplingFailed


TOL = Tolerances()
