"""JSON state files and certificate serialization for the CLI.

Complex numbers are [re, im] pairs. The three state kinds are told apart by
their keys: "amps" (pure state), "mat" (density matrix), "phi0"/"phi1"/
"bloch" (rank-2 state). Writers always include "m" for readability; readers
cross-check it when present.
"""

from __future__ import annotations

import json

import numpy as np

from .qstate import (
    DensityMatrix,
    PureState,
    RankTwoState,
    bloch_vector,
    density_matrix,
    make_rank_two,
    pure_state,
)
from .zeropolytope import RootCertificate


def _c2pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vec_out(v: np.ndarray) -> list[list[float]]:
    return [_c2pair(z) for z in np.asarray(v).ravel()]


def _vec_in(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("amplitude list must be [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def state_to_dict(state) -> dict:
    if isinstance(state, PureState):
        return {"m": state.m, "amps": _vec_out(state.amps)}
    if isinstance(state, DensityMatrix):
        return {"m": state.m, "mat": [_vec_out(row) for row in state.mat]}
    if isinstance(state, RankTwoState):
        b = state.bloch
        return {"m": state.m,
                "phi0": _vec_out(state.phi0.amps),
                "phi1": _vec_out(state.phi1.amps),
                "bloch": {"r": b.r, "theta": b.theta, "phi": b.phi}}
    raise TypeError(f"unsupported state type {type(state).__name__}")


def state_from_dict(data: dict):
    """Rebuild a state; the key set decides the kind.

    Raises ValueError on malformed input (unknown shape, bad pairs, or an
    "m" that disagrees with the data); underlying constructors contribute
    their own validation errors.
    """
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    if "amps" in data:
        state = pure_state(_vec_in(data["amps"]))
    elif "mat" in data:
        rows = [_vec_in(row) for row in data["mat"]]
        state = density_matrix(np.stack(rows))
    elif {"phi0", "phi1", "bloch"} <= set(data):
        b = data["bloch"]
        state = make_rank_two(pure_state(_vec_in(data["phi0"])),
                              pure_state(_vec_in(data["phi1"])),
                              bloch_vector(b["r"], b["theta"], b["phi"]))
    else:
        raise ValueError('state object needs "amps", "mat", or "phi0"/"phi1"/"bloch"')
    if "m" in data and int(data["m"]) != state.m:
        raise ValueError(f'file says m={data["m"]} but data describes m={state.m}')
    return state


def load_state(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_state(state, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")


def certificate_to_dict(cert: RootCertificate) -> dict:
    """JSON-stable certificate summary, root-cluster list included."""
    out = {
        "measure": cert.measure.name,
        "one_root": bool(cert.one_root),
        "n_root_clusters": cert.n_clusters,
        "polynomial": _vec_out(cert.polynomial.coeffs),
        "roots": [{"z": _c2pair(z), "multiplicity": int(mult)}
                  for z, mult in cert.roots],
    }
    if cert.one_root:
        out.update({
            "z": _c2pair(cert.z),
            "N": float(cert.N),
            "E_antipode": float(cert.E_antipode),
            "law_residual": float(cert.law_residual),
            "root_state": _vec_out(cert.root_state.amps),
            "antipode_state": _vec_out(cert.antipode_state.amps),
        })
    return out
