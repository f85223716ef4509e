"""JSON wire formats used by the CLI.

Matrices are ``{"dim": d, "entries": [[[re, im], ...], ...]}`` (row-major),
POVMs ``{"dim": d, "elements": [<matrix>, ...]}``, states
``{"dim": d, "amplitudes": [[re, im], ...]}``, and decompositions
``{"dim": d, "outcomes": m, "subpovms": n, "K": [[<matrix>, ...], ...]}``.
All emitted numbers, the CLI's CSV output included, carry 12 significant
digits.
"""

from __future__ import annotations

import json

import numpy as np

from .decompositions import Decomposition
from .linalg import ValidationError, as_operator
from .povm import Povm, PureState

SIGNIFICANT_DIGITS = 12

# What a malformed file raises while it is read: a missing key, a wrong type or
# length, or a count such as "abc" or Infinity that int() rejects.
_MALFORMED = (KeyError, TypeError, IndexError, ValueError, OverflowError)


def round_floats(obj):
    """Recursively round floats to the emitted precision."""
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dumps(obj) -> str:
    return json.dumps(round_floats(obj), indent=2)


def _complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "dim": M.shape[0],
        "entries": [[_complex_pair(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        entries = data["entries"]
        M = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in entries], dtype=complex
        )
    except _MALFORMED as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    return as_operator(M, dim=dim)


def povm_to_json(povm: Povm) -> dict:
    return {"dim": povm.dim, "elements": [matrix_to_json(E) for E in povm.elements]}


def povm_from_json(data: dict) -> Povm:
    try:
        elements = [matrix_from_json(e) for e in data["elements"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed POVM JSON: {exc}") from exc
    return Povm(elements)


def state_to_json(state: PureState) -> dict:
    return {"dim": state.dim, "amplitudes": [_complex_pair(a) for a in state.amplitudes]}


def state_from_json(data: dict) -> PureState:
    try:
        amp = np.array([complex(a[0], a[1]) for a in data["amplitudes"]], dtype=complex)
        dim = int(data.get("dim", len(amp)))
    except _MALFORMED as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from exc
    if dim != len(amp):
        raise ValidationError("state dim field disagrees with amplitude count")
    return PureState(amp)


def decomposition_to_json(decomp: Decomposition) -> dict:
    return {
        "dim": decomp.dim,
        "outcomes": decomp.num_outcomes,
        "subpovms": decomp.num_subpovms,
        "K": [
            [matrix_to_json(decomp.K[x, j]) for j in range(decomp.num_subpovms)]
            for x in range(decomp.num_outcomes)
        ],
    }


def decomposition_from_json(data: dict) -> Decomposition:
    try:
        m, n, d = int(data["outcomes"]), int(data["subpovms"]), int(data["dim"])
        K = np.zeros((m, n, d, d), dtype=complex)
        for x in range(m):
            for j in range(n):
                K[x, j] = matrix_from_json(data["K"][x][j])
    except ValidationError:
        raise
    except _MALFORMED as exc:   # a block of the wrong shape included
        raise ValidationError(f"malformed decomposition JSON: {exc}") from exc
    return Decomposition(K)
