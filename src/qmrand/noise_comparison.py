"""Single-noise versus shared-noise comparison for qubit devices.

``delta`` is the Born-rule-preserving total noise: applying depolarizing
noise eps to both the state and the measurement reproduces the statistics of
a single device with noise delta = eps (2 - eps).  The single-noise curve is
Eve's optimal guessing probability; the shared-noise curve is the explicit
lower bound from the joint decomposition, with a perfect-guessing plateau
from delta = 1/2 onwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DomainError


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must be in [0, 1], got {delta}")


def delta_to_epsilon(delta: float) -> float:
    """Invert delta = eps (2 - eps): eps = 1 - sqrt(1 - delta)."""
    _check_delta(delta)
    return float(1.0 - np.sqrt(1.0 - delta))


def single_noise_curve(delta: float) -> float:
    """Optimal guessing probability with all noise on one device."""
    _check_delta(delta)
    return float(0.5 * (1.0 + np.sqrt(delta * (2.0 - delta))))


def shared_noise_lower_bound(delta: float) -> float:
    """Eve's guessing probability with the noise split evenly across devices.

    (1 + 2 sqrt(delta (1 - delta))) / 2 below delta = 1/2, then exactly 1.
    A lower bound: the paper's joint decomposition realizes it, but no
    matching converse is known below the plateau.
    """
    _check_delta(delta)
    if delta >= 0.5:
        return 1.0
    return float(0.5 * (1.0 + 2.0 * np.sqrt(delta * (1.0 - delta))))


@dataclass(frozen=True)
class NoiseCurvePoint:
    delta: float
    single_noise_pguess: float
    shared_noise_lower_bound: float

    def __post_init__(self):
        if self.shared_noise_lower_bound < self.single_noise_pguess - 1e-12:
            raise DomainError("shared-noise bound must dominate the single-noise value")


def sweep_curves(grid) -> list[NoiseCurvePoint]:
    """Tabulate both curves on a delta grid."""
    points = []
    for delta in grid:
        delta = float(delta)
        points.append(
            NoiseCurvePoint(
                delta=delta,
                single_noise_pguess=single_noise_curve(delta),
                shared_noise_lower_bound=shared_noise_lower_bound(delta),
            )
        )
    return points
