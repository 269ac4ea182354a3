"""Exact evolution of pulse programs under the model Hamiltonians.

The phase is piecewise constant by construction, so the evolution operator
is the ordered product of per-segment matrix exponentials; no ODE stepping
and no time-discretization error anywhere.  In the qubit-slow basis every
model obeys ``H(phase) = R H(0) R^dag`` with the diagonal frame
``R = diag(1_g, e^{i phase} 1_e)``, so one eigendecomposition of ``H(0)``
serves every segment of every phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, hamiltonian
from .operators import IDENT_2, SIGMA_X, SIGMA_Y, unitarity_defect
from .pulse import PulseProgram
from .toggling import evaluate_controls

__all__ = ["Propagation", "evolve", "evolve_qubit", "su2_rotation"]

#: Frobenius bound on ||U^dag U - I|| for any returned propagator.
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Propagation:
    """Evolution operator of a pulse under one of the models."""

    operator: np.ndarray
    model: str
    params: SystemParams
    pulse: PulseProgram

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


def evolve(params: SystemParams, pulse: PulseProgram, model: str = "full") -> Propagation:
    """Propagate ``pulse`` under the chosen Hamiltonian model.

    The product is time ordered with the earliest segment rightmost.  The
    result is checked against the unitarity budget (1e-10 Frobenius) and a
    violation, or a non-finite operator, raises ``ArithmeticError``.
    """
    vals, vecs = np.linalg.eigh(hamiltonian(params, 0.0, model))
    frame = np.ones(params.dim, dtype=complex)
    total = np.eye(params.dim, dtype=complex)
    for duration, phase in pulse.segments:
        # H(phase) = R H(0) R^dag has the eigenvectors R @ vecs
        frame[params.truncation + 1 :] = np.exp(1j * phase)
        rotated = frame[:, None] * vecs
        step = (rotated * np.exp(-1j * vals * duration)) @ rotated.conj().T
        total = step @ total
    defect = unitarity_defect(total)
    if not defect <= UNITARITY_TOL:
        raise ArithmeticError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.0e}"
        )
    return Propagation(operator=total, model=model, params=params, pulse=pulse)


def su2_rotation(angle: float, phase: float) -> np.ndarray:
    """Rotation ``exp(-i angle/2 (cos(phase) sx + sin(phase) sy))``."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    axis = math.cos(phase) * SIGMA_X + math.sin(phase) * SIGMA_Y
    return c * IDENT_2 - 1j * s * axis


def evolve_qubit(
    pulse: PulseProgram,
    eta_correction: bool = False,
    eta: float = 0.0,
) -> np.ndarray:
    """Ideal-qubit propagator of a pulse: the segment product of
    :func:`~mipulse.toggling.evaluate_controls`.

    Segments rotate at ``kappa * rabi`` with ``kappa = 1 - eta^2/2`` when
    ``eta_correction`` is set (the second-order slowdown of the drive) and 1
    otherwise.
    """
    kappa = 1 - 0.5 * eta**2 if eta_correction else 1.0
    return evaluate_controls(pulse.phases, pulse.durations, pulse.rabi, 0.0, kappa, ())[0]
