"""Exact evolution of pulse programs under the model Hamiltonians.

The phase is piecewise constant by construction, so the evolution operator
is the ordered product of per-segment matrix exponentials; no ODE stepping
and no time-discretization error anywhere.  In the qubit-slow basis every
model obeys ``H(phase) = R H(0) R^dag`` with the diagonal frame
``R = diag(1_g, e^{i phase} 1_e)``, so one eigendecomposition
``H(0) = V diag(lam) V^dag`` serves every segment of every phase.

:func:`evolve` steps in that eigenbasis.  With ``D_k = diag(e^{-i lam tau_k})``
the product of segments 1..n is ``U = (R_n V) A_n`` where

    A_1 = D_1 V^dag R_1^dag,    A_k = D_k (A_{k-1} + c_k P A_{k-1}),

``c_k = e^{-i(phase_k - phase_{k-1})} - 1`` and ``P = V_e^dag V_e`` is the
projector onto the excited block (``V_e`` the excited rows of ``V``), since
``V^dag R_k^dag R_{k-1} V = I + c_k P``.  A phase jump is a projector update,
so each segment costs one matrix product.
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

    The product is time ordered with the earliest segment rightmost.  It is
    accumulated in the eigenbasis of ``H(0)`` by the recurrence of the module
    docstring: one ``eigh`` per call and one matrix product per segment
    (``P A_{k-1}``), plus the final change of basis ``(R_n V) A_n``.  The
    result is checked against the unitarity budget (1e-10 Frobenius) and a
    violation, or a non-finite operator, raises ``ArithmeticError``.
    """
    vals, vecs = np.linalg.eigh(hamiltonian(params, 0.0, model))
    excited = slice(params.truncation + 1, None)
    if pulse.segments:
        durations, phases = np.array(pulse.segments).T
        decays = np.exp(-1j * np.multiply.outer(durations, vals))
        frame = np.ones(params.dim, dtype=complex)
        frame[excited] = np.exp(-1j * phases[0])
        state = np.multiply.outer(decays[0], frame) * vecs.conj().T
        if len(phases) > 1:
            proj = vecs[excited].conj().T @ vecs[excited]
            jumps = np.expm1(-1j * np.diff(phases))
            for decay, jump in zip(decays[1:], jumps):
                state = decay[:, None] * (state + jump * (proj @ state))
        frame[excited] = np.exp(1j * phases[-1])
        total = (frame[:, None] * vecs) @ state
    else:
        total = np.eye(params.dim, dtype=complex)
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
