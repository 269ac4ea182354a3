"""Exact evolution of pulse programs under the model Hamiltonians.

The phase is piecewise constant by construction, so the evolution operator
is the ordered product of per-segment matrix exponentials; no ODE stepping
and no time-discretization error anywhere.  In the qubit-slow basis every
model obeys ``H(phase) = R H(0) R^dag`` with the diagonal frame
``R = diag(1_g, e^{i phase} 1_e)``, so one eigendecomposition
``H(0) = V diag(lam) V^dag`` serves every segment of every phase.

That eigendecomposition is real.  Every model builds its motional terms
from ``a + a^dag``, ``a^dag^2 + a^2`` and ``n`` (real matrices) and, in the
full model, from the displacement ``exp(i eta (a + a^dag))``, whose
``(m, n)`` entry is ``i^|m-n|`` times a real number.  The only imaginary
qubit factor, the ``sigma_y`` of the expanded models' quadrature, multiplies
``a + a^dag``, which links levels one apart.  So in every model
``<m|H(0)|n> = i^|m-n|`` times a real number, for either qubit block, and the
diagonal gauge ``G = 1_2 (x) diag(i^m)`` makes ``G^dag H(0) G`` real
symmetric: its ``(m, n)`` entry gains ``i^(n-m)``, and ``i^(n-m+|m-n|)`` is
``+-1``.  With the real ``eigh`` ``G^dag H(0) G = V_r diag(lam) V_r^T`` the
eigenvectors of ``H(0)`` are ``V = G V_r``.

:func:`evolve` steps in that eigenbasis.  With ``D_k = diag(e^{-i lam tau_k})``
the product of segments 1..n is ``U = (R_n G V_r) A_n`` where

    A_1 = D_1 V_r^T G^dag R_1^dag,    A_k = D_k (A_{k-1} + c_k P A_{k-1}),

``c_k = e^{-i(phase_k - phase_{k-1})} - 1`` and ``P = V_{r,e}^T V_{r,e}`` is
the projector onto the excited block (``V_{r,e}`` the excited rows of
``V_r``), since ``V^dag R_k^dag R_{k-1} V = I + c_k P`` and the diagonal
``G`` commutes with ``R`` and drops out of ``P``.  A phase jump is a
projector update, so each segment costs one matrix product, and ``P`` is
real: it acts on the real and imaginary parts of ``A_{k-1}`` at once, as
one real product with the float view of the complex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import SystemParams, hamiltonian
from .operators import IDENT_2, SIGMA_X, SIGMA_Y, unitarity_defect
from .pulse import PulseProgram
from .toggling import evaluate_controls

__all__ = ["Propagation", "evolve", "evolve_qubit", "su2_rotation"]

#: Frobenius bound on ||U^dag U - I|| for any returned propagator.
UNITARITY_TOL = 1e-10

#: Bound on the imaginary part of the gauged H(0), relative to max|H(0)|.
REALITY_TOL = 1e-12

#: The powers i^m, indexed by m mod 4: a table, so exact for every m.
_I_POWERS = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=16)
def _gauge(truncation: int) -> np.ndarray:
    """The diagonal of ``G = 1_2 (x) diag(i^m)``, built once per truncation, read-only."""
    gauge = np.tile(_I_POWERS[np.arange(truncation + 1) % 4], 2)
    gauge.flags.writeable = False
    return gauge


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
    docstring: one real ``eigh`` of the gauged ``G^dag H(0) G`` per call and
    one real matrix product per segment (``P A_{k-1}`` on the float view of
    ``A_{k-1}``), plus the final change of basis ``(R_n G) V_r A_n``.  A
    gauged ``H(0)`` whose imaginary part exceeds ``REALITY_TOL * max|H|`` (a
    model term that breaks the gauge) raises ``ArithmeticError``.  The result
    is checked against the unitarity budget (1e-10 Frobenius) and a
    violation, or a non-finite operator, raises ``ArithmeticError``.
    """
    h = hamiltonian(params, 0.0, model)
    gauge = _gauge(params.truncation)
    gauged = gauge.conj()[:, None] * h * gauge
    residue = np.abs(gauged.imag).max()
    if not residue <= REALITY_TOL * np.abs(h).max():
        raise ArithmeticError(
            f"gauged H(0) is not real: imaginary part {residue:.3e} exceeds "
            f"{REALITY_TOL:.0e} * max|H|"
        )
    vals, vecs = np.linalg.eigh(gauged.real)
    excited = slice(params.truncation + 1, None)
    if pulse.segments:
        durations, phases = np.array(pulse.segments).T
        decays = np.exp(-1j * np.multiply.outer(durations, vals))
        frame = np.ones(params.dim, dtype=complex)
        frame[excited] = np.exp(-1j * phases[0])
        # C-contiguous, so that its float view interleaves real and imaginary parts
        state = np.ascontiguousarray(
            np.multiply.outer(decays[0], frame * gauge.conj()) * vecs.T
        )
        if len(phases) > 1:
            proj = vecs[excited].T @ vecs[excited]
            jumps = np.expm1(-1j * np.diff(phases))
            for decay, jump in zip(decays[1:], jumps):
                kick = (proj @ state.view(np.float64)).view(np.complex128)
                state = decay[:, None] * (state + jump * kick)
        frame[excited] = np.exp(1j * phases[-1])
        basis = (vecs @ state.view(np.float64)).view(np.complex128)
        total = (frame * gauge)[:, None] * basis
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
