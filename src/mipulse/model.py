"""Hamiltonians of a laser-driven optical qubit coupled to one trap axis.

Three builders are provided, all returning dense Hermitian matrices on the
2(M+1)-dimensional composite space (hbar = 1, frequencies in rad/s):

* ``full_hamiltonian``     - the untruncated laser-atom coupling with the
  displacement operator ``exp(i eta (a^dag + a))`` and optional static
  detuning / Rabi-frequency offsets,
* ``lamb_dicke_hamiltonian``   - expansion to first order in eta,
* ``second_order_hamiltonian`` - expansion to second order in eta, with the
  (1 - eta^2/2) slowdown of the qubit drive and the occupation-dependent
  coupling term.

The instantaneous laser phase ``phase`` is the only control variable.

A sweep over the trap-to-drive ratio builds hundreds of systems that differ
only in the trap frequency, so everything else is built once and shared
read-only: the Fock ladder (per truncation, in :mod:`.operators`), the
full model's displacement operator (per eta and truncation), and the
expanded models' static part, every term but ``I (x) omega n``, per exact
bits of (phase, rabi, eta) and truncation.  The trap term is last in both
expanded sums and is added to the cached static part in that order, so
each call returns a fresh array with the bits of the written left-to-right
sum.  ``full_hamiltonian`` assembles its blocks on every call: its offset
``delta_rabi`` changes at every point of an offset map, and regrouping its
terms could flip the signs of zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import (
    IDENT_2,
    SIGMA_X,
    SIGMA_Y,
    FockOperators,
    build_fock,
    displacement_coupling,
    tensor,
)

__all__ = [
    "SystemParams",
    "QubitPair",
    "qubit_pair",
    "full_hamiltonian",
    "lamb_dicke_hamiltonian",
    "second_order_hamiltonian",
    "hamiltonian",
    "MODELS",
]

#: Recognized Hamiltonian models, in increasing order of approximation.
MODELS = ("full", "lamb_dicke", "second_order")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of a single trapped atom under laser drive.

    Attributes
    ----------
    omega : float
        Trap frequency in rad/s.
    rabi : float
        Rabi frequency of the drive in rad/s.
    eta : float
        Lamb-Dicke parameter (dimensionless, ``0 <= eta < 1``).
    truncation : int
        Number of retained excited motional levels M.
    delta_detuning, delta_rabi : float
        Static laser inhomogeneity offsets (rad/s); they enter only the
        full Hamiltonian.
    """

    omega: float
    rabi: float
    eta: float = 0.2156
    truncation: int = 20
    delta_detuning: float = 0.0
    delta_rabi: float = 0.0

    def __post_init__(self):
        for name in ("omega", "rabi", "delta_detuning", "delta_rabi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.rabi <= 0:
            raise ValueError(f"rabi must be > 0, got {self.rabi}")
        if not 0 <= self.eta < 1:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    @classmethod
    def default(cls, **overrides) -> "SystemParams":
        """Default profile: 100 kHz trap, 20 kHz drive, eta = 0.2156, M = 20."""
        base = dict(omega=2 * math.pi * 100e3, rabi=2 * math.pi * 20e3)
        base.update(overrides)
        return cls(**base)

    @property
    def ratio(self) -> float:
        """Trap-to-drive frequency ratio omega/rabi."""
        return self.omega / self.rabi

    @property
    def dim(self) -> int:
        return 2 * (self.truncation + 1)

    def with_truncation(self, truncation: int) -> "SystemParams":
        return replace(self, truncation=truncation)

    def fock(self) -> FockOperators:
        return build_fock(self.truncation)


class QubitPair(NamedTuple):
    """In-plane drive operator and its quadrature, both 2x2 Hermitian."""

    drive: np.ndarray
    quad: np.ndarray


def qubit_pair(phase: float, rabi: float) -> QubitPair:
    """Qubit drive ``(rabi/2)(cos(phase) sx + sin(phase) sy)`` and quadrature.

    The quadrature ``(rabi/2)(cos(phase) sy - sin(phase) sx)`` is the drive
    rotated by 90 degrees in the equatorial plane; it generates the
    motional coupling.  ``Tr(drive @ quad) = 0`` for every phase.
    """
    c, s = math.cos(phase), math.sin(phase)
    half = 0.5 * rabi
    drive = half * (c * SIGMA_X + s * SIGMA_Y)
    quad = half * (c * SIGMA_Y - s * SIGMA_X)
    return QubitPair(drive=drive, quad=quad)


@lru_cache(maxsize=64)
def _displacement(eta: float, truncation: int) -> np.ndarray:
    """``displacement_coupling`` at (eta, M), built once and read-only.

    It depends on nothing else, so an offset map or a sweep at fixed eta
    and M exponentiates it once instead of once per Hamiltonian.
    """
    disp = displacement_coupling(eta, build_fock(truncation))
    disp.flags.writeable = False
    return disp


def full_hamiltonian(params: SystemParams, phase: float) -> np.ndarray:
    """Exact driven Hamiltonian with displacement coupling and offsets.

    Returns ``dDelta |e><e| (x) I + ((rabi+dOmega)/2)(|e><g| (x) D e^{i phase}
    + h.c.) + I (x) omega n`` where ``D = exp(i eta (a^dag + a))``.
    """
    fock = params.fock()
    dim_m = fock.dim
    disp = _displacement(params.eta, params.truncation)
    h = np.zeros((2 * dim_m, 2 * dim_m), dtype=complex)
    coupling = 0.5 * (params.rabi + params.delta_rabi) * np.exp(1j * phase) * disp
    # qubit-slow blocks: [g,g] [g,e] / [e,g] [e,e]
    h[dim_m:, :dim_m] = coupling
    h[:dim_m, dim_m:] = coupling.conj().T
    trap = params.omega * fock.number
    h[:dim_m, :dim_m] += trap
    h[dim_m:, dim_m:] += trap + params.delta_detuning * np.eye(dim_m)
    return h


@lru_cache(maxsize=16)
def _static_part(model: str, phase: str, rabi: str, eta: str, truncation: int) -> np.ndarray:
    """Every term of an expanded model but the trap term, built once, read-only.

    Keyed on exact bits: the floats as ``float.hex``, so 0.0 and -0.0 (and
    values one ulp apart) get their own entries.  The terms are summed left
    to right, as the docstrings write them.
    """
    phase, rabi, eta = float.fromhex(phase), float.fromhex(rabi), float.fromhex(eta)
    fock = build_fock(truncation)
    drive, quad = qubit_pair(phase, rabi)
    if model == "lamb_dicke":
        static = tensor(drive, np.eye(fock.dim)) + eta * tensor(quad, fock.position)
    else:
        two_quanta = fock.raise_ @ fock.raise_ + fock.lower @ fock.lower
        static = (
            (1 - 0.5 * eta**2) * tensor(drive, np.eye(fock.dim))
            + eta * tensor(quad, fock.position)
            - 0.5 * eta**2 * tensor(drive, two_quanta)
            - eta**2 * tensor(drive, fock.number)
        )
    static.flags.writeable = False
    return static


def _expanded(model: str, params: SystemParams, phase: float) -> np.ndarray:
    """The cached static part plus the trap term, as a fresh array.

    The trap term is the last one of the sum, so adding it to the static
    part repeats the left-to-right order of the written sum: same bits.
    """
    static = _static_part(
        model,
        float(phase).hex(),
        float(params.rabi).hex(),
        float(params.eta).hex(),
        params.truncation,
    )
    return static + tensor(IDENT_2, params.omega * params.fock().number)


def lamb_dicke_hamiltonian(params: SystemParams, phase: float) -> np.ndarray:
    """First order in eta: ``drive (x) I + eta quad (x) (a^dag + a) + I (x) omega n``."""
    return _expanded("lamb_dicke", params, phase)


def second_order_hamiltonian(params: SystemParams, phase: float) -> np.ndarray:
    """Second order in eta.

    The drive acquires the (1 - eta^2/2) slowdown; the coupling adds the
    two-quantum term -(eta^2/2) drive (x) (a^dag^2 + a^2) and the
    occupation-dependent term -eta^2 drive (x) n::

        (1 - eta^2/2) drive (x) I + eta quad (x) (a^dag + a)
        - (eta^2/2) drive (x) (a^dag^2 + a^2) - eta^2 drive (x) n + I (x) omega n
    """
    return _expanded("second_order", params, phase)


_BUILDERS = {
    "full": full_hamiltonian,
    "lamb_dicke": lamb_dicke_hamiltonian,
    "second_order": second_order_hamiltonian,
}


def hamiltonian(params: SystemParams, phase: float, model: str) -> np.ndarray:
    """Dispatch to one of the builders by model name."""
    try:
        builder = _BUILDERS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}") from None
    return builder(params, phase)
