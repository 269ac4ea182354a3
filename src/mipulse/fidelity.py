"""Gate fidelity for thermal atoms and the thermal-entanglement error bound.

The per-level fidelity averages the overlap of four probe states (the two
basis states and two equatorial superpositions, all at motional level m)
with their images under the target qubit rotation.  The thermal fidelity
weights these by the Boltzmann occupations of the trap levels.

A guard margin keeps the probed levels away from the truncation edge so
that recoil-induced leakage cannot masquerade as fidelity loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .propagate import Propagation, evolve, su2_rotation
from .pulse import PulseProgram

__all__ = [
    "GateTarget",
    "ThermalState",
    "FidelityReport",
    "TruncationError",
    "per_m_fidelity",
    "thermal_fidelity",
    "gate_error",
    "p0_from_temperature",
    "thermal_limit_exact",
    "thermal_limit_leading",
    "check_truncation",
]

# Exact SI values, so temperature conversions are bit-reproducible.
HBAR = 1.054571817e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J / K

#: Levels kept between the highest probed m and the truncation edge.
GUARD_MARGIN = 4


class TruncationError(ArithmeticError):
    """Raised when fidelities are not converged in the motional truncation."""


@dataclass(frozen=True)
class GateTarget:
    """Target rotation of ``theta`` about a transverse axis at ``axis_angle``."""

    theta: float
    axis_angle: float = 0.0

    def __post_init__(self):
        for name in ("theta", "axis_angle"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def unitary(self) -> np.ndarray:
        return su2_rotation(self.theta, self.axis_angle)


@dataclass(frozen=True)
class ThermalState:
    """Boltzmann occupations of the motional levels 0..truncation.

    ``weights[m]`` is proportional to ``(1-p0)^m`` and normalized over the
    retained levels, so the weights sum to 1 exactly by construction.
    """

    p0: float
    truncation: int

    def __post_init__(self):
        if not 0 < self.p0 <= 1:
            raise ValueError(f"p0 must be in (0, 1], got {self.p0}")

    @property
    def weights(self) -> np.ndarray:
        q = 1 - self.p0
        raw = q ** np.arange(self.truncation + 1, dtype=float)
        return raw / raw.sum()


def p0_from_temperature(temperature: float, omega: float) -> float:
    """Ground-level occupation ``1 - exp(-hbar omega / (kB T))``.

    Returns exactly 1 at zero temperature; negative temperatures are
    rejected.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        return 1.0
    return 1.0 - math.exp(-HBAR * omega / (K_BOLTZMANN * temperature))


#: The four probe states on span{|g,m>, |e,m>}, as coefficient columns.
_PROBES = np.array([[1, 0, 1, 1], [0, 1, 1, 1j]]) / np.sqrt([1, 1, 2, 2])


def _level_fidelities(operator: np.ndarray, dim_m: int, target: GateTarget, levels) -> np.ndarray:
    """Probe fidelity at each motional level in ``levels``.

    A probe at level m and its target image lie in span{|g,m>, |e,m>}, so
    only the 2x2 block of the operator on that pair enters.
    """
    m = np.asarray(levels)
    pair = np.stack([m, dim_m + m])
    blocks = operator[pair[:, None, :], pair[None, :, :]]
    overlaps = np.einsum(
        "ak,ba,bcl,ck->lk", _PROBES.conj(), target.unitary.conj(), blocks, _PROBES
    )
    return np.mean(np.abs(overlaps) ** 2, axis=1)


def _as_operator(u) -> tuple[np.ndarray, int]:
    operator = u.operator if isinstance(u, Propagation) else np.asarray(u)
    dim = operator.shape[0]
    if dim % 2 != 0:
        raise ValueError(f"propagator dimension {dim} is not 2*(M+1)")
    return operator, dim // 2


def per_m_fidelity(u, target: GateTarget, m: int, margin: int = GUARD_MARGIN) -> float:
    """Average probe-state fidelity of the gate at motional level ``m``.

    ``u`` may be a :class:`Propagation` or a raw 2(M+1)-dim unitary.  The
    level must satisfy ``m <= M - margin`` so leakage past the truncation
    edge stays representable.
    """
    operator, dim_m = _as_operator(u)
    truncation = dim_m - 1
    if not 0 <= m <= truncation - margin:
        raise ValueError(
            f"motional level {m} violates the guard margin "
            f"(need 0 <= m <= {truncation - margin} at truncation {truncation})"
        )
    return float(_level_fidelities(operator, dim_m, target, [m])[0])


@dataclass(frozen=True)
class FidelityReport:
    """Per-level fidelities and their Boltzmann-weighted average."""

    per_m: tuple[float, ...]
    thermal: float
    p0: float
    truncation: int

    @property
    def error(self) -> float:
        return 1.0 - self.thermal


def thermal_fidelity(u, target: GateTarget, p0: float, margin: int = GUARD_MARGIN) -> FidelityReport:
    """Boltzmann-weighted gate fidelity at ground-state occupation ``p0``.

    Levels are probed up to ``M - margin``; the excluded tail must carry
    negligible weight (< 1e-9), otherwise a :class:`TruncationError` asks
    for a larger truncation.
    """
    operator, dim_m = _as_operator(u)
    truncation = dim_m - 1
    thermal = ThermalState(p0=p0, truncation=truncation)
    weights = thermal.weights
    m_max = truncation - margin
    if m_max < 0:
        raise ValueError(f"truncation {truncation} is smaller than the margin {margin}")
    tail = float(weights[m_max + 1 :].sum())
    if tail > 1e-9:
        raise TruncationError(
            f"excluded thermal weight {tail:.3e} above levels {m_max} is not "
            f"negligible; increase the truncation"
        )
    per_m = tuple(_level_fidelities(operator, dim_m, target, range(m_max + 1)).tolist())
    total = float(np.dot(weights[: m_max + 1], per_m))
    return FidelityReport(per_m=per_m, thermal=total, p0=p0, truncation=truncation)


def gate_error(
    params: SystemParams,
    pulse: PulseProgram,
    target: GateTarget,
    p0: float,
    model: str = "full",
) -> float:
    """Convenience wrapper: evolve then return ``1 - thermal fidelity``."""
    prop = evolve(params, pulse, model)
    return thermal_fidelity(prop, target, p0).error


def _dephasing_angle(eta: float, theta_tar: float) -> float:
    """Per-quantum dephasing angle accumulated by a recoil-free x-axis gate."""
    return eta**2 * theta_tar / (1 - 0.5 * eta**2)


def thermal_limit_exact(p0: float, eta: float, theta_tar: float) -> float:
    """Exact thermal-entanglement error floor of recoil-free x-axis gates.

    Closed geometric-series form of the Boltzmann average of the
    per-level dephasing error; equals 0 at p0 = 1 and is independent of
    the Rabi frequency.
    """
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    gamma = _dephasing_angle(eta, theta_tar)
    q = 1 - p0
    cos_g = math.cos(gamma)
    numerator = (1 - p0) * (2 - p0) * (1 - cos_g)
    denominator = 1 - 2 * q * cos_g + q * q
    return 0.375 * numerator / denominator


def thermal_limit_leading(p0: float, eta: float, theta_tar: float) -> float:
    """Leading-order thermal-entanglement floor (3/16) q (2-p0) gamma^2 / p0^2.

    ``gamma`` is the slowdown-corrected dephasing angle
    ``eta^2 theta / (1 - eta^2/2)``; with it, the expansion agrees with
    :func:`thermal_limit_exact` to relative 1% for eta <= 0.25,
    theta <= pi, p0 >= 0.8.
    """
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    gamma = _dephasing_angle(eta, theta_tar)
    return 0.1875 * (1 - p0) * (2 - p0) * gamma**2 / p0**2


def check_truncation(
    params: SystemParams,
    pulse: PulseProgram,
    target: GateTarget,
    model: str = "full",
    m_max: int = 3,
    tol: float = 1e-9,
    factor: int = 2,
) -> float:
    """Re-evolve at ``factor * M`` and compare low-level fidelities.

    Returns the largest per-level fidelity drift for m <= m_max; raises
    :class:`TruncationError` if it exceeds ``tol``.
    """
    base = evolve(params, pulse, model)
    wide = evolve(params.with_truncation(factor * params.truncation), pulse, model)
    drift = max(
        abs(
            per_m_fidelity(base, target, m)
            - per_m_fidelity(wide, target, m)
        )
        for m in range(m_max + 1)
    )
    if drift > tol:
        raise TruncationError(
            f"fidelity drift {drift:.3e} between truncations {params.truncation} "
            f"and {factor * params.truncation} exceeds {tol:.0e}"
        )
    return drift
