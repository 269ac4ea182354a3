"""Independent reference routes that the library's fast paths are tested against.

They live with the tests, not in the package: each one recomputes a library
result by a different and slower method.
"""

from __future__ import annotations

import math

import numpy as np

from mipulse.operators import SIGMA_X, SIGMA_Y
from mipulse.propagate import su2_rotation
from mipulse.pulse import BangAngles
from mipulse.toggling import MIN_RATIO, ToggleIntegrals


def bang_closed_form(
    angles: BangAngles, ratio: float, theta_tar: float | None = None
) -> ToggleIntegrals:
    """First-harmonic recoil integral of a bang-bang pulse, antiderivative route.

    For phases restricted to {0, pi} the conjugated quadrature reduces to
    ``(Uq^dag)^2 h_quad`` and each segment integrates to a resolvent
    expression in the frequency ratio.  This is an algebraically
    independent route from :func:`~mipulse.toggling.toggle_integrals`; it
    requires ``ratio > 1.5`` (the averaging validity gate, which also keeps
    the ``1 - ratio^2`` resolvent away from resonance).

    Works in pulse-area units (rabi = 1), valid since the integrals are
    dimensionless.
    """
    if ratio <= MIN_RATIO:
        raise ValueError(
            f"ratio must exceed {MIN_RATIO} (averaging validity), got {ratio}"
        )
    if angles.order != "first":
        raise ValueError("closed form covers first-order (three-angle) pulses")
    half = angles.angles
    thetas = np.array(half + half[-2::-1], dtype=float)
    signs = np.array([(-1) ** k for k in range(len(thetas))], dtype=float)
    times = np.concatenate(([0.0], np.cumsum(thetas)))  # in units of 1/rabi
    cum_rot = np.concatenate(([0.0], np.cumsum(signs * thetas)))

    recoil1 = np.zeros((2, 2), dtype=complex)
    recoil2 = np.zeros((2, 2), dtype=complex)
    for n, (theta, sign) in enumerate(zip(thetas, signs)):
        if theta == 0.0:
            continue
        quad_n = sign * 0.5 * SIGMA_Y
        resolvent = (ratio * np.eye(2) - sign * SIGMA_X) / (ratio**2 - 1)
        u_pre_sq = su2_rotation(2 * cum_rot[n], 0.0).conj().T
        hop = np.exp(1j * ratio * theta) * su2_rotation(2 * sign * theta, 0.0).conj().T
        bracket = np.exp(1j * ratio * times[n]) * (hop - np.eye(2))
        recoil1 += u_pre_sq @ (-1j * bracket) @ resolvent @ quad_n
        recoil2 += (
            sign
            * 0.25
            * SIGMA_X
            / (1j * ratio)
            * (np.exp(2j * ratio * times[n + 1]) - np.exp(2j * ratio * times[n]))
        )
    entangle = 0.5 * cum_rot[-1] * SIGMA_X
    return ToggleIntegrals(
        u_qubit=su2_rotation(cum_rot[-1], 0.0),
        recoil1=recoil1,
        recoil2=recoil2,
        entangle=entangle,
        rabi_dev=entangle,
        ratio=ratio,
    )


def probe_states(m: int, dim_m: int) -> np.ndarray:
    """The four probe states at motional level m, as columns (2*dim_m, 4)."""
    g = np.zeros(2 * dim_m, dtype=complex)
    e = np.zeros(2 * dim_m, dtype=complex)
    g[m] = 1.0
    e[dim_m + m] = 1.0
    inv_sqrt2 = 1 / math.sqrt(2)
    return np.stack(
        [g, e, (g + e) * inv_sqrt2, (g + 1j * e) * inv_sqrt2], axis=1
    )


def probe_fidelity(operator: np.ndarray, target_unitary: np.ndarray, m: int) -> float:
    """Per-level probe fidelity from full-space probe vectors and ``kron(target, I)``."""
    dim_m = operator.shape[0] // 2
    probes = probe_states(m, dim_m)
    evolved = operator @ probes
    targets = np.kron(target_unitary, np.eye(dim_m)) @ probes
    overlaps = np.einsum("ik,ik->k", targets.conj(), evolved)
    return float(np.mean(np.abs(overlaps) ** 2))
