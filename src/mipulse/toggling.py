"""Toggling-frame constraint integrals, evaluated in closed form per segment.

Every control objective of this package is an integral of the form

    V = int_0^T  Uq(t)^dag h(t) Uq(t) e^{i k w t} [t] dt

where ``Uq`` is the ideal-qubit propagator, ``h`` is one of the in-plane
drive operators (or ``(rabi/2) sz`` for the detuning integral), ``k`` is a
harmonic index in {0, 1, 2}, and an optional factor ``t`` appears in the
trap-robustness variants.  Over one segment of constant phase the
conjugated operator is a trigonometric polynomial in time, so each segment
contributes an analytic primitive: there is no quadrature error anywhere,
which is what makes residual targets of 1e-10 affordable.

The same machinery returns the exact derivative of every integral with
respect to each segment phase, which the optimizer uses as an adjoint-style
gradient, or with respect to each segment duration, which gives the
bang-bang solvers their exact Jacobians.  All of it is one vectorized SU(2)
kernel with no loop over segments: the prefix products of the segment
rotations, held as Cayley-Klein pairs, come from a doubling scan in
ceil(log2 n) steps, and every conjugation, qubit gradient and commutator
is a closed-form expression in their entries.

The kernel splits into a duration plan and a phase half.  The plan holds
everything fixed by the durations, the rates, the kinds and the derivative
variable: each segment's rotation half-angle and every phase-0 integral and
derivative row.  It is built once per key, kept read-only in a small
cache, and shared.  The phase half is the scan, the conjugations, sums and
commutators.  An optimizer descending at a fixed pulse area thus pays only
for the phases on each step, and every result is the same bits whether the
plan came from the cache or was built afresh.

Averaged-propagator predictions assembled from these integrals are valid
when the integrated interaction stays small; callers can compare
:func:`interaction_scale` against :data:`VALIDITY_BOUND` (reported, not
asserted, since the regime boundary is soft).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SystemParams
from .operators import expm_hermitian, tensor
from .pulse import PulseProgram

__all__ = [
    "ToggleIntegrals",
    "toggle_integrals",
    "effective_propagator",
    "robust_qubit_predict",
    "interaction_scale",
    "evaluate_controls",
    "VALIDITY_BOUND",
    "MIN_RATIO",
    "CONSTRAINT_KINDS",
]

#: Harmonic index and time-moment of each supported constraint integral.
CONSTRAINT_KINDS = {
    "recoil1": (1, 0),
    "recoil2": (2, 0),
    "entangle": (0, 0),
    "detune": (0, 0),
    "trap1": (1, 1),
    "trap2": (2, 1),
}

#: ``rabi`` deviations integrate the same operator as ``entangle``.
ALIASES = {"rabi": "entangle"}

#: Moment-0 kind with the same operator and harmonic as each trap kind.
_MOMENT0 = {"trap1": "recoil1", "trap2": "recoil2"}

#: Softly flagged bound on the integrated-interaction scale.
VALIDITY_BOUND = math.pi / 3

#: Closed-form reductions divide by 1 - ratio^2; below this the averaging
#: treatment is invalid anyway (strong motional excitation).
MIN_RATIO = 1.5

# ---------------------------------------------------------------------------
# elementary segment primitives

def _e0(mu: float, tau: np.ndarray) -> np.ndarray:
    """int_0^tau e^{i mu s} ds, stable for mu*tau -> 0."""
    x = mu * tau
    return tau * np.exp(0.5j * x) * np.sinc(x / (2 * math.pi))


def _e1(mu: float, tau: np.ndarray) -> np.ndarray:
    """int_0^tau s e^{i mu s} ds, series branch below |mu tau| = 1e-3."""
    tau = np.asarray(tau, dtype=float)
    x = mu * tau
    small = np.abs(x) < 1e-3
    ix = 1j * np.where(small, x, 0.0)
    series = tau**2 * (0.5 + ix / 3 + ix**2 / 8 + ix**3 / 30 + ix**4 / 144)
    mu_safe = mu if mu != 0 else 1.0
    with np.errstate(invalid="ignore"):
        general = (tau * np.exp(1j * x) - _e0(mu, tau)) / (1j * mu_safe)
    return np.where(small, series, general)


# ---------------------------------------------------------------------------
# SU(2) segment kernel
#
# A prefix product W = [[alpha, -conj(beta)], [beta, conj(alpha)]] is held as
# its Cayley-Klein pair, and a traceless operator [[z, p], [q, -z]] as its
# components (z, p, q).  On segment i every operator conjugated is a phase-0
# operator turned about z, (z, p e^{-i phi_i}, q e^{i phi_i}), so the phase-0
# components depend on the durations alone and stacked profiles share them.

def _prefix_products(e: np.ndarray, cos_half: np.ndarray, sin_half: np.ndarray):
    """Cayley-Klein pairs of W_0 = 1, ..., W_n, where W_{i+1} = P_i W_i and
    P_i turns by 2 half_i about the axis at phase phi_i (``e`` = e^{i phi},
    ``cos_half`` = cos(half), ``sin_half`` = -i sin(half)).

    A doubling scan: after the step of width w, entry i holds the product
    of the up to 2w rotations ending at segment i, so ceil(log2 n) steps
    complete every prefix.
    """
    alpha = np.ones(e.shape[:-1] + (e.shape[-1] + 1,), dtype=complex)
    beta = np.zeros_like(alpha)
    alpha[..., 1:] = cos_half
    beta[..., 1:] = sin_half * e
    a, b = alpha[..., 1:], beta[..., 1:]
    width = 1
    while width < e.shape[-1]:
        a1, b1, a2, b2 = a[..., width:], b[..., width:], a[..., :-width], b[..., :-width]
        a1[...], b1[...] = a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2
        width *= 2
    return alpha, beta


def _conjugated(alpha, beta, e, z, p, q) -> np.ndarray:
    """Components of W_i^dag S_i W_i from the phase-0 components ``z``,
    ``p``, ``q`` (each of shape (rows, n)) of S_i, where W_i = (``alpha``,
    ``beta``) and ``e`` is e^{i phi_i}, both of shape (..., n); the result
    is (3, ..., rows, n)."""
    ce = e.conj()
    c = (alpha.conj() * beta * ce)[..., None, :]
    a2 = (alpha * alpha * e)[..., None, :]
    b2 = (beta * beta * ce)[..., None, :]
    ab = (-2 * alpha * beta)[..., None, :]
    d = (alpha * alpha.conj() - beta * beta.conj()).real[..., None, :]
    return np.array((
        z * d + p * c + q * c.conj(),
        z * ab.conj() + p * a2.conj() - q * b2.conj(),
        z * ab - p * b2 + q * a2,
    ))


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of [A, B] from the components of traceless A and B."""
    return np.array((
        a[1] * b[2] - a[2] * b[1],
        2 * (a[0] * b[1] - a[1] * b[0]),
        2 * (a[2] * b[0] - a[0] * b[2]),
    ))


def _matrices(*entries) -> np.ndarray:
    """The 2x2 matrices with entries (0, 0), (0, 1), (1, 0), (1, 1)."""
    out = np.empty(entries[0].shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def _components(kind: str, half: float, one, cos, sin) -> np.ndarray:
    """Phase-0 components of a kind's integrand, weighted per segment.

    Within a segment the conjugated operator decomposes onto the drive
    axis, its quadrature, and sz with coefficients 1, cos(rate*s) and
    sin(rate*s); ``one``, ``cos`` and ``sin`` are what those coefficients
    become (their integrals, or their values at one time).
    """
    if kind in ("recoil2", "entangle", "trap2"):  # the drive, constant in s
        return np.array([np.zeros_like(one), half * one, half * one])
    if kind in ("recoil1", "trap1"):  # quadrature cos(rate s) - sz sin(rate s)
        return np.array([-half * sin, -1j * half * cos, 1j * half * cos])
    # detune: sz cos(rate s) + quadrature sin(rate s)
    return np.array([half * cos, -1j * half * sin, 1j * half * sin])


def _segment_integral(kind, durations, starts, rabi, omega, rate) -> np.ndarray:
    """Phase-0 components of each segment's closed-form integral of a kind.

    Multiplying the integrand's coefficients by e^{i k omega s} leaves sums
    of complex exponentials whose primitives are ``_e0``/``_e1``.
    """
    k, moment = CONSTRAINT_KINDS[kind]
    kw = k * omega
    front = np.exp(1j * kw * starts)
    if kind in ("recoil2", "entangle", "trap2"):
        base = _e0(kw, durations)
        if moment:
            base = starts * base + _e1(kw, durations)
        return _components(kind, 0.5 * rabi, front * base, None, None)
    e0p, e0m = _e0(kw + rate, durations), _e0(kw - rate, durations)
    cos0 = 0.5 * (e0p + e0m)
    sin0 = -0.5j * (e0p - e0m)
    if moment:
        e1p, e1m = _e1(kw + rate, durations), _e1(kw - rate, durations)
        cos0 = starts * cos0 + 0.5 * (e1p + e1m)
        sin0 = starts * sin0 - 0.5j * (e1p - e1m)
    return _components(kind, 0.5 * rabi, None, front * cos0, front * sin0)


class _Plan(NamedTuple):
    """The part of :func:`evaluate_controls` that the phases do not touch.

    Rows of the stack (``z``, ``p``, ``q``, each (rows, n)) are the
    integrated kinds, then, with derivatives, the qubit row and one
    derivative row per own kind.  Every array is read-only: one plan is
    shared by every call with the same key.
    """

    cos_half: np.ndarray  # cos(half) per segment
    sin_half: np.ndarray  # -i sin(half) per segment
    z: np.ndarray
    p: np.ndarray
    q: np.ndarray
    count: int  # integrated kinds: own kinds, then trap partners
    own: int  # own kinds (after ALIASES)
    slots: tuple  # (name, row) for each own kind and each requested name
    partner_rows: tuple  # (own row, integrated row) per trap kind, durations only
    harmonics: np.ndarray | None  # i omega k per own kind, durations only


@functools.lru_cache(maxsize=4)
def _plan(durations: bytes, rabi: str, omega: str, kappa: str, kinds: tuple, mode) -> _Plan:
    """The duration plan, keyed on exact bits: ``durations`` as float64
    bytes, the scalars as ``float.hex`` (so 0.0 and -0.0 differ), and
    ``mode`` None, ``"phases"`` or ``"durations"``.

    The four entries cover the three modes at one duration set plus the
    next: an optimizer step at a fixed area pays only for the phases.
    """
    durations = np.frombuffer(durations)
    rabi, omega, kappa = float.fromhex(rabi), float.fromhex(omega), float.fromhex(kappa)
    ends = np.cumsum(durations)
    starts = np.concatenate(([0.0], ends))[: len(durations)]
    rate = kappa * rabi
    half = 0.5 * rate * durations

    own = list(dict.fromkeys(ALIASES.get(name, name) for name in kinds))
    slots = {name: own.index(ALIASES.get(name, name)) for name in own + list(kinds)}
    partners = [_MOMENT0[kind] for kind in own if mode == "durations" and kind in _MOMENT0]
    integrated = list(dict.fromkeys(own + partners))
    rows = [
        _segment_integral(kind, durations, starts, rabi, omega, rate)
        for kind in integrated
    ]
    harmonics, partner_rows = None, ()
    if mode == "phases":
        # G_i = W_i^dag (P_i^dag dP_i/dphi_i) W_i, and d/dphi_i of each integral
        sa, ca = np.sin(half), np.cos(half)
        rows.append(np.array([1j * sa * sa, -sa * ca, sa * ca]))
        rows += [row * [[0], [-1j], [1j]] for row in rows[: len(own)]]
    elif mode == "durations":
        # dP_i/dtau_i = -i kappa drive_i P_i, then the integrand at the segment's end
        drive = np.full(len(durations), -0.5j * kappa * rabi)
        rows.append(np.array([np.zeros_like(drive), drive, drive]))
        cos, sin = np.cos(2 * half), np.sin(2 * half)
        for kind in own:
            k, moment = CONSTRAINT_KINDS[kind]
            edge = np.exp(1j * k * omega * ends) * ends**moment
            rows.append(_components(kind, 0.5 * rabi, edge, edge * cos, edge * sin))
        harmonics = 1j * omega * np.array([CONSTRAINT_KINDS[kind][0] for kind in own])[:, None]
        partner_rows = tuple(
            (j, integrated.index(_MOMENT0[kind])) for j, kind in enumerate(own) if kind in _MOMENT0
        )
    stack = np.reshape(rows, (len(rows), 3, len(durations)))
    cos_half, sin_half = np.cos(half), -1j * np.sin(half)
    for array in (stack, cos_half, sin_half, harmonics):
        if array is not None:
            array.flags.writeable = False  # views taken below inherit this
    z, p, q = stack.swapaxes(0, 1)
    return _Plan(
        cos_half=cos_half,
        sin_half=sin_half,
        z=z,
        p=p,
        q=q,
        count=len(integrated),
        own=len(own),
        slots=tuple(slots.items()),
        partner_rows=partner_rows,
        harmonics=harmonics,
    )


def evaluate_controls(
    phases,
    durations,
    rabi: float,
    omega: float,
    kappa: float,
    kinds: tuple[str, ...],
    want_grad: bool = False,
    wrt: str = "phases",
):
    """Qubit propagator and constraint integrals of a segmented pulse.

    Returns ``(u_qubit, values)`` or, with ``want_grad``,
    ``(u_qubit, values, qubit_grad, grads)``.  ``wrt`` names the segment
    variable x_i the derivatives are taken in: ``"phases"`` or
    ``"durations"``.  ``qubit_grad[i]`` is the right-logarithmic derivative
    G_i (so dUq/dx_i = Uq @ G_i) and ``grads[kind][i]`` is the exact
    derivative of the integral.  The harmonic frequency ``omega`` may be
    arbitrary (even 0) when no finite-ratio kind is requested.

    Leading axes of ``phases`` stack profiles that share ``durations``; each
    profile's results are bit-identical to evaluating it alone, and
    ``u_qubit`` and ``values`` are bit-identical with and without
    ``want_grad``.

    The derivative of an integral is the change of its segment-i integral,
    conjugated to the segment's start, plus the commutator of the tail
    (the conjugated integrals of the later segments) with G_i.  In the
    durations the change is the integrand at the segment's end, and the
    delay of every later segment adds ``i k omega`` times the tail (and, for
    a trap kind, the tail of its moment-0 partner).

    Everything that depends on the durations, ``rabi``, ``omega``,
    ``kappa``, ``kinds`` and the derivative mode alone is a read-only plan
    (:func:`_plan`), cached for the last four keys; a call with a cached
    plan pays only for the phases.  A cached plan is the same bits as a
    fresh one, so no result depends on the cache.
    """
    if wrt not in ("phases", "durations"):
        raise ValueError(f"wrt must be 'phases' or 'durations', got {wrt!r}")
    plan = _plan(
        np.asarray(durations, dtype=float).tobytes(),
        float(rabi).hex(),
        float(omega).hex(),
        float(kappa).hex(),
        tuple(kinds),
        wrt if want_grad else None,
    )
    e = np.exp(1j * np.asarray(phases, dtype=float))
    alpha, beta = _prefix_products(e, plan.cos_half, plan.sin_half)
    a, b = alpha[..., -1], beta[..., -1]
    u_qubit = _matrices(a, -b.conj(), b, a.conj())
    t = _conjugated(alpha[..., :-1], beta[..., :-1], e, plan.z, plan.p, plan.q)

    count = plan.count
    totals = t[..., :count, :].sum(axis=-1)
    matrices = _matrices(totals[0], totals[1], totals[2], -totals[0])
    values = {name: matrices[..., j, :, :] for name, j in plan.slots}
    if not want_grad:
        return u_qubit, values

    g = t[..., count, :]
    tails = totals[..., None] - np.cumsum(t[..., :count, :], axis=-1)
    own_tails = tails[..., : plan.own, :]
    dv = t[..., count + 1 :, :] + _commutator(own_tails, g[..., None, :])
    if wrt == "durations":
        dv += plan.harmonics * own_tails
        for j, partner in plan.partner_rows:
            dv[..., j, :] += tails[..., partner, :]
    derivatives = _matrices(dv[0], dv[1], dv[2], -dv[0])
    grads = {name: derivatives[..., j, :, :, :] for name, j in plan.slots}
    return u_qubit, values, _matrices(g[0], g[1], g[2], -g[0]), grads


# ---------------------------------------------------------------------------
# public integral record

@dataclass(frozen=True)
class ToggleIntegrals:
    """Constraint operators of a pulse at the final time.

    ``rabi_dev`` is entrywise identical to ``entangle`` (the two
    deviations integrate the same conjugated drive), which is why a pulse
    robust to drive-amplitude errors also suppresses thermal
    entanglement.  Fields are ``None`` when a route does not provide them.
    """

    u_qubit: np.ndarray
    recoil1: np.ndarray | None = None
    recoil2: np.ndarray | None = None
    entangle: np.ndarray | None = None
    detune: np.ndarray | None = None
    rabi_dev: np.ndarray | None = None
    trap1: np.ndarray | None = None
    trap2: np.ndarray | None = None
    ratio: float | None = None
    eta_corrected: bool = False
    pulse: PulseProgram | None = None


def toggle_integrals(
    pulse: PulseProgram,
    params: SystemParams,
    eta_correction: bool = False,
) -> ToggleIntegrals:
    """Evaluate all constraint integrals of ``pulse`` exactly.

    With ``eta_correction`` the ideal-qubit propagator runs at the
    slowed-down rate ``rabi (1 - eta^2/2)``; the integrand operators are
    unscaled either way.
    """
    kappa = 1 - 0.5 * params.eta**2 if eta_correction else 1.0
    kinds = tuple(CONSTRAINT_KINDS)
    u_qubit, values = evaluate_controls(
        pulse.phases, pulse.durations, pulse.rabi, params.omega, kappa, kinds
    )
    return ToggleIntegrals(
        u_qubit=u_qubit,
        recoil1=values["recoil1"],
        recoil2=values["recoil2"],
        entangle=values["entangle"],
        detune=values["detune"],
        rabi_dev=values["entangle"],
        trap1=values["trap1"],
        trap2=values["trap2"],
        ratio=params.ratio,
        eta_corrected=eta_correction,
        pulse=pulse,
    )


# ---------------------------------------------------------------------------
# averaged-propagator predictions

def _free_rotation(params: SystemParams, duration: float) -> np.ndarray:
    levels = np.arange(params.truncation + 1)
    return np.kron(np.eye(2), np.diag(np.exp(-1j * params.omega * levels * duration)))


def _assemble_exponent(
    params: SystemParams, integrals: ToggleIntegrals, order: str
) -> np.ndarray:
    fock = params.fock()
    eta = params.eta
    exponent = eta * (
        tensor(integrals.recoil1, fock.raise_)
        + tensor(integrals.recoil1.conj().T, fock.lower)
    )
    if order == "second":
        raise2, lower2 = fock.raise_ @ fock.raise_, fock.lower @ fock.lower
        exponent -= 0.5 * eta**2 * (
            tensor(integrals.recoil2, raise2)
            + tensor(integrals.recoil2.conj().T, lower2)
        )
        exponent -= eta**2 * tensor(integrals.entangle, fock.number)
    return exponent


def effective_propagator(
    pulse: PulseProgram, params: SystemParams, order: str = "first"
) -> np.ndarray:
    """Averaged prediction of the full-space propagator at time T.

    ``order="first"`` uses the uncorrected qubit propagator and the
    first-harmonic recoil integral (accurate to o(eta^2) against the
    first-order model); ``order="second"`` adds the two-quantum and
    occupation terms with the slowed-down qubit propagator (o(eta^3)
    against the second-order model).
    """
    if order not in ("first", "second"):
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    integrals = toggle_integrals(pulse, params, eta_correction=(order == "second"))
    exponent = _assemble_exponent(params, integrals, order)
    dim_m = params.truncation + 1
    return (
        tensor(integrals.u_qubit, np.eye(dim_m))
        @ _free_rotation(params, pulse.duration)
        @ expm_hermitian(exponent)
    )


def interaction_scale(pulse: PulseProgram, params: SystemParams, order: str = "first") -> float:
    """Spectral norm of the integrated interaction behind the prediction.

    Values above :data:`VALIDITY_BOUND` (pi/3) indicate the averaging is
    leaving its validity regime; the scale is reported rather than
    asserted because the boundary is soft.
    """
    integrals = toggle_integrals(pulse, params, eta_correction=(order == "second"))
    exponent = _assemble_exponent(params, integrals, order)
    return float(np.linalg.norm(exponent, 2))


def robust_qubit_predict(
    pulse: PulseProgram,
    ddelta: float,
    domega: float,
    eta: float = 0.0,
    eta_correction: bool = True,
) -> np.ndarray:
    """First-order prediction of the qubit gate under static laser offsets.

    ``Uq_perturbed = Uq exp(-i (ddelta/rabi) V_det) exp(-i (domega/rabi) V_rab)``,
    accurate to second order in the relative offsets.  Offsets beyond 30%
    of the Rabi frequency are outside the perturbative regime and are
    rejected.
    """
    rel_det, rel_rab = ddelta / pulse.rabi, domega / pulse.rabi
    if abs(rel_det) > 0.3 or abs(rel_rab) > 0.3:
        raise ValueError(
            f"offsets ({rel_det:.3f}, {rel_rab:.3f}) of the Rabi frequency exceed "
            "the 0.3 perturbative-validity gate"
        )
    kappa = 1 - 0.5 * eta**2 if eta_correction else 1.0
    u_qubit, values = evaluate_controls(
        pulse.phases, pulse.durations, pulse.rabi, 0.0, kappa, ("detune", "rabi")
    )
    return (
        u_qubit
        @ expm_hermitian(values["detune"], t=rel_det)
        @ expm_hermitian(values["rabi"], t=rel_rab)
    )
