"""Solvers for recoil-free bang-bang pulse angles.

For x-axis bang-bang pulses the recoil-free control problem collapses to a
small nonlinear system in the rotation angles.  At first order the
three-angle palindrome must satisfy one linear equation (the net rotation
reaches the target) plus two trigonometric equations equivalent to a
vanishing first-harmonic recoil integral, solved by Newton's method with
its exact Jacobian (sums of cosines).  The second-order five-angle problem
is solved as a bounded least-squares fit of the exact constraint
integrals, with the exact Jacobian in the segment durations from
:func:`~mipulse.toggling.evaluate_controls` folded onto the five angles.

Solutions are never returned unverified: every candidate is re-checked
against the residual system and the minimal-duration branch is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagate import su2_rotation
from .pulse import BangAngles
from .toggling import MIN_RATIO, evaluate_controls

__all__ = [
    "BangSolution",
    "SolverError",
    "bang_residuals",
    "solve_first_order",
    "solve_second_order",
    "duration_curve",
    "table_rows",
    "TABLE_TARGETS_DEG",
    "TABLE_RATIOS",
]

#: Residual bound every returned solution satisfies.
RESIDUAL_TOL = 1e-10
#: Second-order convergence bound per constraint.
RESIDUAL_TOL_SECOND = 1e-8

TABLE_TARGETS_DEG = (45.0, 90.0, 180.0)
TABLE_RATIOS = (2.0, 3.0, 4.0, 5.0, 6.0)


class SolverError(RuntimeError):
    """No solution satisfied the residual bound after all restarts."""


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call so that
    commands which never solve do not load scipy.

    A function of its own rather than ``optimize.least_squares``: the
    traced benchmark (``perfbench/spans.py``) wraps each by identity, and
    one shared forwarder would merge the polish into this solver's span.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


def bang_residuals(
    theta1: float, theta2: float, theta3: float, ratio: float, theta_tar: float
) -> tuple[float, float, float]:
    """Residual triple of the first-order three-angle system.

    ``r0`` is the net-rotation defect; ``r1`` and ``r2`` are the symmetric
    and antisymmetric combinations of the recoil-integral components,
    built from six sine terms in the angles and the frequency ratio.
    All three vanish exactly on a recoil-free palindrome.
    """
    lam = ratio
    half3 = 0.5 * theta3
    a1 = math.sin(theta1 * (lam - 1) + theta2 * (lam + 1) + half3 * (lam - 1))
    a2 = math.sin(theta2 * (lam + 1) + half3 * (lam - 1))
    a3 = math.sin(half3 * (lam - 1))
    b1 = math.sin(theta1 * (lam + 1) + theta2 * (lam - 1) + half3 * (lam + 1))
    b2 = math.sin(theta2 * (lam - 1) + half3 * (lam + 1))
    b3 = math.sin(half3 * (lam + 1))
    r0 = 2 * theta1 - 2 * theta2 + theta3 - theta_tar
    r1 = (1 + lam) * a1 - 2 * lam * a2 + 2 * lam * a3
    r2 = (1 - lam) * b1 + 2 * lam * b2 - 2 * lam * b3
    return r0, r1, r2


@dataclass(frozen=True)
class BangSolution:
    """A verified bang-bang solution with its duration and residual."""

    angles: BangAngles
    ratio: float
    theta_tar: float
    area: float
    residual: float

    @property
    def angles_deg(self) -> tuple[float, ...]:
        return tuple(math.degrees(t) for t in self.angles.angles)


def _reduced(x: np.ndarray, ratio: float, theta_tar: float) -> np.ndarray:
    """(r1, r2) with the linear equation eliminated via theta3."""
    theta1, theta2 = x
    theta3 = theta_tar - 2 * theta1 + 2 * theta2
    _, r1, r2 = bang_residuals(theta1, theta2, theta3, ratio, theta_tar)
    return np.array([r1, r2])


def _reduced_jacobian(x: np.ndarray, ratio: float, theta_tar: float) -> np.ndarray:
    """Exact d(r1, r2)/d(theta1, theta2) of :func:`_reduced`: sums of cosines.

    With h = theta3 / 2 = theta_tar / 2 - theta1 + theta2, both residuals
    of :func:`bang_residuals` read
    ``sign * (q sin(p theta1 + q theta2 + p h) - 2 lam sin(q theta2 + p h)
    + 2 lam sin(p h))``, with (sign, p, q) = (1, lam - 1, lam + 1) for r1
    and (-1, lam + 1, lam - 1) for r2.
    """
    theta1, theta2 = x
    lam = ratio
    half3 = 0.5 * theta_tar - theta1 + theta2
    rows = []
    for sign, p, q in ((1.0, lam - 1, lam + 1), (-1.0, lam + 1, lam - 1)):
        c1 = math.cos(p * theta1 + q * theta2 + p * half3)
        c2 = math.cos(q * theta2 + p * half3)
        c3 = math.cos(p * half3)
        rows.append([
            sign * 2 * lam * p * (c2 - c3),
            sign * 2 * lam * (q * c1 - 2 * lam * c2 + p * c3),
        ])
    return np.array(rows)


def _newton2(func, jac, x0, tol=1e-13, maxiter=80):
    """Damped Newton on a 2-vector function with its exact Jacobian."""
    x = np.array(x0, dtype=float)
    f = func(x)
    for _ in range(maxiter):
        norm = np.linalg.norm(f)
        if norm < tol:
            return x
        try:
            step = np.linalg.solve(jac(x), -f)
        except np.linalg.LinAlgError:
            return None
        damping = 1.0
        while damping > 1e-4:
            trial = x + damping * step
            f_trial = func(trial)
            if np.linalg.norm(f_trial) < norm:
                x, f = trial, f_trial
                break
            damping *= 0.5
        else:
            # no descent left: a root at the rounding floor, which grows with
            # the ratio (terms of size ~ratio), or a stall away from any root
            return x if norm < RESIDUAL_TOL else None
    return x if np.linalg.norm(func(x)) < tol else None


def _verify_first(
    theta1: float, theta2: float, ratio: float, theta_tar: float
) -> BangSolution | None:
    """Clip numerical zeros, re-check residuals and bounds."""
    theta1 = 0.0 if abs(theta1) < 1e-12 else theta1
    theta2 = 0.0 if abs(theta2) < 1e-12 else theta2
    theta3 = theta_tar - 2 * theta1 + 2 * theta2
    theta3 = 0.0 if abs(theta3) < 1e-12 else theta3
    angles = (theta1, theta2, theta3)
    if any(t < 0 or t >= 2 * math.pi for t in angles):
        return None
    residual = np.linalg.norm(bang_residuals(*angles, ratio, theta_tar))
    if residual >= RESIDUAL_TOL:
        return None
    return BangSolution(
        angles=BangAngles(*angles),
        ratio=ratio,
        theta_tar=theta_tar,
        area=2 * theta1 + 2 * theta2 + theta3,
        residual=float(residual),
    )


def solve_first_order(
    ratio: float,
    theta_tar: float,
    restarts: int = 16,
    seed: int = 0,
) -> BangSolution:
    """Minimal-duration three-angle solution at the given frequency ratio.

    Start points combine a continuation path from the large-ratio
    asymptote (small flip angles, theta3 -> target) with ``restarts``
    random initializations; the constant-pulse corner (0, 0, target) is
    probed directly since it is the exact solution whenever it satisfies
    the system.  Raises :class:`SolverError` if nothing converges.
    """
    if not ratio > MIN_RATIO:
        raise ValueError(f"ratio must exceed {MIN_RATIO}, got {ratio}")
    if not 0 < theta_tar <= math.pi:
        raise ValueError(f"theta_tar must be in (0, pi], got {theta_tar}")

    solutions: list[BangSolution] = []
    corner = _verify_first(0.0, 0.0, ratio, theta_tar)
    if corner is not None:
        solutions.append(corner)

    func = lambda x: _reduced(x, ratio, theta_tar)
    jac = lambda x: _reduced_jacobian(x, ratio, theta_tar)
    candidates: list[np.ndarray] = []

    # deterministic lattice over the physical angle box; basin widths
    # shrink as 1/ratio, so this covers moderate ratios reliably
    lattice = np.linspace(0.02, 1.45, 6)
    candidates.extend(np.array([a, b]) for a in lattice for b in lattice)

    rng = np.random.default_rng(seed)
    # half the restarts explore broadly; the residual oscillation period
    # shrinks as 1/ratio, so the other half sample a basin-sized box near
    # the large-ratio asymptote (small flip angles)
    box = min(0.5 * math.pi, 10.0 / ratio)
    for _ in range(max(1, restarts // 2)):
        candidates.append(rng.uniform(0.0, 0.5 * math.pi, size=2))
    for _ in range(max(1, restarts - restarts // 2)):
        candidates.append(rng.uniform(0.0, box, size=2))

    if ratio > 8.0:
        # short solutions at large ratios keep theta2 ~ 1/ratio small but
        # theta1 anywhere up to the theta3 >= 0 boundary; sample theta1 at
        # half the 2 pi / ratio oscillation period (capped for cost)
        n1 = min(64, math.ceil(ratio * theta_tar / math.pi) + 4)
        first = np.linspace(1e-3, 0.52 * theta_tar + 0.1, n1)
        second = np.linspace(1e-3, 12.0 / ratio, 8)
        candidates.extend(np.array([a, b]) for a in first for b in second)

    for x0 in candidates:
        root = _newton2(func, jac, x0)
        if root is None:
            continue
        verified = _verify_first(root[0], root[1], ratio, theta_tar)
        if verified is not None:
            solutions.append(verified)

    if not solutions:
        best = min(np.linalg.norm(func(x0)) for x0 in candidates)
        raise SolverError(
            f"no first-order solution at ratio={ratio}, theta={theta_tar:.6g} "
            f"(best residual {best:.3e})"
        )
    return min(solutions, key=lambda s: (s.area, s.angles.theta1))


#: Angle index of each segment of the nine-segment palindrome.
_PALINDROME = np.array([0, 1, 2, 3, 4, 3, 2, 1, 0])
#: Column a marks the segments whose duration is angle a.
_FOLD = np.eye(5)[_PALINDROME]
_PALINDROME_PHASES = np.array([0.0, math.pi] * 4 + [0.0])
_RECOIL_KINDS = ("recoil1", "recoil2")


def _split_complex(parts) -> np.ndarray:
    """Entries of the complex arrays in ``parts``, as real parts then imaginary
    parts along the last axis."""
    stacked = np.concatenate(parts, axis=-1)
    return np.concatenate([stacked.real, stacked.imag], axis=-1)


def _second_order_residuals(
    x: np.ndarray, ratio: float, theta_tar: float, kappa: float
) -> np.ndarray:
    u_qubit, values = evaluate_controls(
        _PALINDROME_PHASES, x[_PALINDROME], 1.0, ratio, kappa, _RECOIL_KINDS
    )
    target = su2_rotation(theta_tar, 0.0)
    return _split_complex(
        [(u_qubit - target).ravel(), values["recoil1"].ravel(), values["recoil2"].ravel()]
    )


def _second_order_jacobian(x: np.ndarray, ratio: float, kappa: float) -> np.ndarray:
    """Exact Jacobian of :func:`_second_order_residuals` in the five angles.

    Each angle sets the duration of one or two segments, so its column is
    the sum of those segments' duration derivatives.
    """
    u_qubit, _, qubit_grad, grads = evaluate_controls(
        _PALINDROME_PHASES, x[_PALINDROME], 1.0, ratio, kappa, _RECOIL_KINDS,
        want_grad=True, wrt="durations",
    )
    n = len(_PALINDROME)
    per_segment = [(u_qubit @ qubit_grad).reshape(n, 4)]
    per_segment += [grads[kind].reshape(n, 4) for kind in _RECOIL_KINDS]
    return _split_complex(per_segment).T @ _FOLD


_AREA_GRAD = np.array([2.0, 2.0, 2.0, 2.0, 1.0])


def _project_to_manifold(fun, jac, x0, max_nfev=600):
    fit = least_squares(
        fun,
        np.clip(x0, 0.0, 2 * math.pi),
        jac=jac,
        bounds=(0.0, 2 * math.pi),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=max_nfev,
    )
    return fit.x, float(np.linalg.norm(fit.fun))


def _slide_to_minimum(fun, jac, x0, max_steps=250):
    """Minimize the pulse area along the solution manifold.

    The five-angle constraint system is rank deficient (its solutions
    form a curve), so the least-duration pulse is an interior minimum of
    the area restricted to that curve.  Each step moves along the local
    null direction of the exact residual Jacobian (its last right singular
    vector), then re-projects onto the manifold; the step is accepted only
    if the projection stays resolved and the area decreases.
    """
    x = x0.copy()
    area = float(_AREA_GRAD @ x)
    step = 0.05
    for _ in range(max_steps):
        if step < 1e-10:
            break
        tangent = np.linalg.svd(jac(x))[2][-1]
        slope = float(_AREA_GRAD @ tangent)
        if abs(slope) < 1e-11:
            break
        direction = -math.copysign(1.0, slope) * tangent
        trial, norm = _project_to_manifold(fun, jac, x + step * direction, max_nfev=200)
        trial_area = float(_AREA_GRAD @ trial)
        if norm < 1e-12 and trial_area < area - 1e-14:
            x, area = trial, trial_area
        else:
            step *= 0.5
    return x


def solve_second_order(
    ratio: float,
    theta_tar: float,
    eta: float,
    restarts: int = 24,
    seed: int = 0,
) -> BangSolution:
    """Minimal-duration five-angle solution of the second-order problem.

    Bounded least squares on the nine-segment palindrome brings random
    starts onto the constraint manifold (exact integrals and their exact
    Jacobian, so residuals reach machine level); the area is then
    minimized along the manifold's null direction.  Converged means the
    target defect and both recoil norms are below 1e-8.  The slowdown
    factor fixes the net rotation to ``theta_tar / (1 - eta^2/2)``, which
    seeds theta5.
    """
    if not ratio > MIN_RATIO:
        raise ValueError(f"ratio must exceed {MIN_RATIO}, got {ratio}")
    if not 0 < theta_tar <= math.pi:
        raise ValueError(f"theta_tar must be in (0, pi], got {theta_tar}")
    kappa = 1 - 0.5 * eta**2
    target_net = theta_tar / kappa

    def fun(x):
        return _second_order_residuals(x, ratio, theta_tar, kappa)

    def jac(x):
        return _second_order_jacobian(x, ratio, kappa)

    rng = np.random.default_rng(seed)
    on_manifold: list[np.ndarray] = []
    for _ in range(restarts):
        flips = rng.uniform(0.0, 0.45 * theta_tar, size=4)
        theta5 = target_net - 2 * (flips[0] + flips[2] - flips[1] - flips[3])
        x0 = np.concatenate([flips, [max(theta5, 0.05)]])
        x, norm = _project_to_manifold(fun, jac, x0, max_nfev=2000)
        if norm < 1e-12:
            on_manifold.append(x)
    on_manifold.sort(key=lambda x: float(_AREA_GRAD @ x))

    solutions: list[BangSolution] = []
    for x0 in on_manifold[:6]:
        slid = _slide_to_minimum(fun, jac, x0)
        x, _ = _project_to_manifold(fun, jac, slid)
        x = np.where(np.abs(x) < 1e-12, 0.0, x)
        residuals = fun(x)
        # complex entries were stacked as [target(4), rec1(4), rec2(4)], then
        # split into real parts [0:12] and imaginary parts [12:24]
        target_defect = np.linalg.norm(residuals[0:4] + 1j * residuals[12:16])
        rec1 = np.linalg.norm(residuals[4:8] + 1j * residuals[16:20])
        rec2 = np.linalg.norm(residuals[8:12] + 1j * residuals[20:24])
        if max(target_defect, rec1, rec2) >= RESIDUAL_TOL_SECOND:
            continue
        angles = BangAngles(*x)
        solutions.append(
            BangSolution(
                angles=angles,
                ratio=ratio,
                theta_tar=theta_tar,
                area=angles.area,
                residual=float(np.linalg.norm(residuals)),
            )
        )
    if not solutions:
        raise SolverError(
            f"no second-order solution at ratio={ratio}, theta={theta_tar:.6g}, "
            f"eta={eta}"
        )
    return min(solutions, key=lambda s: s.area)


def duration_curve(theta_tar: float, ratios) -> list[tuple[float, float, str]]:
    """Minimal pulse area versus frequency ratio; failures are recorded."""
    rows = []
    for ratio in ratios:
        try:
            solution = solve_first_order(ratio, theta_tar)
            rows.append((float(ratio), solution.area, "ok"))
        except (SolverError, ValueError) as exc:
            rows.append((float(ratio), math.nan, f"error:{exc}"))
    return rows


def table_rows() -> list[BangSolution]:
    """First-order solutions over the published grid of targets and ratios."""
    return [
        solve_first_order(ratio, math.radians(theta_deg))
        for theta_deg in TABLE_TARGETS_DEG
        for ratio in TABLE_RATIOS
    ]
