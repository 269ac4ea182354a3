"""Solvers for recoil-free bang-bang pulse angles.

For x-axis bang-bang pulses the recoil-free control problem collapses to a
small nonlinear system in the rotation angles, and both searches are
deterministic.  At first order the three-angle palindrome must satisfy one
linear equation (the net rotation reaches the target) plus two
trigonometric equations equivalent to a vanishing first-harmonic recoil
integral, solved by Newton's method with its exact Jacobian (sums of
cosines) from fixed lattices of starts.  The second-order five-angle
constraints leave a curve of solutions.  A fixed lattice of starts is
projected onto the curve by bounded least squares of the exact constraint
integrals, with the exact Jacobian in the segment durations from
:func:`~mipulse.toggling.evaluate_controls` folded onto the five angles,
and the lowest projections slide along the curve to the least pulse area,
stopping exactly on an angle bound when the minimum lies there.

Solutions are never returned unverified: every candidate is re-checked
against the residual system and the minimal-duration branch is selected.
"""

from __future__ import annotations

import functools
import itertools
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
    """No start led to a solution within the residual bound."""


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


def solve_first_order(ratio: float, theta_tar: float) -> BangSolution:
    """Minimal-duration three-angle solution at the given frequency ratio.

    The search is deterministic.  Newton's method starts from a 6x6
    lattice over the physical angle box and from two 4x4 lattices of
    (theta1, theta2) at cell centres, over ``[0, pi/2]^2`` and over
    ``[0, min(pi/2, 10/ratio)]^2``, since the basins shrink as 1/ratio
    (plus a denser grid at ratios above 8); the constant-pulse corner
    (0, 0, target) is probed directly since it is the exact solution
    whenever it satisfies the system.  Raises :class:`SolverError` if
    nothing converges.
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

    # the 6x6 lattice covers moderate ratios; basin widths shrink as 1/ratio
    lattice = np.linspace(0.02, 1.45, 6)
    candidates.extend(np.array([a, b]) for a in lattice for b in lattice)
    # one 4x4 lattice when 10 / ratio does not cap the box
    for width in dict.fromkeys((0.5 * math.pi, min(0.5 * math.pi, 10.0 / ratio))):
        centres = (np.arange(4) + 0.5) * width / 4
        candidates.extend(np.array([a, b]) for a in centres for b in centres)

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


@functools.lru_cache(maxsize=1)
def _palindrome_controls(x_bytes: bytes, ratio: float, kappa: float):
    """The palindrome's controls and duration derivatives at the float64 angles
    ``x_bytes``.  scipy's ``trf`` asks for the residuals, then the Jacobian,
    at one x: both read this evaluation (its ``values`` are the same bits as
    without derivatives)."""
    x = np.frombuffer(x_bytes)
    return evaluate_controls(
        _PALINDROME_PHASES, x[_PALINDROME], 1.0, ratio, kappa, _RECOIL_KINDS,
        want_grad=True, wrt="durations",
    )


def _second_order_residuals(
    x: np.ndarray, ratio: float, theta_tar: float, kappa: float
) -> np.ndarray:
    u_qubit, values, _, _ = _palindrome_controls(x.tobytes(), ratio, kappa)
    target = su2_rotation(theta_tar, 0.0)
    return _split_complex(
        [(u_qubit - target).ravel(), values["recoil1"].ravel(), values["recoil2"].ravel()]
    )


def _second_order_jacobian(x: np.ndarray, ratio: float, kappa: float) -> np.ndarray:
    """Exact Jacobian of :func:`_second_order_residuals` in the five angles.

    Each angle sets the duration of one or two segments, so its column is
    the sum of those segments' duration derivatives.
    """
    u_qubit, _, qubit_grad, grads = _palindrome_controls(x.tobytes(), ratio, kappa)
    n = len(_PALINDROME)
    per_segment = [(u_qubit @ qubit_grad).reshape(n, 4)]
    per_segment += [grads[kind].reshape(n, 4) for kind in _RECOIL_KINDS]
    return _split_complex(per_segment).T @ _FOLD


_AREA_GRAD = np.array([2.0, 2.0, 2.0, 2.0, 1.0])
_ALL_FREE = np.ones(5, dtype=bool)
#: Largest arc-length step of the slide before the minimum is bracketed.
_MAX_STEP = 0.1


def _project_to_manifold(fun, jac, x0, max_nfev, free=_ALL_FREE):
    """A solution near ``x0`` by bounded least squares, with the exact
    Jacobian; the angles not marked ``free`` are held at 0.

    Returns the point and its residual norm.
    """

    def full(y):
        x = np.zeros(len(free))
        x[free] = y
        return x

    fit = least_squares(
        lambda y: fun(full(y)),
        np.clip(x0[free], 0.0, 2 * math.pi),
        jac=lambda y: jac(full(y))[:, free],
        bounds=(0.0, 2 * math.pi),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=max_nfev,
    )
    return full(fit.x), float(np.linalg.norm(fit.fun))


def _tangent(jac_x: np.ndarray, along: np.ndarray) -> np.ndarray:
    """Unit tangent of the solution curve, the null vector of its exact
    Jacobian ``jac_x`` (last right singular vector), signed along ``along``."""
    tangent = np.linalg.svd(jac_x)[2][-1]
    return tangent if tangent @ along >= 0 else -tangent


def _slide_to_minimum(fun, jac, x0, max_steps=100):
    """Least-area point of the solution curve through ``x0``.

    The five-angle constraint system is rank deficient, so its solutions
    form a curve.  The slide follows it downhill in arc length ``sigma``
    (measured by the chords between accepted points) and finds the zero of
    the area's slope along the curve by secant steps.  Until a point with
    rising area brackets the zero, steps go downhill, at most
    ``_MAX_STEP``; where the secant does not point downhill the step is
    twice the last.  After, a secant step outside the bracket is replaced
    by its midpoint.  Each step moves along the tangent and projects back
    onto the curve.

    A step that would take an angle below zero stops on that bound: the
    angle is fixed at 0 and the other four are projected.  The bound point
    is the minimum when the area rises along the curve into the box;
    otherwise it brackets an interior minimum.  When the curve bends away
    before it reaches the bound (the four-angle projection finds no
    solution), the step goes half way to the bound instead.
    """
    x = x0
    tangent = _tangent(jac(x), -_AREA_GRAD)
    sigma, slope = 0.0, float(_AREA_GRAD @ tangent)
    downhill, uphill, previous = (sigma, slope), None, None
    step = 0.01  # the first step is twice this
    for _ in range(max_steps):
        if slope == 0.0:
            break
        target = None
        if previous is not None and slope != previous[1]:
            target = sigma - slope * (sigma - previous[0]) / (slope - previous[1])
        if uphill is None:
            if target is None or target <= sigma:
                target = sigma + 2 * abs(step)
            target = min(target, sigma + _MAX_STEP)
        else:
            low, high = sorted((downhill[0], uphill[0]))
            if target is None or not low < target < high:
                target = 0.5 * (low + high)
        step = target - sigma
        if abs(step) < 1e-13:
            break

        move = step * tangent
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(move < 0, -x / move, np.inf)
        bound = int(np.argmin(reach))
        if reach[bound] <= 1.0:
            trial = x + reach[bound] * move
            free = np.arange(5) != bound
            new, norm = _project_to_manifold(fun, jac, trial, 200, free)
            if norm >= 1e-12:
                step *= 0.5 * reach[bound]
                bound = None
                new, norm = _project_to_manifold(fun, jac, x + step * tangent, 200)
        else:
            bound = None
            new, norm = _project_to_manifold(fun, jac, x + move, 200)
        if norm >= 1e-12:
            break

        new_tangent = _tangent(jac(new), tangent)
        if bound is not None and new_tangent[bound] * (_AREA_GRAD @ new_tangent) >= 0:
            # moving into the box (tangent component > 0) does not lower the area
            return new
        previous = (sigma, slope)
        sigma += math.copysign(float(np.linalg.norm(new - x)), step)
        x, tangent, slope = new, new_tangent, float(_AREA_GRAD @ new_tangent)
        if slope < 0:
            downhill = (sigma, slope)
        else:
            uphill = (sigma, slope)
    return x


def solve_second_order(ratio: float, theta_tar: float, eta: float) -> BangSolution:
    """Minimal-duration five-angle solution of the second-order problem.

    The search is deterministic.  Its starts are two lattices of 2^4 flip
    angles (theta1..theta4 at 0.25 and 0.75 of a box), with theta5 set by
    the net rotation ``theta_tar / (1 - eta^2/2)``.  One box is
    ``[0, 0.45 theta_tar]``; the other is capped at ``2 / ratio``, since
    the basins shrink as 1/ratio.  Bounded least squares with the exact
    Jacobian projects each start onto the solution curve, and the six
    lowest-area projections slide along it to the least area
    (:func:`_slide_to_minimum`), which ends exactly on a zero angle when
    the minimum lies on that bound.  Converged means the target defect
    and both recoil norms are below 1e-8; the least-area converged point
    is returned.
    """
    if not ratio > MIN_RATIO:
        raise ValueError(f"ratio must exceed {MIN_RATIO}, got {ratio}")
    if not 0 < theta_tar <= math.pi:
        raise ValueError(f"theta_tar must be in (0, pi], got {theta_tar}")
    if not 0 <= eta < 1:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    kappa = 1 - 0.5 * eta**2
    target_net = theta_tar / kappa

    def fun(x):
        return _second_order_residuals(x, ratio, theta_tar, kappa)

    def jac(x):
        return _second_order_jacobian(x, ratio, kappa)

    on_manifold: list[np.ndarray] = []
    # one lattice when 2 / ratio does not cap the box
    widths = dict.fromkeys((0.45 * theta_tar, min(0.45 * theta_tar, 2.0 / ratio)))
    for width in widths:
        for levels in itertools.product((0.25 * width, 0.75 * width), repeat=4):
            flips = np.array(levels)
            theta5 = target_net - 2 * (flips[0] + flips[2] - flips[1] - flips[3])
            x0 = np.append(flips, max(theta5, 0.05))
            x, norm = _project_to_manifold(fun, jac, x0, 2000)
            if norm < 1e-12:
                on_manifold.append(x)
    on_manifold.sort(key=lambda x: float(_AREA_GRAD @ x))

    solutions: list[BangSolution] = []
    for x0 in on_manifold[:6]:
        x = _slide_to_minimum(fun, jac, x0)
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
