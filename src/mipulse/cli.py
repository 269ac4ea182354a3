"""Command-line interface for pulse design, simulation, and sweeps.

Frequencies are entered in Hz (converted internally to angular units),
angles in degrees.  Every design or scan command writes a JSON sidecar
embedding the fully resolved configuration and the optimizer seed, so
identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bangbang import SolverError, solve_first_order, solve_second_order, table_rows
from .fidelity import (
    GateTarget,
    p0_from_temperature,
    thermal_fidelity,
    thermal_limit_exact,
    thermal_limit_leading,
)
from .model import MODELS, SystemParams
from .optimize import (
    OptimizeFailure,
    composite_reference,
    control_problem,
    min_time_search,
    solve_fixed_duration,
)
from .propagate import evolve
from .pulse import load_pulse, make_constant, make_torf, save_pulse, shift_axis
from .scan import error_vs_p0, robustness_map, sweep_ratio, write_csv, write_metadata

TWO_PI = 2 * math.pi


def _add_system_args(parser, rabi=True, eta=True, levels=True):
    """The physical parameters; each command takes only those it reads."""
    parser.add_argument("--omega-hz", type=float, default=100e3,
                        help="trap frequency in Hz (default 100 kHz)")
    if rabi:
        parser.add_argument("--rabi-hz", type=float, default=20e3,
                            help="Rabi frequency in Hz (default 20 kHz)")
    if eta:
        parser.add_argument("--eta", type=float, default=0.2156,
                            help="Lamb-Dicke parameter (default 0.2156)")
    if levels:
        parser.add_argument("--m-levels", type=int, default=20,
                            help="motional truncation M (default 20)")


def _add_occupation_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--p0", type=float, help="ground-state occupation in (0, 1]")
    group.add_argument("--temperature-uk", type=float,
                       help="temperature in microkelvin (converted to p0)")


def _resolve_p0(args) -> float:
    if args.p0 is not None:
        return args.p0
    return p0_from_temperature(args.temperature_uk * 1e-6, TWO_PI * args.omega_hz)


def _rabi(args) -> float:
    """The angular Rabi rate of ``--rabi-hz``, checked before any use."""
    if not (math.isfinite(args.rabi_hz) and args.rabi_hz > 0):
        raise ValueError(f"rabi must be positive and finite, got {args.rabi_hz} Hz")
    return TWO_PI * args.rabi_hz


def _grid(start: float, stop: float, step: float, name: str) -> np.ndarray:
    """The grid ``start, start + step, ...`` through ``stop``, checked first."""
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{name} bounds must be finite, got {start} and {stop}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"{name} step must be positive and finite, got {step}")
    return np.arange(start, stop + 0.5 * step, step)


def _target(args) -> GateTarget:
    return GateTarget(math.radians(args.theta), math.radians(args.axis))


def _write_design(path, pulse, config, extra):
    save_pulse(pulse, path)
    sidecar = {"config": config, "result": extra, "tool_version": __version__}
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_dict(args, skip=("func",)) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _cmd_design_bang(args, order: str) -> int:
    rabi = _rabi(args)
    ratio = args.omega_hz / args.rabi_hz
    theta = math.radians(args.theta)
    if order == "first":
        solution = solve_first_order(ratio, theta)
        kind = "recoil-free"
    else:
        solution = solve_second_order(ratio, theta, args.eta)
        kind = "second-order recoil-free"
    pulse = shift_axis(make_torf(solution.angles, rabi), math.radians(args.axis))
    pulse = pulse.relabel(f"{kind} bang-bang theta={args.theta}deg ratio={ratio:.6g}")
    _write_design(args.out, pulse, _config_dict(args), {
        "angles_rad": list(solution.angles.angles),
        "pulse_area_rad": solution.area,
        "residual": solution.residual,
        "duration_s": pulse.duration,
    })
    print(f"wrote {args.out}: area {solution.area / math.pi:.4f} pi, "
          f"residual {solution.residual:.2e}")
    return 0


def _cmd_design_optimized(args, preset: str) -> int:
    rabi = _rabi(args)
    ratio = math.inf if args.omega_hz == math.inf else args.omega_hz / args.rabi_hz
    problem = control_problem(preset, _target(args), ratio, args.eta)
    if args.restarts < 1:
        # checked on both paths, so a sidecar's config always holds a valid value
        raise ValueError(f"restarts must be >= 1, got {args.restarts}")
    try:
        if args.duration_us is not None:
            result = solve_fixed_duration(
                problem, args.duration_us * 1e-6, rabi,
                restarts=args.restarts, seed=args.seed, label=preset,
            )
        else:
            result = min_time_search(problem, rabi, seed=args.seed, label=preset)
    except OptimizeFailure as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 1
    _write_design(args.out, result.pulse, _config_dict(args), {
        "cost": result.cost,
        "constraint_norms": result.constraint_norms,
        "target_defect": result.target_defect,
        "iterations": result.iterations,
        "converged": result.converged,
        "duration_s": result.pulse.duration,
    })
    status = "converged" if result.converged else "NOT converged"
    print(f"wrote {args.out}: T = {result.pulse.duration * 1e6:.3f} us, {status}, "
          f"cost {result.cost:.2e}")
    return 0 if result.converged else 1


def _cmd_simulate(args) -> int:
    pulse = load_pulse(args.pulse)
    params = SystemParams(
        omega=TWO_PI * args.omega_hz,
        rabi=pulse.rabi,
        eta=args.eta,
        truncation=args.m_levels,
        delta_detuning=TWO_PI * args.ddelta_hz,
        delta_rabi=TWO_PI * args.domega_hz,
    )
    p0 = _resolve_p0(args)
    report = thermal_fidelity(evolve(params, pulse, args.model), _target(args), p0)
    payload = {
        "config": _config_dict(args),
        "p0": p0,
        "thermal_fidelity": report.thermal,
        "gate_error": report.error,
        "per_m_fidelity": list(report.per_m),
        "tool_version": __version__,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"gate error {report.error:.6e} at p0 = {p0:.6f}")
    return 0


def _write_sweep(result, args) -> int:
    write_csv(result, args.out)
    write_metadata(result, str(args.out) + ".meta.json",
                   extra={"config": _config_dict(args)})
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _cmd_scan_ratio(args) -> int:
    rabi = _rabi(args)
    ratios = _grid(args.lmin, args.lmax, args.lstep, "ratio")
    if args.pulse:
        source = load_pulse(args.pulse)
    else:
        theta = math.radians(args.theta)

        def source(_ratio, _theta=theta, _rabi=rabi):
            return make_constant(
                _theta, _rabi, speed_correction=args.corrected, eta=args.eta
            )

    result = sweep_ratio(
        source, ratios, args.model, _resolve_p0(args), _target(args),
        eta=args.eta, truncation=args.m_levels, jobs=args.jobs,
    )
    return _write_sweep(result, args)


def _cmd_scan_map(args) -> int:
    rabi_ref = _rabi(args)
    if args.n_grid < 1:
        raise ValueError(f"--n-grid must be >= 1, got {args.n_grid}")
    if not (math.isfinite(args.span) and args.span >= 0):
        raise ValueError(f"span must be finite and >= 0, got {args.span}")
    pulse = load_pulse(args.pulse)
    params = SystemParams(
        omega=TWO_PI * args.omega_hz, rabi=pulse.rabi,
        eta=args.eta, truncation=args.m_levels,
    )
    grid = np.linspace(-args.span, args.span, args.n_grid)
    result = robustness_map(
        pulse, grid, grid, _resolve_p0(args), _target(args), params,
        rabi_ref=rabi_ref, jobs=args.jobs,
    )
    return _write_sweep(result, args)


def _cmd_scan_p0(args) -> int:
    p0_grid = _grid(args.p0_min, args.p0_max, args.p0_step, "p0")
    pulses = [load_pulse(path) for path in args.pulse]
    rabi = pulses[0].rabi
    params = SystemParams(
        omega=TWO_PI * args.omega_hz, rabi=rabi,
        eta=args.eta, truncation=args.m_levels,
    )
    result = error_vs_p0(pulses, p0_grid, _target(args), params, model=args.model)
    return _write_sweep(result, args)


def _cmd_limit(args) -> int:
    theta = math.radians(args.theta)
    p0 = _resolve_p0(args)
    exact = thermal_limit_exact(p0, args.eta, theta)
    leading = thermal_limit_leading(p0, args.eta, theta)
    print(json.dumps({
        "p0": p0,
        "eta": args.eta,
        "theta_deg": args.theta,
        "error_floor_exact": exact,
        "error_floor_leading": leading,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_table1(args) -> int:
    rows = table_rows()
    header = f"{'theta_tar':>9} {'ratio':>5} {'theta1':>10} {'theta2':>10} {'theta3':>10} {'residual':>9}"
    lines = [header]
    for solution in rows:
        t1, t2, t3 = solution.angles_deg
        lines.append(
            f"{math.degrees(solution.theta_tar):9.0f} {solution.ratio:5.0f} "
            f"{t1:10.4f} {t2:10.4f} {t3:10.4f} {solution.residual:9.1e}"
        )
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("theta_tar_deg,ratio,theta1_deg,theta2_deg,theta3_deg,residual\n")
            for solution in rows:
                t1, t2, t3 = solution.angles_deg
                fh.write(
                    f"{math.degrees(solution.theta_tar)!r},{solution.ratio!r},"
                    f"{t1!r},{t2!r},{t3!r},{solution.residual!r}\n"
                )
    return 0


def _cmd_composite(args) -> int:
    pulse = composite_reference(args.name, _rabi(args), args.eta)
    _write_design(args.out, pulse, _config_dict(args),
                  {"duration_s": pulse.duration})
    print(f"wrote {args.out}: T = {pulse.duration * 1e6:.2f} us")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipulse",
        description="Design and simulate motion-insensitive single-qubit pulses",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def design_common(p, eta=True):
        _add_system_args(p, eta=eta, levels=False)
        p.add_argument("--theta", type=float, required=True, help="target angle, degrees")
        p.add_argument("--axis", type=float, default=0.0,
                       help="target axis in the equatorial plane, degrees")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed of the search, recorded in the sidecar; "
                            "the bang-bang searches (design-torf, design-torf2) "
                            "are deterministic and ignore it")
        p.add_argument("--out", required=True, help="output pulse file")

    for name, order in (("design-torf", "first"), ("design-torf2", "second")):
        p = sub.add_parser(name, help=f"{order}-order recoil-free bang-bang pulse")
        design_common(p, eta=order == "second")
        p.set_defaults(func=lambda a, _order=order: _cmd_design_bang(a, _order))

    for name, preset, blurb in (
        ("design-tod", "disentangle", "disentangling smooth-phase pulse"),
        ("design-robust", "robust", "robust motion-insensitive pulse"),
    ):
        p = sub.add_parser(name, help=blurb)
        design_common(p)
        p.add_argument("--duration-us", type=float, default=None,
                       help="fixed duration; omit to search the minimum time")
        p.add_argument("--restarts", type=int, default=8,
                       help="random starts of the fixed-duration solve (--duration-us), "
                            "at least 1 (default 8); the minimum-time search gives "
                            "each area one start")
        p.set_defaults(func=lambda a, _preset=preset: _cmd_design_optimized(a, _preset))

    p = sub.add_parser("simulate", help="evolve a pulse file and report fidelity")
    _add_system_args(p, rabi=False)
    p.add_argument("--pulse", required=True)
    p.add_argument("--model", choices=MODELS, default="full")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--axis", type=float, default=0.0)
    p.add_argument("--ddelta-hz", type=float, default=0.0, help="detuning offset, Hz")
    p.add_argument("--domega-hz", type=float, default=0.0, help="Rabi offset, Hz")
    p.add_argument("--out", default=None, help="optional JSON report path")
    _add_occupation_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scan-ratio", help="error vs trap-to-drive frequency ratio")
    _add_system_args(p)
    p.add_argument("--pulse", default=None, help="pulse file (default: constant pulse family)")
    p.add_argument("--theta", type=float, default=180.0)
    p.add_argument("--axis", type=float, default=0.0)
    p.add_argument("--corrected", action="store_true",
                   help="slowdown-corrected constant-pulse duration")
    p.add_argument("--model", choices=MODELS, default="lamb_dicke")
    p.add_argument("--lmin", type=float, default=2.0)
    p.add_argument("--lmax", type=float, default=20.0)
    p.add_argument("--lstep", type=float, default=0.05)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_occupation_args(p)
    p.set_defaults(func=_cmd_scan_ratio)

    p = sub.add_parser("scan-map", help="error map over laser offsets (full model)")
    _add_system_args(p)
    p.add_argument("--pulse", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--axis", type=float, default=0.0)
    p.add_argument("--span", type=float, default=0.25,
                   help="half-width of the offset grid in units of the Rabi frequency")
    p.add_argument("--n-grid", type=int, default=81)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_occupation_args(p)
    p.set_defaults(func=_cmd_scan_map)

    p = sub.add_parser("scan-p0", help="error vs ground-state occupation")
    _add_system_args(p, rabi=False)
    p.add_argument("--pulse", required=True, nargs="+")
    p.add_argument("--model", choices=MODELS, default="second_order")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--axis", type=float, default=0.0)
    p.add_argument("--p0-min", type=float, default=0.85)
    p.add_argument("--p0-max", type=float, default=0.999)
    p.add_argument("--p0-step", type=float, default=0.005)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan_p0)

    p = sub.add_parser("limit", help="thermal-entanglement error floor")
    p.add_argument("--eta", type=float, default=0.2156)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--omega-hz", type=float, default=100e3)
    _add_occupation_args(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("table1", help="regenerate the bang-bang angle table")
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("composite", help="write a library composite pulse")
    p.add_argument("--name", default="jones-5a")
    p.add_argument("--rabi-hz", type=float, default=20e3)
    p.add_argument("--eta", type=float, default=0.2156)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_composite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, OptimizeFailure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
