import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mipulse import optimize
from mipulse.cli import main
from mipulse.pulse import load_pulse, make_constant, save_pulse


def test_design_torf_writes_pulse_and_sidecar(tmp_path, capsys):
    out = tmp_path / "torf.json"
    code = main([
        "design-torf", "--theta", "90", "--omega-hz", "100e3",
        "--rabi-hz", "20e3", "--out", str(out),
    ])
    assert code == 0
    pulse = load_pulse(out)
    assert pulse.area / math.pi == pytest.approx(0.6077, abs=2e-4)
    sidecar = json.loads((tmp_path / "torf.json.meta.json").read_text())
    assert sidecar["config"]["theta"] == 90.0
    assert sidecar["config"]["seed"] == 0
    assert sidecar["result"]["residual"] < 1e-10


def test_design_torf_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["design-torf", "--theta", "45", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = json.loads((tmp_path / "a.json.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.json.meta.json").read_text())
    meta_a["config"].pop("out"), meta_b["config"].pop("out")
    assert meta_a == meta_b


def test_design_torf2_published_area(tmp_path):
    out = tmp_path / "torf2.json"
    code = main(["design-torf2", "--theta", "90", "--out", str(out)])
    assert code == 0
    pulse = load_pulse(out)
    assert abs(pulse.area / math.pi - 0.6751) / 0.6751 < 0.01
    assert len(pulse.segments) == 9


def test_design_torf2_independent_of_seed(tmp_path):
    # the search ignores --seed; a local minimum 28% longer lies close by
    outs = [tmp_path / f"torf2_{seed}.json" for seed in (0, 36, 62)]
    for seed, out in zip((0, 36, 62), outs):
        assert main(["design-torf2", "--theta", "90", "--seed", str(seed),
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    sidecar = json.loads((tmp_path / "torf2_0.json.meta.json").read_text())
    assert abs(sidecar["result"]["pulse_area_rad"] - 2.1214477756080843) <= 1e-12


def test_design_torf_independent_of_seed(tmp_path):
    # the search ignores --seed; at ratio 5.16087 a solution 76% longer
    # (0.507249 pi) lies close by
    outs = [tmp_path / f"torf_{seed}.json" for seed in (0, 1, 3)]
    for seed, out in zip((0, 1, 3), outs):
        assert main(["design-torf", "--theta", "10", "--omega-hz", "103217.4",
                     "--seed", str(seed), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    sidecar = json.loads((tmp_path / "torf_0.json.meta.json").read_text())
    assert abs(sidecar["result"]["pulse_area_rad"] / math.pi - 0.28809724305616) <= 1e-9


def test_design_torf2_bound_minimum_drops_segments(tmp_path):
    # theta5 = 0 exactly, so the middle segment vanishes and its neighbours merge
    out = tmp_path / "torf2.json"
    assert main(["design-torf2", "--theta", "45", "--out", str(out)]) == 0
    assert len(load_pulse(out).segments) == 7


def test_simulate_reports_error(tmp_path, capsys):
    out = tmp_path / "torf.json"
    main(["design-torf", "--theta", "90", "--out", str(out)])
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--pulse", str(out), "--theta", "90", "--model", "lamb_dicke",
        "--p0", "1.0", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["gate_error"] < 1e-5
    assert payload["config"]["model"] == "lamb_dicke"
    assert len(payload["per_m_fidelity"]) == 17  # truncation 20, margin 4


def test_simulate_with_temperature(tmp_path):
    out = tmp_path / "torf.json"
    main(["design-torf", "--theta", "180", "--out", str(out)])
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--pulse", str(out), "--theta", "180",
        "--temperature-uk", "1.0", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert 0.988 <= payload["p0"] <= 0.992


def test_occupation_flags_are_exclusive(tmp_path):
    out = tmp_path / "torf.json"
    main(["design-torf", "--theta", "90", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["simulate", "--pulse", str(out), "--theta", "90",
              "--p0", "0.9", "--temperature-uk", "1.0"])
    with pytest.raises(SystemExit):
        main(["simulate", "--pulse", str(out), "--theta", "90"])


def test_scan_ratio_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "scan-ratio", "--theta", "180", "--model", "lamb_dicke", "--p0", "1.0",
        "--lmin", "4", "--lmax", "5", "--lstep", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,infidelity,status"
    assert len(lines) == 3
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["config"]["lstep"] == 1.0


def test_scan_map_small_grid(tmp_path):
    pulse_path = tmp_path / "torf.json"
    main(["design-torf", "--theta", "180", "--out", str(pulse_path)])
    out = tmp_path / "map.csv"
    code = main([
        "scan-map", "--pulse", str(pulse_path), "--theta", "180", "--p0", "0.95",
        "--span", "0.1", "--n-grid", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "ddelta_over_omega,domega_over_omega,infidelity,status"
    assert len(lines) == 10


def test_scan_p0_with_bound_column(tmp_path):
    pulse_path = tmp_path / "torf.json"
    main(["design-torf", "--theta", "90", "--out", str(pulse_path)])
    out = tmp_path / "p0.csv"
    code = main([
        "scan-p0", "--pulse", str(pulse_path), "--theta", "90",
        "--p0-min", "0.9", "--p0-max", "0.99", "--p0-step", "0.09",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pulse,p0,infidelity,recoil_free_limit,status"
    assert len(lines) >= 3


def test_scan_p0_rejects_pulses_at_different_rabi_rates(tmp_path, capsys):
    fast, slow = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["design-torf", "--theta", "90", "--out", str(fast)]) == 0
    assert main(["design-torf", "--theta", "90", "--omega-hz", "50e3", "--rabi-hz", "10e3",
                 "--out", str(slow)]) == 0
    out = tmp_path / "p0.csv"
    code = main([
        "scan-p0", "--pulse", str(fast), str(slow), "--theta", "90",
        "--p0-min", "0.95", "--p0-max", "0.95", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_limit_cross_formula_agreement(capsys):
    code = main(["limit", "--p0", "0.98", "--eta", "0.2156", "--theta", "180"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    exact, lead = payload["error_floor_exact"], payload["error_floor_leading"]
    assert abs(lead / exact - 1) < 0.01


def test_table1_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["table1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 16  # header + 15 rows
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 16
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(26.36, abs=0.02)


def test_composite_command(tmp_path):
    out = tmp_path / "comp.json"
    code = main(["composite", "--name", "jones-5a", "--out", str(out)])
    assert code == 0
    pulse = load_pulse(out)
    assert pulse.duration == pytest.approx(125e-6, rel=1e-9)


def test_unknown_composite_fails(tmp_path, capsys):
    code = main(["composite", "--name", "nope", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_design_tod_fixed_duration(tmp_path):
    out = tmp_path / "tod.json"
    code = main([
        "design-tod", "--theta", "90", "--duration-us", "49.2",
        "--restarts", "4", "--out", str(out),
    ])
    assert code == 0
    sidecar = json.loads((tmp_path / "tod.json.meta.json").read_text())
    assert sidecar["result"]["converged"] is True
    assert all(v < 1e-8 for v in sidecar["result"]["constraint_norms"].values())


def test_design_robust_infeasible_duration_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "robust.json"
    code = main([
        "design-robust", "--theta", "180", "--duration-us", "40",
        "--restarts", "1", "--out", str(out),
    ])
    assert code == 1
    sidecar = json.loads((tmp_path / "robust.json.meta.json").read_text())
    assert sidecar["result"]["converged"] is False


def test_non_finite_physics_input_exits_nonzero(tmp_path, capsys):
    pulse_path = tmp_path / "torf.json"
    main(["design-torf", "--theta", "180", "--out", str(pulse_path)])
    out = tmp_path / "map.csv"
    code = main([
        "scan-map", "--pulse", str(pulse_path), "--theta", "180", "--p0", "0.95",
        "--omega-hz", "nan", "--n-grid", "2", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()
    assert "omega must be finite" in capsys.readouterr().err
    code = main([
        "simulate", "--pulse", str(pulse_path), "--theta", "180", "--p0", "1.0",
        "--ddelta-hz", "inf",
    ])
    assert code == 1
    assert "delta_detuning must be finite" in capsys.readouterr().err


def test_design_tod_min_time_deterministic(tmp_path):
    # the minimum-time path: coarse scan, free-time SLSQP from the bracket
    # profile and the final polish, twice in one process
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main([
            "design-tod", "--theta", "60", "--omega-hz", "inf", "--restarts", "1",
            "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = json.loads((tmp_path / "a.json.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.json.meta.json").read_text())
    meta_a["config"].pop("out"), meta_b["config"].pop("out")
    assert meta_a == meta_b
    assert load_pulse(a).duration == pytest.approx(39.993e-6, abs=1e-9)


def test_min_time_descents_end_on_their_plateau(tmp_path, monkeypatch):
    # no L-BFGS-B descent runs on until its line search fails (status 2)
    statuses, minimize = [], optimize.minimize

    def recording(*args, **kwargs):
        fit = minimize(*args, **kwargs)
        if kwargs["method"] == "L-BFGS-B":
            statuses.append(fit.status)
        return fit

    monkeypatch.setattr(optimize, "minimize", recording)
    assert main([
        "design-tod", "--theta", "60", "--omega-hz", "inf", "--seed", "0",
        "--out", str(tmp_path / "tod.json"),
    ]) == 0
    assert statuses and 2 not in statuses


def test_design_tod_accepts_infinite_trap_frequency(tmp_path):
    out = tmp_path / "tod.json"
    code = main([
        "design-tod", "--theta", "90", "--omega-hz", "inf", "--duration-us", "47.1",
        "--restarts", "1", "--out", str(out),
    ])
    assert code == 0
    assert json.loads((tmp_path / "tod.json.meta.json").read_text())["result"]["converged"]


@pytest.mark.parametrize("argv", [
    ["design-torf", "--theta", "90", "--omega-hz", "nan"],
    ["design-tod", "--theta", "90", "--omega-hz", "nan", "--duration-us", "47.1",
     "--restarts", "1"],
    ["scan-ratio", "--p0", "nan", "--lmax", "2.1"],
])
def test_nan_input_exits_nonzero_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "nan" in capsys.readouterr().err.lower()


#: Stands for a valid pulse file, kept outside the test's output directory.
PULSE = object()


@pytest.fixture(scope="module")
def torf_pulse(tmp_path_factory):
    path = tmp_path_factory.mktemp("pulse") / "torf.json"
    assert main(["design-torf", "--theta", "90", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["design-tod", "--theta", "60", "--eta", "nan"], "eta must be in [0, 1)"),
    (["design-torf2", "--theta", "90", "--eta", "1.2"], "eta must be in [0, 1)"),
    (["design-torf2", "--theta", "90", "--eta", "nan"], "eta must be in [0, 1)"),
    (["design-tod", "--theta", "90", "--duration-us", "nan"],
     "duration must be positive and finite"),
    (["design-robust", "--theta", "90", "--duration-us", "-5"],
     "duration must be positive and finite"),
    (["design-tod", "--theta", "90", "--duration-us", "50", "--restarts", "-3"],
     "restarts must be >= 1"),
    (["design-tod", "--theta", "90", "--rabi-hz", "-20000", "--duration-us", "50"],
     "rabi must be positive and finite"),
    (["design-torf", "--theta", "90", "--rabi-hz", "0"], "rabi must be positive and finite"),
    (["design-tod", "--theta", "60", "--omega-hz", "inf", "--rabi-hz", "0"],
     "rabi must be positive and finite"),
    (["scan-ratio", "--rabi-hz", "0", "--p0", "1.0", "--lmax", "2.1"],
     "rabi must be positive and finite"),
    (["composite", "--rabi-hz", "0"], "rabi must be positive and finite"),
    (["scan-ratio", "--p0", "1.0", "--lstep", "0"],
     "ratio step must be positive and finite"),
    (["scan-ratio", "--p0", "1.0", "--lstep", "nan"],
     "ratio step must be positive and finite"),
    (["scan-ratio", "--p0", "1.0", "--lmin", "nan"], "ratio bounds must be finite"),
    (["scan-ratio", "--p0", "1.0", "--lmax", "inf"], "ratio bounds must be finite"),
    (["scan-p0", "--pulse", PULSE, "--theta", "90", "--p0-step", "0"],
     "p0 step must be positive and finite"),
    (["scan-p0", "--pulse", PULSE, "--theta", "90", "--p0-step", "-0.01"],
     "p0 step must be positive and finite"),
    (["scan-p0", "--pulse", PULSE, "--theta", "90", "--p0-min", "nan"],
     "p0 bounds must be finite"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--span", "nan",
      "--n-grid", "2"], "span must be finite and >= 0"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--span", "-0.1",
      "--n-grid", "2"], "span must be finite and >= 0"),
    (["scan-ratio", "--p0", "1.0", "--eta", "nan", "--lmax", "2"], "eta must be in [0, 1)"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--m-levels", "2",
      "--n-grid", "2"], "truncation 2 is smaller than the margin 4"),
    (["scan-p0", "--pulse", PULSE, "--theta", "90", "--m-levels", "3"],
     "truncation 3 is smaller than the margin 4"),
    (["design-tod", "--theta", "90", "--duration-us", "50", "--restarts", "0"],
     "restarts must be >= 1"),
    (["scan-p0", "--pulse", PULSE, "--theta", "90", "--p0-min", "0.9", "--p0-max", "0.5"],
     "p0 grid must be nonempty"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--n-grid", "-1"],
     "--n-grid must be >= 1"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--n-grid", "0"],
     "--n-grid must be >= 1"),
    (["design-tod", "--theta", "60", "--omega-hz", "inf", "--restarts", "0"],
     "restarts must be >= 1"),
    (["scan-ratio", "--p0", "1.0", "--lmax", "2.1", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["scan-map", "--pulse", PULSE, "--theta", "180", "--p0", "0.95", "--n-grid", "2",
      "--jobs", "-4"], "jobs must be >= 1, got -4"),
])
def test_bad_design_input_exits_nonzero_without_output(
    tmp_path, capsys, torf_pulse, argv, message
):
    out = tmp_path / "out.json"
    argv = [torf_pulse if arg is PULSE else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    assert message in capsys.readouterr().err


def test_simulate_nan_target_exits_nonzero(tmp_path, capsys):
    pulse_path = tmp_path / "torf.json"
    main(["design-torf", "--theta", "90", "--out", str(pulse_path)])
    code = main(["simulate", "--pulse", str(pulse_path), "--theta", "nan", "--p0", "1.0"])
    assert code == 1
    assert "theta must be finite" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mipulse.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.strip() == "[]"


def test_scan_commands_leave_scipy_unloaded(tmp_path):
    # the scan workloads pay neither scipy's import time nor its memory
    pulse = tmp_path / "flip.json"
    save_pulse(make_constant(math.pi, 2 * math.pi * 20e3), pulse)
    commands = [
        ["scan-ratio", "--theta", "180", "--p0", "1.0", "--lmax", "2.1"],
        ["scan-p0", "--pulse", str(pulse), "--theta", "180", "--p0-min", "0.98"],
        ["scan-map", "--pulse", str(pulse), "--theta", "180", "--p0", "0.95",
         "--n-grid", "2"],
    ]
    for i, argv in enumerate(commands):
        argv += ["--out", str(tmp_path / f"scan{i}.csv")]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from mipulse.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m == 'multiprocessing'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


@pytest.mark.parametrize("command, flag, value", [
    ("design-torf", "--m-levels", "20"),
    ("design-torf2", "--m-levels", "20"),
    ("design-tod", "--m-levels", "20"),
    ("design-robust", "--m-levels", "20"),
    ("design-torf", "--eta", "0.2156"),
    ("simulate", "--rabi-hz", "20e3"),
    ("scan-p0", "--rabi-hz", "20e3"),
])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag, value):
    argv = {
        "simulate": ["--pulse", "p.json", "--theta", "90", "--p0", "1.0"],
        "scan-p0": ["--pulse", "p.json", "--theta", "90"],
    }.get(command, ["--theta", "90"])
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()
