import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from mipulse.cli import main
from mipulse.pulse import load_pulse


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
