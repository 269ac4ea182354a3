import json
import math

import numpy as np
import pytest

from mipulse.fidelity import GateTarget
from mipulse.model import SystemParams
from mipulse.pulse import PulseProgram, make_constant
from mipulse.bangbang import solve_first_order
from mipulse.pulse import make_torf
from mipulse import scan
from mipulse.scan import (
    error_vs_p0,
    robustness_map,
    sweep_ratio,
    write_csv,
    write_metadata,
)

RABI = 2 * math.pi * 20e3
ETA = 0.2156
KAPPA = 1 - 0.5 * ETA**2


def constant_flip_family(corrected=False):
    def factory(_ratio):
        return make_constant(math.pi, RABI, speed_correction=corrected, eta=ETA)

    return factory


def test_ratio_sweep_odd_minima():
    result = sweep_ratio(
        constant_flip_family(), [3.0, 4.0, 5.0], "lamb_dicke", 1.0,
        GateTarget(math.pi), eta=ETA,
    )
    errors = {row[0]: row[1] for row in result.rows}
    assert all(row[2] == "ok" for row in result.rows)
    assert errors[3.0] < errors[4.0] / 50
    assert errors[5.0] < errors[4.0] / 50


def test_ratio_sweep_corrected_minima_shifted():
    # slowdown-corrected flip: the dips sit at odd multiples of 1 - eta^2/2
    result = sweep_ratio(
        constant_flip_family(corrected=True), [7 * KAPPA, 7.0], "second_order", 1.0,
        GateTarget(math.pi), eta=ETA,
    )
    err_at_shifted, err_at_integer = result.rows[0][1], result.rows[1][1]
    assert err_at_shifted < err_at_integer / 20


def test_ratio_sweep_thermal_floor_near_bound():
    from mipulse.fidelity import thermal_limit_exact

    result = sweep_ratio(
        constant_flip_family(corrected=True), [7 * KAPPA], "second_order", 0.95,
        GateTarget(math.pi), eta=ETA,
    )
    bound = thermal_limit_exact(0.95, ETA, math.pi)
    assert abs(result.rows[0][1] / bound - 1) < 0.25


def test_ratio_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_ratio(constant_flip_family(), [], "lamb_dicke", 1.0, GateTarget(math.pi))


def test_ratio_sweep_flags_failed_points():
    result = sweep_ratio(
        constant_flip_family(), [5.0, -2.0], "lamb_dicke", 1.0, GateTarget(math.pi),
    )
    assert result.rows[0][2] == "ok"
    assert result.rows[1][2].startswith("error:")
    assert math.isnan(result.rows[1][1])


def clear_system_caches():
    from mipulse import model, operators, propagate

    operators.build_fock.cache_clear()
    model._static_part.cache_clear()
    model._displacement.cache_clear()
    propagate._gauge.cache_clear()


@pytest.mark.parametrize("model", ["full", "lamb_dicke", "second_order"])
def test_ratio_sweep_rows_same_cold_and_warm(model):
    # the shared operators are the same bits as fresh ones
    ratios = [2.5, 3.0, 4.75, 5.0]
    target = GateTarget(math.pi)
    clear_system_caches()
    cold = sweep_ratio(constant_flip_family(), ratios, model, 0.95, target, eta=ETA)
    warm = sweep_ratio(constant_flip_family(), ratios, model, 0.95, target, eta=ETA)
    assert all(row[2] == "ok" for row in cold.rows)
    assert repr(cold.rows) == repr(warm.rows)


def test_ratio_parallel_matches_serial():
    # the one target of the sweep travels to the workers with each point
    ratios = [3.0, 4.0, 5.0]
    target = GateTarget(math.pi / 2, 0.3)
    serial = sweep_ratio(constant_flip_family(), ratios, "second_order", 0.95, target)
    parallel = sweep_ratio(constant_flip_family(), ratios, "second_order", 0.95, target,
                           jobs=2)
    assert repr(serial.rows) == repr(parallel.rows)


def test_map_symmetry_at_zero_coupling():
    # with eta = 0 the error map is exactly symmetric under detuning sign
    pulse = make_constant(math.pi, RABI)
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=0.0, truncation=12)
    grid = [-0.15, 0.0, 0.15]
    result = robustness_map(pulse, grid, [0.0, 0.08], 0.95, GateTarget(math.pi), params)
    errors = {(row[0], row[1]): row[2] for row in result.rows}
    for dr in (0.0, 0.08):
        assert abs(errors[(-0.15, dr)] - errors[(0.15, dr)]) < 1e-10


def test_map_rows_follow_grid_order():
    pulse = make_constant(math.pi, RABI)
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=12)
    result = robustness_map(pulse, [-0.1, 0.1], [-0.05, 0.05], 0.95,
                            GateTarget(math.pi), params)
    coords = [(row[0], row[1]) for row in result.rows]
    assert coords == [(-0.1, -0.05), (-0.1, 0.05), (0.1, -0.05), (0.1, 0.05)]
    assert result.columns == (
        "ddelta_over_omega", "domega_over_omega", "infidelity", "status",
    )


def test_map_parallel_matches_serial():
    pulse = make_constant(math.pi, RABI)
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=12)
    grid = [-0.1, 0.0, 0.1]
    serial = robustness_map(pulse, grid, grid, 0.95, GateTarget(math.pi), params)
    parallel = robustness_map(pulse, grid, grid, 0.95, GateTarget(math.pi), params,
                              jobs=2)
    assert serial.rows == parallel.rows


def test_error_vs_p0_bound_column():
    solution = solve_first_order(5.0, math.pi / 2)
    torf = make_torf(solution.angles, RABI).relabel("torf")
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA)
    result = error_vs_p0([torf], [0.9, 0.99], GateTarget(math.pi / 2), params)
    from mipulse.fidelity import thermal_limit_exact

    for row in result.rows:
        assert row[4] == "ok"
        assert row[3] == pytest.approx(thermal_limit_exact(row[1], ETA, math.pi / 2))
    # first-order pulse at p0 = 0.9 sits within 25% of the recoil-free floor
    # only for the second-order recoil-free pulse; here just check ordering
    errors = {row[1]: row[2] for row in result.rows}
    assert errors[0.9] > errors[0.99]


def test_error_vs_p0_rejects_empty_grid_before_evolving(monkeypatch):
    def no_evolve(*args):
        raise AssertionError("a pulse was evolved")

    monkeypatch.setattr(scan, "evolve", no_evolve)
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA)
    pulse = make_constant(math.pi, RABI)
    for grid in ([], iter(()), np.arange(0.9, 0.5, 0.01)):
        with pytest.raises(ValueError, match="p0 grid must be nonempty"):
            error_vs_p0([pulse], grid, GateTarget(math.pi), params)


def test_p0_sweep_disentangling_gain():
    # near full ground-state occupation both pulses are recoil-limited and
    # comparable; at p0 = 0.9 the disentangling pulse beats the recoil-free
    # one by an order of magnitude while the latter tracks the bound column
    from mipulse.bangbang import solve_second_order
    from mipulse.fidelity import GateTarget as Target
    from mipulse.optimize import control_problem, solve_fixed_duration

    target = Target(math.pi / 2)
    torf2 = make_torf(solve_second_order(5.0, math.pi / 2, ETA).angles, RABI)
    torf2 = torf2.relabel("recoil-free")
    problem = control_problem("disentangle", target, ratio=5.0, eta=ETA)
    tod = solve_fixed_duration(problem, 49.2e-6, RABI, seed=0).pulse.relabel("tod")

    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA)
    result = error_vs_p0([torf2, tod], [0.9, 0.999], target, params)
    errors = {(row[0], row[1]): row[2] for row in result.rows}
    bounds = {(row[0], row[1]): row[3] for row in result.rows}
    assert errors[("tod", 0.9)] < errors[("recoil-free", 0.9)] / 5
    assert abs(errors[("recoil-free", 0.9)] / bounds[("recoil-free", 0.9)] - 1) < 0.25
    assert errors[("tod", 0.999)] > 0.05 * errors[("recoil-free", 0.999)]


def test_csv_and_metadata_round_trip(tmp_path):
    pulse = make_constant(math.pi, RABI)
    result = sweep_ratio(pulse, [4.0, 5.0], "lamb_dicke", 1.0, GateTarget(math.pi),
                         eta=ETA)
    csv_path = tmp_path / "sweep.csv"
    meta_path = tmp_path / "sweep.meta.json"
    write_csv(result, csv_path)
    write_metadata(result, meta_path, extra={"note": "test"})

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,infidelity,status"
    value = float(lines[2].split(",")[1])
    assert value == result.rows[1][1]  # full precision round trip

    meta = json.loads(meta_path.read_text())
    assert meta["model"] == "lamb_dicke"
    assert meta["p0"] == 1.0
    assert meta["truncation"] == 20
    assert meta["note"] == "test"
    assert "pulse_hash" in meta and "tool_version" in meta


def test_csv_deterministic_bytes(tmp_path):
    pulse = make_constant(math.pi, RABI)
    result = sweep_ratio(pulse, [4.0, 5.0], "lamb_dicke", 1.0, GateTarget(math.pi))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(result, a)
    write_csv(result, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweeps_reject_bad_occupation_before_the_grid():
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=12)
    pulse = make_constant(math.pi, RABI)
    for p0 in (math.nan, 0.0, 1.5):
        with pytest.raises(ValueError, match="p0 must be in"):
            sweep_ratio(constant_flip_family(), [5.0], "lamb_dicke", p0, GateTarget(math.pi))
        with pytest.raises(ValueError, match="p0 must be in"):
            robustness_map(pulse, [0.0], [0.0], p0, GateTarget(math.pi), params)


def test_sweeps_reject_shared_parameters_before_the_grid(monkeypatch):
    # eta and the truncation are shared by every point: no point may run
    def no_point(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(scan, "gate_error", no_point)
    monkeypatch.setattr(scan, "evolve", no_point)
    pulse = make_constant(math.pi, RABI)
    target = GateTarget(math.pi)
    for eta in (math.nan, -0.1, 1.0):
        with pytest.raises(ValueError, match=r"eta must be in \[0, 1\)"):
            sweep_ratio(constant_flip_family(), [5.0], "lamb_dicke", 1.0, target, eta=eta)
    small = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=3)
    message = "truncation 3 is smaller than the margin 4"
    with pytest.raises(ValueError, match=message):
        sweep_ratio(constant_flip_family(), [5.0], "lamb_dicke", 1.0, target, truncation=3)
    with pytest.raises(ValueError, match=message):
        robustness_map(pulse, [0.0], [0.0], 0.95, target, small)
    with pytest.raises(ValueError, match=message):
        error_vs_p0([pulse], [0.95], target, small)
    # evolve drives every pulse at params.rabi, so all pulses must share it
    params = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA)
    slow = make_constant(math.pi, RABI / 2).relabel("slow")
    with pytest.raises(ValueError, match="pulse 'slow' has Rabi rate"):
        error_vs_p0([pulse, slow], [0.95], target, params)


def test_ratio_sweep_hashes_each_distinct_pulse_once(monkeypatch):
    serialized = []
    serialize = scan.serialize

    def counted(pulse):
        serialized.append(pulse)
        return serialize(pulse)

    monkeypatch.setattr(scan, "serialize", counted)
    target = GateTarget(math.pi)
    family = sweep_ratio(constant_flip_family(), [4.0, 5.0, 6.0], "lamb_dicke", 1.0, target)
    assert len(serialized) == 1
    # a zero phase of either sign serializes differently: both are kept
    plus = make_constant(math.pi, RABI)
    minus = PulseProgram(rabi=RABI, segments=((plus.duration, -0.0),), label=plus.label)
    assert minus == plus
    serialized.clear()
    mixed = sweep_ratio(lambda r: plus if r < 5 else minus, [4.0, 5.0, 6.0],
                        "lamb_dicke", 1.0, target)
    assert len(serialized) == 2
    assert len(set(mixed.metadata["pulse_hash"])) == 2
    assert family.metadata["pulse_hash"][0] in mixed.metadata["pulse_hash"]


def test_process_pool_is_clamped_to_cpu_count(monkeypatch):
    created = []

    class RecordingExecutor:
        # stands in for the process pool: records its size, starts nothing
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, points):
            return map(worker, points)

    monkeypatch.setattr(scan, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 3)
    assert scan._run([1, 2, 3], abs, 10_000) == [1, 2, 3]
    assert scan._run([4], abs, 2) == [4]
    assert created == [3, 2]
    monkeypatch.setattr(scan.os, "cpu_count", lambda: None)
    assert scan._run([-5], abs, 64) == [5]
    assert created == [3, 2]
