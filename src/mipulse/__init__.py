"""Motion-insensitive pulse design for trapped-atom optical qubits.

Design phase-modulated laser pulses that implement single-qubit gates
while suppressing photon recoil, thermal motion-induced entanglement, and
static laser inhomogeneities; verify every pulse by exact simulation of
the coupled qubit-oscillator dynamics.
"""

__version__ = "0.1.0"

from .bangbang import (
    BangSolution,
    SolverError,
    bang_residuals,
    duration_curve,
    solve_first_order,
    solve_second_order,
    table_rows,
)
from .fidelity import (
    FidelityReport,
    GateTarget,
    ThermalState,
    TruncationError,
    check_truncation,
    gate_error,
    p0_from_temperature,
    per_m_fidelity,
    thermal_fidelity,
    thermal_limit_exact,
    thermal_limit_leading,
)
from .model import (
    SystemParams,
    full_hamiltonian,
    hamiltonian,
    lamb_dicke_hamiltonian,
    qubit_pair,
    second_order_hamiltonian,
)
from .operators import (
    FockOperators,
    build_fock,
    displacement_coupling,
    expm_hermitian,
    tensor,
    unitarity_defect,
)
from .optimize import (
    ControlProblem,
    OptimizationResult,
    OptimizeFailure,
    composite_reference,
    control_problem,
    cost_and_gradient,
    min_time_search,
    solve_fixed_duration,
)
from .propagate import Propagation, evolve, evolve_qubit, su2_rotation
from .pulse import (
    BangAngles,
    PulseProgram,
    load_pulse,
    make_constant,
    make_sampled,
    make_torf,
    parse,
    save_pulse,
    serialize,
    shift_axis,
)
from .scan import (
    SweepResult,
    error_vs_p0,
    robustness_map,
    sweep_ratio,
    write_csv,
    write_metadata,
)
from .toggling import (
    ToggleIntegrals,
    effective_propagator,
    interaction_scale,
    robust_qubit_predict,
    toggle_integrals,
)
