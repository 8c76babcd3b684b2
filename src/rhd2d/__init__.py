"""Finite-volume solver for 2D special relativistic hydrodynamics.

A first-order Godunov scheme on uniform Cartesian meshes whose interface
fluxes blend 1D HLL fluxes with genuinely multidimensional corner-fan
fluxes.  With wave-speed amplifier 2 and CFL number at most one half, the
update is designed to preserve positive density and pressure and
sub-luminal velocity.  It does on the benchmark problems; on generic
admissible data a multidimensional step can still leave the admissible
set, which the PCP audit reports (an open defect, see ROADMAP.md).
"""

from .errors import (
    AdmissibilityError,
    CflViolationError,
    ConfigurationError,
    DegenerateFanError,
    DispatchError,
    PcpAuditError,
    RecoveryConvergenceError,
    RhdError,
    SuperluminalError,
)
from .mesh_solver import (
    BoundarySpec,
    Field,
    Grid,
    Inflow,
    RunDiagnostics,
    RunResult,
    SolverConfig,
    assemble_fluxes,
    compute_dt,
    fill_ghosts,
    periodic_boundaries,
    run,
    step,
)
from .physics import (
    EigenSpeeds,
    EosParams,
    admissibility_margin,
    eigenvalues,
    is_admissible,
    lorentz_factor,
    physical_flux,
    prim_to_cons,
    primitive,
    thermo,
)
from .problems import (
    JetConfig,
    Norms,
    ProblemSpec,
    convergence_orders,
    error_norms,
    jet_setup,
    problem_by_name,
    problem_names,
    symmetry_deviation,
)
from .recovery import RecoveryOptions, recover_with_iterations
from .riemann import (
    fan_speeds,
    hll_flux_1d,
    hll_state_1d,
    hll_state_2d,
    quadrant_fan_states,
)

__version__ = "0.1.0"
