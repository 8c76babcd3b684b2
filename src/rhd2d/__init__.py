"""Finite-volume solver for 2D special relativistic hydrodynamics.

A first-order Godunov scheme on uniform Cartesian meshes whose interface
fluxes blend 1D HLL fluxes with genuinely multidimensional corner-fan
fluxes.  With wave-speed amplifier 2 and CFL number at most one half, the
update preserves positive density and pressure and sub-luminal velocity:
a per-cell certificate from the signal speeds shows each updated cell to
be a positive combination of admissible states, which the test suite
checks on random admissible meshes in both modes.  An optional per-step
audit enforces it during runs.
"""

from .errors import (
    AdmissibilityError,
    ConfigurationError,
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
    extreme_speeds,
    is_admissible,
    lorentz_factor,
    physical_flux,
    prim_to_cons,
    primitive,
    thermo,
)
from .problems import (
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
from .riemann import fan_speeds

__version__ = "0.1.0"
