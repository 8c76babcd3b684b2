"""Exception types raised across the solver.

Every failure that the package raises is one of the classes below, never a
bare built-in, so `except RhdError` catches them all; a scan of the
package's raise statements (`tests/test_raised_errors.py`) keeps it so.
Each class carries the exit code and stderr label with which the command
line ends on it, and this is their one table: the PCP audit's one type
exits 3, recovery and admissibility failures 4, any other error 2.
"""


class RhdError(Exception):
    """Base class for all solver errors."""

    exit_code = 2
    label = "error"


class ConfigurationError(RhdError, ValueError):
    """Invalid input of any kind: a run configuration (grid, boundary
    pairing, setting text), a state or equation of state, an axis, or an
    option out of its range."""


class SuperluminalError(RhdError, ValueError):
    """Velocity at or beyond the speed of light."""

    def __init__(self, speed_sq):
        self.speed_sq = speed_sq
        super().__init__(f"superluminal velocity: |u|^2 = {speed_sq!r} >= 1")


class AdmissibilityError(RhdError, ValueError):
    """A conserved state lies outside the physically admissible set."""

    exit_code = 4
    label = "recovery failure"

    def __init__(self, message, *, mass=None, margin=None, index=None):
        self.mass = mass
        self.margin = margin
        self.index = index
        super().__init__(message)


class RecoveryConvergenceError(RhdError, RuntimeError):
    """Pressure iteration failed to close its bracket to tolerance."""

    exit_code = 4
    label = "recovery failure"

    def __init__(self, message, *, bracket=None, index=None, iterations=None):
        self.bracket = bracket
        self.index = index
        self.iterations = iterations
        super().__init__(message)


class PcpAuditError(RhdError, RuntimeError):
    """A step failed the PCP audit: a dt above `compute_dt`'s bound at
    sigma = 1 in `assemble_fluxes`, or an updated cell, named by `index` and
    `state`, outside the admissible set in `step`."""

    exit_code = 3
    label = "PCP audit failure"

    def __init__(self, message, *, index=None, state=None, cfl_sigma=None, alpha=None):
        self.index = index
        self.state = state
        self.cfl_sigma = cfl_sigma
        self.alpha = alpha
        super().__init__(message)
