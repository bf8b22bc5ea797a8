"""Exception types shared across the solvers."""


class SolverError(RuntimeError):
    """Base class for numerical failures that are not usage errors."""


class EigenvalueWindowError(SolverError):
    """The requested eigenvalue lies above the searched window or the resolved range."""


class ConvergenceError(SolverError):
    """An iteration exhausted its budget before reaching tolerance."""


class NonPrincipalModeError(SolverError):
    """Inverse iteration converged to a sign-changing mode.

    Signals a matrix shifted past its principal eigenvalue, or a grid too
    coarse to separate the positive mode (operator and Rayleigh pencils).
    """


class IrreducibilityError(SolverError):
    """The weighted steady-state solve returned a non-positive density."""


class LogarithmicBranchError(SolverError):
    """The requested solution belongs to the excluded singular branch at t=0."""
