"""Exception types shared across the package.

One rule decides the kind: a `ParameterError` means the caller's arguments are
invalid, and any other `LocscapeError` means the computation failed on valid
arguments.  The command line maps the first to exit code 2 and the second to 3.
"""


class LocscapeError(Exception):
    """Base class for all package-specific errors: a computation that failed on valid arguments."""


class ParameterError(LocscapeError, ValueError):
    """Invalid arguments: a value, a combination of values, or a size the operation rejects."""


class ConstraintError(ParameterError):
    """A named geometric constraint of the two-well model is violated."""

    def __init__(self, name, message):
        super().__init__(f"constraint {name}: {message}")
        self.name = name


class ConvergenceError(LocscapeError):
    """Iterative solver failed to converge; carries the best residual seen."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularOperatorError(LocscapeError):
    """Linear solve requested on a singular operator."""


class NoRootError(LocscapeError):
    """A root-finder's bracket has ends of the same sign, so it holds no certain root."""


class NoBifurcationError(LocscapeError):
    """Subsystem ground energies never cross on the searched interval."""
