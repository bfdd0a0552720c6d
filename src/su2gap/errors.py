"""Exception types shared across the package."""


class DomainError(ValueError):
    """Requested coordinates lie outside the realizable region (D or Omega)."""


class ConvergenceError(RuntimeError):
    """A numerical computation failed: the eigensolver did not converge, or
    it returned an eigenvalue that an averaging operator cannot have (one
    outside [-1, 1]).

    Carries the irrep level at which the failure occurred when known.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class DegenerateFiberWarning(UserWarning):
    """The fiber being sampled collapses to a single conjugacy class."""
