"""Exception hierarchy.

Numerical-degeneracy errors are grouped under a common base so the CLI can
map them to a dedicated exit code, distinct from configuration and parse
errors.
"""

import copyreg


class FuncrocError(Exception):
    """Base class for all library errors.

    Copies and unpickled errors are rebuilt from the message and attributes
    without ``__init__``, which in some subclasses formats the message.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class GridMismatchError(FuncrocError):
    """Operands live on different quadrature grids."""


class InsufficientSampleError(FuncrocError):
    """An estimator was asked to run on fewer observations than it needs."""


class InvalidKernelError(FuncrocError):
    """A covariance matrix violates symmetry beyond numerical tolerance."""


class CurveParseError(FuncrocError):
    """A curve data file could not be parsed.

    Carries the 1-based line number at which parsing failed.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalDegeneracyError(FuncrocError):
    """Base class for degeneracies of the fitted or simulated objects."""


class DegenerateDirectionError(NumericalDegeneracyError):
    """The two group means coincide, so no discriminating direction exists."""


class DegenerateOperatorError(NumericalDegeneracyError):
    """A covariance operator has an all-zero spectrum."""


class SingularSystemError(NumericalDegeneracyError):
    """The linear system defining the optimal direction is singular."""


class SingularCovarianceError(NumericalDegeneracyError):
    """A group score covariance matrix is singular.

    ``group`` names the offending sample ("diseased" or "healthy").
    """

    def __init__(self, group: str):
        self.group = group
        super().__init__(f"score covariance of the {group} group is "
                         "singular; increase the ridge or reduce the dimension")


class SimulationDegeneracyError(NumericalDegeneracyError):
    """A simulated covariance matrix could not be factorized even with jitter."""
