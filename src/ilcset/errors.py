"""Exception types shared across the package."""


class IlcsetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(IlcsetError):
    """Operands do not conform (wrong shapes for the requested operation)."""


class NonSquareError(IlcsetError):
    """A square matrix was required."""


class NoConvergenceError(IlcsetError):
    """The eigenvalue computation failed to converge."""


class SingularError(IlcsetError):
    """Matrix is singular to working precision (pivot under threshold)."""


class ParseError(IlcsetError):
    """Malformed expression source.

    Attributes:
        offset: byte offset into the source where parsing failed.
        expected: set of token descriptions that would have been accepted.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownFunctionError(ParseError):
    """Identifier in function position is not one of sin, cos, exp."""


class EvalError(IlcsetError):
    """Expression evaluation produced a non-finite value (e.g. division by zero)."""


class ScheduleBuildError(IlcsetError):
    """One or more grid cells failed to parse or evaluate.

    Attributes:
        failures: list of (row, col, detail) tuples; detail mentions k for
            evaluation failures.
    """

    def __init__(self, failures):
        lines = [f"({r},{c}): {detail}" for r, c, detail in failures]
        super().__init__("schedule build failed: " + "; ".join(lines))
        self.failures = list(failures)


class RankDeficientError(IlcsetError):
    """Coupling matrix does not have full row rank (relative degree condition fails)."""


class ConditionViolatedError(IlcsetError):
    """A required spectral-radius condition fails at some time step.

    Attributes:
        k: offending time step.
        value: the spectral radius found there.
    """

    def __init__(self, message, k, value):
        super().__init__(f"{message}: rho={value:.6g} at k={k}")
        self.k = k
        self.value = value


class ModelMismatchError(IlcsetError):
    """Plant does not have the structure required by the requested operation."""


class NonFiniteError(IlcsetError):
    """Simulation state or output left the finite range (divergence).

    Attributes:
        k: offending time step.
        iteration: offending iteration, when known.
        faults: for a simulation of several trials side by side, each
            trial's own error (None where it stayed finite), in batch order;
            the error raised is the first of them.
        trajectory: that simulation's Trajectory, finite trials included.
    """

    faults = ()
    trajectory = None

    def __init__(self, message, k, iteration=None):
        where = f"k={k}" if iteration is None else f"l={iteration}, k={k}"
        super().__init__(f"{message} ({where})")
        self.k = k
        self.iteration = iteration


class MissingDataError(IlcsetError):
    """A diagnostic needs per-iteration data that was not recorded."""


class NotConvergedError(IlcsetError):
    """A limit formula was requested from a run that has not converged."""


class SchemaError(IlcsetError):
    """Configuration document violates the expected schema.

    Attributes:
        path: JSON-pointer-style path to the offending field.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
