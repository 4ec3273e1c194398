"""Exception types shared across the package.

Every error is an IlcsetError.  A subclass exists only where a caller tells
it apart: the CLI gives SchemaError its own exit status, schedule building
catches ParseError, EvalError and ScheduleBuildError, the loop catches
NonFiniteError, and ConditionViolatedError carries the failing step and value.
"""


class IlcsetError(Exception):
    """Base class for all errors raised by this package."""


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


class NonFiniteError(IlcsetError):
    """Simulation state or output left the finite range (divergence).

    Attributes:
        k: offending time step.
        iteration: offending iteration, when known.
        faults: for a simulation of several trials side by side, each
            trial's own error (None where it stayed finite), in batch order;
            the error raised is the first of them.
        trajectory: that simulation's states and outputs (x, y), finite
            trials included.
    """

    faults = ()
    trajectory = None

    def __init__(self, message, k, iteration=None):
        where = f"k={k}" if iteration is None else f"l={iteration}, k={k}"
        super().__init__(f"{message} ({where})")
        self.k = k
        self.iteration = iteration


class SchemaError(IlcsetError):
    """Configuration document violates the expected schema.

    Attributes:
        path: JSON-pointer-style path to the offending field.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
