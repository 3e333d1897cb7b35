"""Exception types shared across the package.

Each maps to a stable CLI exit code; see cli.EXIT_CODES.
"""


class ArgumentError(ValueError):
    """Bad argument or violated precondition (exit code 2)."""


class ConsistencyError(ArgumentError):
    """Entries fail a quadratic-consistency requirement.

    Carries the failing pairs as .witnesses, a list of (p, q) tuples.
    """

    def __init__(self, message: str, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses or [])


class AcceptabilityError(ArgumentError):
    """Vector entries are not squarefree, coprime, >= 2 with all primes 1 mod 4."""


class UnsupportedDimensionError(ValueError):
    """Certification asked for a vector length outside the supported range (exit code 3)."""


class SearchExhaustedError(RuntimeError):
    """Candidate supply ran out below the prime limit (exit code 4).

    .found counts the qualifying items collected before exhaustion.
    """

    def __init__(self, message: str, found: int = 0):
        super().__init__(message)
        self.found = found


class SystemFormatError(ValueError):
    """Malformed additive-system document (exit code 5). Carries .location."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class DegenerateContextError(RuntimeError):
    """No longer raised: every primitive solution gives a normalized
    generator and no odd prime kills both of its embeddings (see
    narrow2.redei).  Still exported for callers that import and catch it."""
