"""Exception hierarchy shared across the package."""


class CrashplanError(Exception):
    """Base class for all domain errors raised by this package."""


class BadParams(CrashplanError):
    """Caller-supplied parameters are out of their documented range."""


class ParseError(CrashplanError):
    """An input file violates its schema; message names the offending field."""


class NoFeasible(CrashplanError):
    """No solution passes all three constraint groups."""


class InfeasibleInstance(NoFeasible):
    """No duration choice can meet the deadline (EF of the end activity > D),
    so no solution is feasible."""


class EncodingError(CrashplanError):
    """A chromosome violates its structural invariants against an instance."""


class NoRealActivities(CrashplanError):
    """Quality statistics requested for an instance with only dummy activities."""


class ZeroCost(CrashplanError, ZeroDivisionError):
    """The NPV cost is zero, so productivity (quality per cost) is undefined."""


class InitTimeout(CrashplanError):
    """Feasible-population sampling exhausted its attempt budget.

    Carries a histogram of how often each constraint group failed so the
    caller can see which group is binding.
    """

    def __init__(self, message: str, histogram: dict | None = None):
        super().__init__(message)
        self.histogram = dict(histogram or {})


class SpaceTooLarge(CrashplanError):
    """Enumeration space exceeds the configured point budget."""

    def __init__(self, message: str, space_size: int):
        super().__init__(message)
        self.space_size = space_size


class Singular(CrashplanError):
    """(I - X) is not invertible within tolerance in the total-relation step."""


class AllZero(CrashplanError):
    """A total-relation matrix of all zeros has no meaningful weights."""
