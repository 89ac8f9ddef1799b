"""Exception types shared across the package."""


class UmcoError(Exception):
    """Base of every exception type the package defines, so callers can catch them all."""


class ChannelFormatError(UmcoError, ValueError):
    """Channel document is not parseable (bad JSON, missing or malformed fields)."""


class ValidationError(UmcoError, ValueError):
    """An input breaks a rule when built or passed: NaN, a value out of range, a row sum off 1, a non-integer size."""


class DimensionMismatchError(UmcoError, ValueError):
    """The alphabet sizes of two objects do not agree."""


class ConvergenceError(UmcoError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the achieved residual so the failure is diagnosable instead of
    silently accepted.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ReducibleChainError(UmcoError, RuntimeError):
    """An operation requiring an irreducible output chain met a reducible one.

    ``closed_classes`` lists the closed communicating classes that were found.
    """

    def __init__(self, message, closed_classes=()):
        super().__init__(message)
        self.closed_classes = tuple(tuple(c) for c in closed_classes)


class InfeasibleBudgetError(UmcoError, ValueError):
    """The cost budget is below the minimum stationary cost any policy can achieve."""

    def __init__(self, message, min_cost=None):
        super().__init__(message)
        self.min_cost = min_cost
