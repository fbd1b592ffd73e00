"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole (e.g. Gamma at a non-positive integer)."""


class AccuracyError(ArithmeticError):
    """A series or integrator failed to reach the requested accuracy.

    Carries the best residual actually achieved in ``residual``, and in
    ``points`` the batch indices of points the oracle's phase check rejected
    before the run; a failure once stepping has started names no points.
    """

    def __init__(self, message, residual=None, points=None):
        super().__init__(message)
        self.residual = residual
        self.points = points


class ExponentOverflowError(OverflowError):
    """An exp() argument exceeded the supported range; names the exponent."""

    LIMIT = 700.0  # the largest |argument| the model and specfun pass to exp()

    def __init__(self, exponent):
        super().__init__(f"exp argument {exponent!r} outside safe range (|arg| > {self.LIMIT:g})")
        self.exponent = exponent


class DegeneracyError(ArithmeticError):
    """A linear system that fixes integration constants is singular."""


class ConfigError(ValueError):
    """Invalid sweep / CLI configuration."""
