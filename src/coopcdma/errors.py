"""Exception types shared across the library."""


class ConfigError(ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""


class IllConditionedError(RuntimeError):
    """A covariance matrix is too ill-conditioned to invert reliably."""


class NumericalDivergenceError(RuntimeError):
    """An adaptive recursion produced non-finite state."""


class DegenerateStateError(RuntimeError):
    """A filter or amplitude vector collapsed to zero norm."""
