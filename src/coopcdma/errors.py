"""Exception types shared across the library."""


class ConfigError(ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""


class TrialFailure(RuntimeError):
    """The failure of one trial's design, packet or recursion: it counts as
    that trial's divergence and leaves the other trials of its point alone."""


class IllConditionedError(TrialFailure):
    """A covariance matrix is too ill-conditioned to invert reliably."""


class NumericalDivergenceError(TrialFailure):
    """An adaptive recursion produced non-finite state."""


class DegenerateStateError(TrialFailure):
    """A filter or amplitude vector collapsed to zero norm."""
