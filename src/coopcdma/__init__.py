"""Joint power allocation and interference suppression for cooperative DS-CDMA.

Simulation library for a multi-relay amplify-and-forward DS-CDMA uplink:
exact constrained-MMSE receiver/power designs, adaptive constrained RLS
algorithms with RLS channel estimation, and a seeded Monte Carlo BER harness.
"""

from .errors import (ConfigError, DegenerateStateError, IllConditionedError,
                     NumericalDivergenceError)
from .harness import (BerCurve, ExperimentConfig, capacity_at_target,
                      learning_curve, run_experiment, run_packet,
                      run_user_sweep)
from .model import SystemDims

__version__ = "0.1.0"

__all__ = [
    "BerCurve", "ConfigError", "DegenerateStateError", "ExperimentConfig",
    "IllConditionedError", "NumericalDivergenceError", "SystemDims",
    "capacity_at_target", "learning_curve", "run_experiment", "run_packet",
    "run_user_sweep",
]
