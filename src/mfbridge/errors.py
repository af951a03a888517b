"""Exception hierarchy shared across the package.

ConfigError maps to CLI exit code 1, NumericalError to exit code 2.
"""


class ConfigError(ValueError):
    """Invalid configuration, schema violation, or structural input problem."""


class NumericalError(RuntimeError):
    """A numerical procedure failed or left its domain of validity."""


class InfeasibleTargetError(NumericalError):
    """Bridge variance constraint has no solution in the admissible branch."""


class ProbeError(NumericalError):
    """Probe precision lost positivity; schedule or anchoring inconsistency."""


class DivergedError(NumericalError):
    """Non-finite state encountered during simulation."""
