"""Exception taxonomy shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class ConfigError(SimulationError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class NumericError(SimulationError):
    """Numeric-tolerance failure during a run (CLI exit code 3)."""


class TruncationError(NumericError):
    """Fock-space truncation lost more weight than the tail tolerance."""


class GridError(NumericError):
    """Position grid cannot hold the state (boundary weight too high)."""


class ImpossibleOutcomeError(NumericError):
    """Conditioning on a measurement outcome of vanishing probability."""


class NumericRangeError(NumericError):
    """Intermediate values left the representable floating-point range."""

