"""The simulator's two failure classes, one per CLI exit code."""


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class NumericError(Exception):
    """Numeric-tolerance failure during a run (CLI exit code 3)."""
