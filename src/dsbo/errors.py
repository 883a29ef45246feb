"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: usage problems exit 2,
configuration problems exit 3, numerical divergence exits 4.
"""

from __future__ import annotations


class DsboError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DsboError):
    """A configuration value is missing, ill-typed, or out of range."""


class TopologyError(ConfigError):
    """A mixing matrix failed validation."""


class NotSymmetricError(TopologyError):
    pass


class NotDoublyStochasticError(TopologyError):
    pass


class NegativeEntryError(TopologyError):
    pass


class DisconnectedTopologyError(TopologyError):
    """Declared-connected topology whose mixing matrix does not contract."""


class UnsupportedProblemError(ConfigError):
    """Algorithm asked to run on a problem family it cannot handle."""


class DataFormatError(DsboError):
    """A data file could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericsError(DsboError):
    """An iterative numerical routine failed to converge."""


class DivergenceError(DsboError):
    """An optimizer state became non-finite.

    Attributes identify the first offending agent, state field and round;
    ``harness.run`` alone sets ``trace`` to the partial trace it recorded.
    """

    def __init__(self, agent: int, field: str, t: int):
        self.agent = agent
        self.field = field
        self.t = t
        self.trace = None
        super().__init__(
            f"non-finite value in iterate '{field}' of agent {agent} at round {t}"
        )
