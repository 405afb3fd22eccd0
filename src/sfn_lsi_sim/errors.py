"""Exception types shared across the simulator."""

from __future__ import annotations


class ConfigurationError(ValueError):
    """A configuration value violates one of its documented bounds.
    ``field`` names the dataclass field at fault, for a rule that names one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ConfigValidationError(ConfigurationError):
    """Every validation failure found while parsing a config file."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
