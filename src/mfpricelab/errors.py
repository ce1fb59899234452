"""Exception types shared across the package."""


class PriceLabError(Exception):
    """Base class for all package errors."""


class ModelError(PriceLabError):
    """A coefficient or model specification is invalid (carries the offending point)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class _TracedError(PriceLabError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


class PicardError(_TracedError):
    """The inner Picard loop failed to converge; carries the residual trace."""


class DivergenceError(_TracedError):
    """The price fixed-point iteration diverged; carries the residual trace."""


class ConfigError(PriceLabError):
    """A run configuration file is malformed or out of range."""
