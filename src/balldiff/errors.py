"""Exception types shared across the package."""


class BalldiffError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BalldiffError, ValueError):
    """An input violates a documented precondition."""


class ConfigError(ValidationError):
    """A run configuration file is malformed or inconsistent."""


class ResourceLimitError(BalldiffError):
    """A requested run would exceed the node cap, the macro-step cap or the stencil-pass cap."""


class DomainTooSmallError(BalldiffError):
    """Density reached the edge of the computational domain."""
