"""Exception hierarchy shared by all modules.

The command line maps these onto exit codes: configuration problems exit
with 1, numerical failures with 2, verification failures with 3.
"""


class PolaritonError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PolaritonError):
    """Inconsistent sizes, grids, file contents or option combinations."""


class DomainError(PolaritonError):
    """Parameters outside the physically admissible region."""


class NumericalError(PolaritonError):
    """A computation finished but failed its accuracy contract."""
