"""Exception hierarchy shared across the package."""


class CasnucError(Exception):
    """Base class for all casnuc errors."""


class DomainError(CasnucError, ValueError):
    """A physical argument is outside the domain of the requested quantity."""


class NumericalError(CasnucError, RuntimeError):
    """A numerical evaluation produced no trustworthy result."""
