"""Exception types shared across the package."""


class DephaserError(Exception):
    """Base class for errors raised by this package."""


class IntegrationError(DephaserError):
    """An adaptive quadrature failed to reach the requested accuracy.

    The estimated residual of the failed integral, when available, is
    stored on the ``residual`` attribute.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ExtrapolationError(DephaserError, ValueError):
    """A tabulated quantity was evaluated outside its sampled grid."""


class SuperoperatorError(DephaserError, ValueError):
    """A map on density matrices violates trace preservation or hermiticity."""

