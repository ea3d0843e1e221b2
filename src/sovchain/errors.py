"""Exception types shared across the library."""


class SovChainError(Exception):
    """Base class for all library errors."""


class SimpleSpectrumViolation(SovChainError):
    """Twist matrix is proportional to the identity."""


class SingularTwistWarning(UserWarning):
    """Twist matrix has a zero eigenvalue; some constructions are gated off."""


class GenericityViolation(SovChainError):
    """Inhomogeneities collide modulo eta inside the protected window."""


class NearDegenerateSpectrum(SovChainError):
    """Brute-force diagonalization found an eigenvalue gap below tolerance."""


class SingularCZeta(SovChainError):
    """Interpolation system matrix is singular for the chosen auxiliary point."""


class ResidualTooLarge(SovChainError):
    """The oracle's transfer matrix leaves the magnon sectors of the twist eigenframe."""
