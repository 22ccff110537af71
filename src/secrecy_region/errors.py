"""Exception and warning types shared across the package."""


class NumericsError(Exception):
    """Base class for numerical-contract violations."""


class DimensionMismatch(NumericsError):
    """Operands have incompatible shapes."""


class BothZeroVectors(NumericsError):
    """Both channel vectors are zero; the principal angle is undefined."""


class ParamOutOfRange(NumericsError):
    """A sweep parameter fell outside [0, 1]."""


class CovarianceInvalid(NumericsError):
    """A covariance pair violates PSD-ness or the total trace budget."""


class RhoOnUnitCircle(NumericsError):
    """|rho| is too close to 1; the noise-difference variance vanishes."""


class DegeneratePivot(NumericsError):
    """h^H e1 is numerically zero; the tightness coupling is undefined."""


class SweepTruncated(UserWarning):
    """A boundary sweep stopped short of its tolerance (`MAX_POINTS` cap or
    the parameter-width floor)."""
