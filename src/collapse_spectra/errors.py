"""Exception types raised by the library."""


class CollapseSpectraError(ValueError):
    """Base class for all library errors."""


class SingularFrame(CollapseSpectraError):
    """Frame-change matrix is singular or numerically unusable."""


class DegreeOutOfRange(CollapseSpectraError):
    """Form degree outside the valid range for the algebra."""


class NotOrthonormal(CollapseSpectraError):
    """Vector pair fails the orthonormality precondition."""


class NotUnimodular(CollapseSpectraError):
    """Integer matrix does not have determinant one."""


class RankAmbiguous(CollapseSpectraError):
    """A singular value sits too close to the rank decision threshold."""


class KTooLarge(CollapseSpectraError):
    """Requested small-eigenvalue count exceeds the nilpotent capacity."""


class NearKernelCutoff(CollapseSpectraError):
    """A predicted nonzero eigenvalue would be counted as kernel."""


class ScaleTooLarge(CollapseSpectraError):
    """No eps grid keeps a predicted small eigenvalue off the kernel."""


class NotSemisimple(CollapseSpectraError):
    """Matrix is not semisimple (minimal polynomial has a repeated root)."""


class TrivialBundle(CollapseSpectraError):
    """Obstruction vector is zero, so the bundle is a product."""


class NotInjective(CollapseSpectraError):
    """Linear map is not injective; use the non-injective reduction."""


class ConfigInvalid(CollapseSpectraError):
    """Scenario configuration failed validation."""


class ScenarioUnknown(CollapseSpectraError):
    """Requested scenario name is not registered."""
