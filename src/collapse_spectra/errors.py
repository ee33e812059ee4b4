"""Exception types raised by the library.

Every library error is a :class:`CollapseSpectraError`, itself a
``ValueError``.  A subclass exists only where a caller catches it by
type:

- ``ConfigInvalid``: ``cli.main`` exits 2 on it, and exits 1 on any
  other ``CollapseSpectraError``;
- ``RankAmbiguous``, ``ScaleTooLarge``, ``KTooLarge`` and
  ``NearKernelCutoff``: the ``mapping-torus`` scenario turns each into a
  ``ConfigInvalid`` naming the config key at fault (``B``, ``k`` or
  ``eps_grid``); ``scripts/collapse_sweep.py`` also catches
  ``NearKernelCutoff`` to name its ``--jmax``.

Any other error raises the base class with a message that says what is
wrong.
"""


class CollapseSpectraError(ValueError):
    """Base class for all library errors."""


class RankAmbiguous(CollapseSpectraError):
    """A singular value sits too close to the rank decision threshold."""


class KTooLarge(CollapseSpectraError):
    """Requested small-eigenvalue count exceeds the nilpotent capacity."""


class NearKernelCutoff(CollapseSpectraError):
    """A predicted nonzero eigenvalue would be counted as kernel."""


class ScaleTooLarge(CollapseSpectraError):
    """No eps grid keeps a predicted small eigenvalue off the kernel."""


class ConfigInvalid(CollapseSpectraError):
    """Scenario configuration failed validation, or names no scenario."""
