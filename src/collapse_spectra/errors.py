"""Exception types raised by the library.

An input that breaks the rule declared for it raises
:class:`InputRejected`, raised where the rule is declared and keyed by
the input it checks: ``cli.main`` exits 2 on it and 1 on any other
:class:`CollapseSpectraError`, and each script maps its key to the flag
the input came from.  Other library errors raise the base class, but
some lower-level checks still raise a plain ``ValueError``, such as a
malformed tensor in ``StructureConstants`` or ``check_lie_tensors`` and
an eigenvalue below minus the kernel cutoff in ``clamp_spectra``.  So a
caller can receive any of the three, and all of them are ValueErrors.
"""


class CollapseSpectraError(ValueError):
    """Base class for the library's own errors."""


class InputRejected(CollapseSpectraError):
    """The input ``key`` (a config key or a parameter) breaks its rule,
    which ``message`` states; ``str()`` is ``"key: message"``."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"
