"""Exception types raised by the library.

Every library error is a :class:`CollapseSpectraError`, itself a
``ValueError``.  An input that breaks the rule declared for it raises
:class:`InputRejected`, raised where the rule is declared and keyed by
the input it checks: ``cli.main`` exits 2 on it and 1 on any other
``CollapseSpectraError``, and each script maps its key to the flag the
input came from.  Any other error raises the base class with a message
that says what is wrong.
"""


class CollapseSpectraError(ValueError):
    """Base class for all library errors."""


class InputRejected(CollapseSpectraError):
    """The input ``key`` (a config key or a parameter) breaks its rule,
    which ``message`` states; ``str()`` is ``"key: message"``."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"
