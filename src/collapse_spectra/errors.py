"""The library's one exception type.

An input that a config, a script flag or a scenario sets, and that
breaks the rule declared for it, raises :class:`InputRejected` where the
rule is declared, keyed by the input it checks: ``cli.main`` exits 2 on
it, and each script maps its key to the flag the input came from.  A
call that breaks a function's stated precondition, such as a malformed
tensor or a degree out of range, raises a plain ``ValueError``, which
``InputRejected`` also is.
"""


class InputRejected(ValueError):
    """The input ``key`` (a config key or a parameter) breaks its rule,
    which ``message`` states; ``str()`` is ``"key: message"``."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self) -> str:
        return f"{self.key}: {self.message}"
