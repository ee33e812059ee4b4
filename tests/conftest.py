import signal
from contextlib import contextmanager

import pytest


class _Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Overrun


@contextmanager
def _time_limit(seconds, what):
    """Fail the test when the block runs longer than ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Overrun:
        pytest.fail(f"{what} ran past {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """Context manager ``time_limit(seconds, what)`` (main thread only)."""
    return _time_limit
