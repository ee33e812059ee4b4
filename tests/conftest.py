import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

# every run draws the same examples: each @given test seeds from a hash of
# its own code, keeps its own max_examples, and replays no saved failure
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


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
