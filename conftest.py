import pathlib
import signal
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))

TEST_TIME_LIMIT_S = 120


class TestTimeLimitExceeded(BaseException):
    """Raised inside a test that outlives TEST_TIME_LIMIT_S.

    A BaseException, so neither the code under test (the CLI catches
    OSError, which TimeoutError is) nor Hypothesis's shrinker swallows it.
    """


def _expire(signum, frame):
    raise TestTimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that does not finish in time instead of hanging the suite.

    SIGALRM interrupts the test in the main thread; after the first expiry
    it fires again every second, so a loop that catches the first one
    still ends.
    """
    if not hasattr(signal, "setitimer"):  # no SIGALRM on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
