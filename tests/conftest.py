"""A time limit on each test: a test that runs past it dumps every
thread's traceback to the terminal and ends the run with exit 1, so a
hang fails instead of blocking the suite.  The slowest test takes a few
seconds."""

import faulthandler
import os

import pytest

TEST_TIME_LIMIT_S = 120
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while no test captures fd 2
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
