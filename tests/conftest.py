"""Limits on a test run.  A test that runs past its time limit dumps every
thread's traceback to the terminal and ends the run with exit 1, so a
hang fails instead of blocking the suite; the slowest test takes a few
seconds.  The run's address space has a soft limit, so a runaway
allocation raises MemoryError in the test that makes it instead of the
process being killed for memory; the frames of that traceback then drop
their locals, which frees the memory for the failure's report.  The
whole run peaks at about 75 MB RSS and 200 MB of address space (Python
3.11 on Linux).  Processes the tests start inherit the limit; where
`resource` is missing there is none."""

import faulthandler
import os
import traceback

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

TEST_TIME_LIMIT_S = 120
TEST_MEMORY_LIMIT_BYTES = 2 * 2**30
_STDERR = pytest.StashKey[int]()
_RLIMIT_AS = pytest.StashKey[tuple]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while no test captures fd 2
    config.stash[_STDERR] = os.dup(2)
    if resource is not None:
        soft, hard = config.stash[_RLIMIT_AS] = resource.getrlimit(
            resource.RLIMIT_AS)
        limits = [x for x in (soft, hard, TEST_MEMORY_LIMIT_BYTES)
                  if x != resource.RLIM_INFINITY]
        resource.setrlimit(resource.RLIMIT_AS, (min(limits), hard))


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])
    if resource is not None:
        resource.setrlimit(resource.RLIMIT_AS, config.stash[_RLIMIT_AS])


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(call):
    if call.excinfo is not None and call.excinfo.errisinstance(MemoryError):
        traceback.clear_frames(call.excinfo.tb)


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
