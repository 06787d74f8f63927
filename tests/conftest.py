"""Limits on a test run.  A test that runs past its time limit dumps every
thread's traceback to the terminal and ends the run with exit 1, so a
hang fails instead of blocking the suite; the slowest test takes a few
seconds.  Collection, which imports every test module, runs under the same
limit, so a hang at import time fails the run too.  The run's address
space has a soft limit, so a runaway allocation raises MemoryError in the
test that makes it instead of the process being killed for memory; the
frames of that traceback then drop their locals, which frees the memory
for the failure's report.  The whole run peaks at about 75 MB RSS and
200 MB of address space (Python 3.11 on Linux).  Processes the tests start
inherit the limit; where `resource` is missing there is none."""

import faulthandler
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

TEST_TIME_LIMIT_S = 120
CHILD_TIME_LIMIT_S = 60
TEST_MEMORY_LIMIT_BYTES = 2 * 2**30
_STDERR = pytest.StashKey[int]()
_RLIMIT_AS = pytest.StashKey[tuple]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while no test captures fd 2
    config.stash[_STDERR] = os.dup(2)
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=config.stash[_STDERR])
    if resource is not None:
        soft, hard = config.stash[_RLIMIT_AS] = resource.getrlimit(
            resource.RLIMIT_AS)
        limits = [x for x in (soft, hard, TEST_MEMORY_LIMIT_BYTES)
                  if x != resource.RLIM_INFINITY]
        resource.setrlimit(resource.RLIMIT_AS, (min(limits), hard))


def pytest_collection_finish():
    faulthandler.cancel_dump_traceback_later()


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()  # before its file closes
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


@pytest.fixture
def python():
    """Run this interpreter in a child process on the package's source, as
    `python(*args, **environ)`; its output is text, and it ends within
    CHILD_TIME_LIMIT_S or raises `subprocess.TimeoutExpired`."""
    src = str(Path(__file__).parents[1] / "src")

    def run(*args, **environ):
        return subprocess.run(
            [sys.executable, *args],
            env=dict(os.environ, PYTHONPATH=src, **environ),
            capture_output=True, text=True, timeout=CHILD_TIME_LIMIT_S)

    return run
