"""Limits on a test run.  A test that runs past its time limit dumps every
thread's traceback to the terminal and ends the run with exit 1, so a
hang fails instead of blocking the suite; the slowest test takes a few
seconds.  Collection, which imports every test module, runs under the same
limit, so a hang at import time fails the run too.  The run's address
space has a soft limit, so a runaway allocation raises MemoryError in the
test that makes it instead of the process being killed for memory; the
frames of that traceback then drop their locals, which frees the memory
for the failure's report.  The whole run peaks at about 160 MB RSS and
300 MB of address space (Python 3.11 on Linux), set by
`test_cli.py::test_compare_expands_one_file_to_the_difference`, which
expands a series to degree 1000; run alone, each other module peaks at
47-70 MB.  Without a `.hypothesis` directory, Hypothesis first builds its
table of unicode characters, in
`test_properties.py::test_loads_returns_or_raises_the_format_error`, and
the peak is about 270 MB RSS and 430 MB of address space.  Processes the
tests start inherit the limit; where `resource` is missing there is none."""

import faulthandler
import os
import signal
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
BACKSTOP_S = 30  # the watchdog's margin past the limit, where an alarm fires
CHILD_TIME_LIMIT_S = 60
TEST_MEMORY_LIMIT_BYTES = 2 * 2**30
_STDERR = pytest.StashKey[int]()
_RLIMIT_AS = pytest.StashKey[tuple]()
_SIGALRM = pytest.StashKey[object]()
_ALARM = hasattr(signal, "setitimer")


def _arm(config):
    """Start the time limit.  The alarm's handler runs on the main thread
    between two bytecodes, so the frames it dumps hold still; the
    watchdog thread reads them while they run, which can crash the dump,
    so it is only the backstop for a C call that never returns."""
    if _ALARM:
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S + (BACKSTOP_S if _ALARM else 0), exit=True,
        file=config.stash[_STDERR])


def _disarm():
    if _ALARM:
        signal.setitimer(signal.ITIMER_REAL, 0)
    faulthandler.cancel_dump_traceback_later()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while no test captures fd 2
    fd = config.stash[_STDERR] = os.dup(2)
    if _ALARM:
        def time_out(signum, frame):
            os.write(fd, f"Timeout ({TEST_TIME_LIMIT_S} s)!\n".encode())
            faulthandler.dump_traceback(fd, all_threads=True)
            os._exit(1)

        config.stash[_SIGALRM] = signal.signal(signal.SIGALRM, time_out)
    _arm(config)
    if resource is not None:
        soft, hard = config.stash[_RLIMIT_AS] = resource.getrlimit(
            resource.RLIMIT_AS)
        limits = [x for x in (soft, hard, TEST_MEMORY_LIMIT_BYTES)
                  if x != resource.RLIM_INFINITY]
        resource.setrlimit(resource.RLIMIT_AS, (min(limits), hard))


def pytest_collection_finish():
    _disarm()


def pytest_unconfigure(config):
    _disarm()  # before its file closes
    if _ALARM:
        signal.signal(signal.SIGALRM, config.stash[_SIGALRM])
    os.close(config.stash[_STDERR])
    if resource is not None:
        resource.setrlimit(resource.RLIMIT_AS, config.stash[_RLIMIT_AS])


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(call):
    if call.excinfo is not None and call.excinfo.errisinstance(MemoryError):
        traceback.clear_frames(call.excinfo.tb)


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    _arm(pytestconfig)
    yield
    _disarm()


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
