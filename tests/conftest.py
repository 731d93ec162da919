import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left_behind():
    # every pass over n or over p forks its workers and must reap
    # every one, also on an error or an interrupt
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else 'unreaped'})")


@pytest.fixture
def with_cpus(monkeypatch):
    """with_cpus(count) makes os.sched_getaffinity report ``count`` CPUs, so
    each pass over n or over p starts that many workers (none for one)."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity",
                                             lambda pid: set(range(count)))
