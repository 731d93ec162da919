import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left_behind():
    # summatory_trace and every prime pass fork their workers and must reap
    # every one, also on an error or an interrupt
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else 'unreaped'})")
