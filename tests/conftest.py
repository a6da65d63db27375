import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running: training forks
    workers and must stop every one of them, on success and on error."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"test left child processes running: {left}"
