import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process or a Python thread running:
    training forks workers and must stop every one of them, on success and on
    error. A thread left behind would also keep every later `train` in this
    process to one process, which no result would show."""
    threads = threading.active_count()
    yield
    left = multiprocessing.active_children()
    assert not left, f"test left child processes running: {left}"
    assert threading.active_count() <= threads, \
        f"test left threads running: {threading.enumerate()}"
