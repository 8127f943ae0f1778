import threading

import numpy as np
import pytest

from motifgcn.graph import Graph


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with a live thread it did not start with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def k3():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3():
    # a - b - c
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def k4():
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def star5():
    return Graph(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
