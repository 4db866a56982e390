import numpy as np
import pytest

from katzforge import AllocationProfile, GameInstance, topology_from_edges


@pytest.fixture
def i1() -> GameInstance:
    """Single agent with a self-loop, B = 0.5."""
    return GameInstance(topology_from_edges(1, [(0, 0)]), (0.5,))


@pytest.fixture
def i2() -> GameInstance:
    """Two agents pointing at each other, no self-loops, B = (0.5, 0.25)."""
    return GameInstance(topology_from_edges(2, [(0, 1), (1, 0)]), (0.5, 0.25))


@pytest.fixture
def i3() -> GameInstance:
    """Two agents, complete with self-loops, B = (0.5, 0.25)."""
    return GameInstance(
        topology_from_edges(2, [(0, 0), (0, 1), (1, 0), (1, 1)]), (0.5, 0.25)
    )


@pytest.fixture
def i3_ne() -> AllocationProfile:
    """A Nash profile of i3: both agents put everything on agent 1."""
    return AllocationProfile(np.array([[0.5, 0.0], [0.25, 0.0]]))


@pytest.fixture
def solves(monkeypatch):
    """Sizes of the systems passed to numpy.linalg.solve, in call order."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls
