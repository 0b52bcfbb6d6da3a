import pytest
from hypothesis import settings

from bcres.matroid import circuit_matroid, direct_sum, uniform_matroid

# property tests enumerate subsets, so an example's time depends on its size
# and on the host's speed rather than on a fault: no per-example deadline
settings.register_profile("bcres", deadline=None)
settings.load_profile("bcres")


@pytest.fixture
def u24():
    return uniform_matroid(2, 4)


@pytest.fixture
def golden():
    """Parallel connection of a 3-cycle and a 4-cycle, as a circuit matroid."""
    return circuit_matroid(6, [{4, 5, 6}, {1, 2, 3, 6}, {1, 2, 3, 4, 5}])


@pytest.fixture
def u24_plus_coloop():
    return direct_sum([uniform_matroid(2, 4), uniform_matroid(1, 1)])
