import pytest

import treeroute.treevar as treevar


@pytest.fixture(autouse=True)
def full_tree_checks():
    """Run the suite with invariant and order-independence checks on."""
    old = treevar.DEBUG_CHECKS
    treevar.DEBUG_CHECKS = True
    yield
    treevar.DEBUG_CHECKS = old


@pytest.fixture
def triangle():
    from treeroute import load_graph

    return load_graph("3 3\n0 1\n1 2\n0 2\n")
