import pytest

from treeroute import RootedSpanningTree


def _validating(method):
    def checked(self, *args, **kwargs):
        method(self, *args, **kwargs)
        self.validate()

    return checked


@pytest.fixture(autouse=True)
def validated_trees(monkeypatch):
    """Check the invariants of every tree the suite builds and of every
    revision it makes: each mutation ends in ``_bump``, so validating
    after ``__init__`` and ``_bump`` covers ``apply``, ``apply_complex``,
    ``undo`` and ``reinit_random`` as users run them."""
    for name in ("__init__", "_bump"):
        monkeypatch.setattr(RootedSpanningTree, name,
                            _validating(getattr(RootedSpanningTree, name)))


@pytest.fixture
def triangle():
    from treeroute import load_graph

    return load_graph("3 3\n0 1\n1 2\n0 2\n")
