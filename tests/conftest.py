"""Test-wide fixtures."""

import pytest

from loggraph.pager import StoreRegistry


@pytest.fixture(autouse=True)
def close_stores(monkeypatch):
    """Close, when the test ends, every page store still open in a registry
    the test created: those of the graphs it converted or opened (through
    util.build_graph or otherwise) and of the logs and state stores it
    built on them."""
    opened = []
    init = StoreRegistry.__init__

    def tracked_init(registry, *args, **kwargs):
        opened.append(registry)
        init(registry, *args, **kwargs)

    monkeypatch.setattr(StoreRegistry, "__init__", tracked_init)
    yield
    for registry in opened:
        registry.close_all()
