"""Fixtures shared by the test modules."""

import sys

import pytest

from biconcert import graph_core


@pytest.fixture
def searched(monkeypatch):
    """The graphs whose connectivity was searched, one entry per search, in order.

    A search is a call of ``graph_core.reachable`` from
    ``WeightedGraph.connected``; the spy records the graph whose property
    made it (None for any other caller). The list keeps every graph alive,
    so no two of them share an ``id``.
    """
    graphs = []
    search = graph_core.reachable

    def spy(adj, start):
        graphs.append(sys._getframe(1).f_locals.get("self"))
        return search(adj, start)

    monkeypatch.setattr(graph_core, "reachable", spy)
    return graphs
