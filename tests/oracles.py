"""Adapters for the test-only oracles.

scipy and networkx check the NumPy references; the ``repro`` runtime
imports neither.
"""

import networkx as nx
import numpy as np

from repro.workloads.graphs import CsrGraph


def graph_to_networkx(g: CsrGraph) -> nx.DiGraph:
    """The out-adjacency of ``g`` as a networkx graph."""
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    G.add_edges_from(zip(src.tolist(), g.indices.tolist()))
    return G
