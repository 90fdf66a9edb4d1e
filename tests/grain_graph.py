"""Test-side component labels of a Boolean world's grain graph."""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def csr_labels(n, indices, indptr):
    """Connected-component label of every node of the n-node graph with
    these CSR arrays, by scipy's ``connected_components``."""
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def grain_labels(world):
    """``csr_labels`` of the CSR arrays that ``world`` itself builds
    (``_dense_csr`` or ``_tree_csr``, as ``_DENSE_MAX`` selects)."""
    return csr_labels(world.n, *world._graph())
