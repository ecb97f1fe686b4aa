"""Graph helpers: strongly connected components, topological order, and
potentials along the species coupling graph.

The dof graph of a sparse matrix goes to scipy's csgraph; the small species
digraphs use the iterative Tarjan below.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse.csgraph import connected_components


def tarjan_scc(n: int, succ) -> list:
    """Strongly connected components of a digraph, iterative Tarjan.

    succ(v) must yield the successors of v.  Returns a list of components,
    each a sorted list of vertices, in reverse topological order of the
    condensation (every edge goes from a later component to an earlier one).
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                components.append(comp)
    return components


def csr_strongly_connected(a) -> bool:
    """True when the digraph of a square sparse matrix is strongly connected.

    Explicit zeros are not edges; a is copied only to drop them.
    """
    n = a.shape[0]
    if n == 0:
        return False
    mat = a.tocsr()
    if not mat.data.all():
        mat = mat.copy()
        mat.eliminate_zeros()
    n_comp, _ = connected_components(mat, directed=True, connection="strong")
    return n_comp == 1


def topo_order(n: int, adj) -> list | None:
    """Deterministic topological order (smallest vertex first), None on cycles."""
    indeg = [0] * n
    for v in range(n):
        for w in adj[v]:
            indeg[w] += 1
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order if len(order) == n else None


def potentials(n: int, ratio: dict) -> np.ndarray | None:
    """Vertex values w with w_l = w_k r on every edge (k, l) of ratio, w = 1
    on the first vertex of each component, or None when two paths give a
    vertex different values.  The walk is depth-first and scans the edges in
    ratio's order, so each w is a product of ratios along one path; every
    other edge at a reached vertex is checked against it.
    """
    w = np.full(n, np.nan)
    for root in range(n):
        if not np.isnan(w[root]):
            continue
        w[root], todo = 1.0, [root]
        while todo:
            here = todo.pop()
            for (k, l), r in ratio.items():
                if here not in (k, l):
                    continue
                other, value = (l, w[k] * r) if here == k else (k, w[l] / r)
                if np.isnan(w[other]):
                    w[other] = value
                    todo.append(other)
                elif value != w[other]:
                    return None
    return w
