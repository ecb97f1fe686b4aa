"""Strongly connected components and topological order."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from elcomp.assembly import SignPattern
from elcomp.graphs import csr_strongly_connected, tarjan_scc, topo_order


def signs_of(n, adj):
    """The sign pattern whose cooperative digraph is adj (adj[v] = successor
    list): m_kl = -1 on 3 nodes for each edge l -> k, and 0 elsewhere."""
    m = np.zeros((n, n, 3))
    for v, succ in enumerate(adj):
        for w in succ:
            m[w, v] = -1.0
    return SignPattern.of(m)


def test_single_cycle_is_one_component():
    signs = signs_of(3, [[1], [2], [0]])
    assert signs.blocks == [[0, 1, 2]]
    assert signs.irreducible and not signs.cross and signs.order is None


def test_two_components_reverse_topological():
    # 0 -> 1 <-> 2; Tarjan returns component {1,2} before {0}
    adj = [[1], [2], [1]]
    assert tarjan_scc(3, adj.__getitem__) == [[1, 2], [0]]
    # the record sorts its blocks by first species; the edge 0 -> 1 crosses
    signs = signs_of(3, adj)
    assert signs.blocks == [[0], [1, 2]]
    assert signs.cross and not signs.irreducible and signs.order is None


def test_isolated_vertices():
    signs = signs_of(3, [[], [], []])
    assert signs.blocks == [[0], [1], [2]]
    assert not signs.cross and not signs.irreducible and signs.order == [0, 1, 2]


def test_self_loop_component():
    comps = tarjan_scc(2, [[0], []].__getitem__)
    assert [0] in comps and [1] in comps
    # a negative m_kk is no edge of the cooperative digraph
    signs = signs_of(2, [[0], []])
    assert signs.minus[0, 0] and signs.edges == [[], []]
    assert signs.blocks == [[0], [1]]


def test_csr_strong_connectivity():
    cyc = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert csr_strongly_connected(cyc)
    tri = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not csr_strongly_connected(tri)
    # explicit zeros must not count as edges
    almost = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    almost.data[1] = 0.0
    assert not csr_strongly_connected(almost)


def test_topo_order_smallest_first():
    # both 0 and 2 are sources; deterministic order picks 0 first
    adj = [[1], [], [1]]
    assert topo_order(3, adj) == [0, 2, 1]
    assert signs_of(3, adj).order == [0, 2, 1]
    assert topo_order(2, [[1], [0]]) is None
    assert signs_of(2, [[1], [0]]).order is None


def test_topo_order_respects_edges():
    adj = [[2], [2], [3], []]
    order = topo_order(4, adj)
    pos = {v: i for i, v in enumerate(order)}
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            assert pos[v] < pos[w]


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=20,
            ),
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_scc_partition_and_edge_direction(args):
    """Components partition the vertex set; cross edges only point backward
    in the returned order (reverse topological)."""
    n, edges = args
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    comps = tarjan_scc(n, lambda v: adj[v])
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(n))
    comp_of = {}
    for i, c in enumerate(comps):
        for v in c:
            comp_of[v] = i
    for u, v in edges:
        assert comp_of[u] >= comp_of[v]


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                    st.sampled_from([1.0, -2.5, 0.0]),
                ),
                max_size=3 * n,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_csr_strongly_connected_matches_tarjan(args):
    """The library answer on the dof graph equals the Tarjan reference;
    explicit zeros (value 0.0) are not edges."""
    n, edges = args
    rows = [u for u, _, _ in edges]
    cols = [v for _, v, _ in edges]
    vals = [x for _, _, x in edges]
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    a.sum_duplicates()
    adj = [[] for _ in range(n)]
    for u in range(n):
        for ix in range(a.indptr[u], a.indptr[u + 1]):
            if a.data[ix] != 0.0:
                adj[u].append(int(a.indices[ix]))
    assert csr_strongly_connected(a) == (len(tarjan_scc(n, lambda v: adj[v])) == 1)
