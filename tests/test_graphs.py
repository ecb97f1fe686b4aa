"""Strongly connected components, topological order and potentials."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from elcomp.assembly import SignPattern
from elcomp.graphs import csr_strongly_connected, potentials, tarjan_scc, topo_order


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


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.builds(lambda s, e: s * 2.0**e, st.sampled_from((1.0, -1.0)), st.integers(-8, 8)),
                min_size=n,
                max_size=n,
            ),
            st.tuples(*[st.integers(0, v - 1) for v in range(1, n)]),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            st.randoms(use_true_random=False),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_potentials_recover_weights_on_a_connected_graph(args):
    """Ratios w_l / w_k of weights +-2^e on the edges of a random connected
    graph (a random tree plus extra edges, each edge once, in either
    direction and in any order) give back w / w[0] exactly: every ratio and
    every product of ratios is a power of two, so no path rounds and no
    cycle can disagree."""
    w, parents, extra, rng = args
    n = len(w)
    edges = {frozenset(e) for e in enumerate(parents, 1)}
    edges |= {frozenset(e) for e in extra if e[0] != e[1]}
    pairs = [tuple(rng.sample(sorted(e), 2)) for e in sorted(edges, key=sorted)]
    rng.shuffle(pairs)
    ratio = {(k, l): w[l] / w[k] for k, l in pairs}
    got = potentials(n, ratio)
    assert got is not None
    assert got.tolist() == (np.asarray(w) / w[0]).tolist()
    assert got[0] == 1.0


def test_potentials_cycle_tolerance():
    """Around a cycle the values must agree exactly: a ring of ratios 2,
    1/2 and 1 closes, and one ulp off 1 on its last edge does not; each
    component starts at 1 on its first vertex."""
    ring = {(0, 1): 2.0, (1, 2): 0.5, (0, 2): 1.0}
    assert potentials(3, ring).tolist() == [1.0, 2.0, 1.0]
    ring[0, 2] = 1.0 + 2.0**-52
    assert potentials(3, ring) is None
    assert potentials(3, {(0, 1): -1.0, (1, 2): -1.0, (0, 2): -1.0}) is None
    assert potentials(4, {(2, 3): -1.0}).tolist() == [1.0, 1.0, 1.0, -1.0]
