"""Graph constructors, metrics, connectivity, Eulerian circuits, bounds."""

from __future__ import annotations

import itertools
import json
import typing

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    basic_metrics,
    brute_edge_connectivity,
    brute_vertex_connectivity,
    complete_multipartite,
    kappa_product_formula,
    lattice_test_groups,
    lex_product,
    planted_twins,
    reference_euler_circuit,
    scipy_edge_connectivity,
    scipy_flow,
    scipy_component_count,
    scipy_network,
    scipy_vertex_connectivity,
)
from gengraph import graphs
from gengraph.build import build_group
from gengraph.generating import delta_of
from gengraph.graphs import (
    Certificate,
    Clique,
    Coloring,
    DominatingSet,
    EdgeCut,
    EulerCircuit,
    Graph,
    HamCycle,
    HChords,
    VertexConnectivity,
    VertexCut,
    certificate_from_json,
    certificate_to_json,
    diameter,
    direct_product,
    edge_connectivity,
    eulerian_circuit,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    td_bounds,
    vertex_connectivity,
    verify_certificate,
)


def _random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return Graph(adj | adj.T)


# ---------------------------------------------------------------------------
# constructors


def test_complete_multipartite():
    k3 = complete_multipartite([1, 1, 1])
    assert k3.is_complete() and k3.n == 3
    g = complete_multipartite([2, 2, 2, 2])
    assert g.n == 8 and set(g.degrees.tolist()) == {6}
    null4 = complete_multipartite([4])
    assert null4.edge_count == 0 and null4.n == 4


def test_direct_product():
    two_edges = direct_product(Graph.complete(2), Graph.complete(2))
    assert two_edges.edge_count == 2 and basic_metrics(two_edges).component_count == 2
    k33 = direct_product(Graph.complete(3), Graph.complete(3))
    assert k33.n == 9 and set(k33.degrees.tolist()) == {4}
    null = direct_product(Graph.complete(3), Graph.from_edges(2, ()))
    assert null.edge_count == 0


def test_lex_product():
    k22 = lex_product(Graph.complete(2), Graph.from_edges(2, ()))
    assert k22.n == 4 and sorted(k22.degrees.tolist()) == [2, 2, 2, 2]
    k333 = lex_product(Graph.complete(3), Graph.from_edges(3, ()))
    assert set(k333.degrees.tolist()) == {6}
    two_edges = lex_product(Graph.from_edges(2, ()), Graph.complete(2))
    assert two_edges.edge_count == 2


def test_lex_product_definition_unfold():
    rng = np.random.default_rng(3)
    a, b = _random_graph(rng, 4, 0.5), _random_graph(rng, 3, 0.5)
    prod = lex_product(a, b)
    for (u1, v1) in itertools.product(range(4), range(3)):
        for (u2, v2) in itertools.product(range(4), range(3)):
            expect = bool(a.adj[u1, u2] or (u1 == u2 and b.adj[v1, v2]))
            assert bool(prod.adj[u1 * 3 + v1, u2 * 3 + v2]) == expect


# ---------------------------------------------------------------------------
# metrics


def test_basic_metrics_examples(group):
    m = basic_metrics(Graph.complete(5))
    assert (m.min_degree, m.is_connected, m.diameter) == (4, True, 1)
    d6 = delta_of(group("C6"))
    m6 = basic_metrics(d6.graph)
    assert (m6.min_degree, m6.is_connected, m6.diameter) == (2, True, 2)
    two = direct_product(Graph.complete(2), Graph.complete(2))
    assert basic_metrics(two).component_count == 2
    empty = basic_metrics(Graph.from_edges(0, ()))
    assert empty.min_degree is None and not empty.is_connected
    assert empty.diameter is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 12), p=st.floats(0.0, 1.0),
       split=st.booleans())
def test_diameter_matches_scipy(seed, n, p, split):
    """A split graph loses every edge between its two halves, so with two
    or more vertices it is disconnected and its diameter is None."""
    adj = _random_graph(np.random.default_rng(seed), n, p).adj.copy()
    if split:
        half = np.arange(n) < n // 2
        adj &= half[:, None] == half[None, :]
    graph = Graph(adj)
    assert diameter(graph) == basic_metrics(graph).diameter
    if split and n >= 2:
        assert diameter(graph) is None


def test_graph_keeps_its_own_adjacency():
    a = np.zeros((3, 3), dtype=bool)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = True  # the path 0-1-2
    g = Graph(a)
    a.setflags(write=True)
    a[0, 2] = a[2, 0] = True  # the caller completes its array to K3
    assert g.adj.tolist() == [[False, True, False], [True, False, True],
                              [False, True, False]]
    assert not g.is_complete()
    assert vertex_connectivity(g).value == 1


# ---------------------------------------------------------------------------
# connectivity


def test_vertex_connectivity_examples(group):
    assert vertex_connectivity(Graph.complete(4)).value == 3
    assert vertex_connectivity(Graph.complete(4)).complete
    assert vertex_connectivity(complete_multipartite([2, 2, 2, 2])).value == 6
    d6 = delta_of(group("C6"))
    res = vertex_connectivity(d6.graph)
    assert res.value == 2  # phi(6)
    assert verify_certificate(d6.graph, res.cut)


def test_edge_connectivity_examples(group):
    assert edge_connectivity(Graph.complete(1))[0] == 0
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    lam, cut = edge_connectivity(c5)
    assert lam == 2 and verify_certificate(c5, cut)
    dk = delta_of(group("C2^2 x C9"))
    lam, _ = edge_connectivity(dk.graph)
    assert lam == 12  # equals the minimum degree


def test_disconnected_conventions():
    two = direct_product(Graph.complete(2), Graph.complete(2))
    vc = vertex_connectivity(two)
    assert vc.value == 0 and vc.cut.vertices == ()
    assert verify_certificate(two, vc.cut)
    lam, cut = edge_connectivity(two)
    assert lam == 0 and cut.edges == ()
    k1 = Graph.complete(1)
    assert vertex_connectivity(k1) == VertexConnectivity(0, None, True)
    assert edge_connectivity(k1) == (0, EdgeCut(()))
    # a triangle and the isolated vertex 3: kappa's seed is N(3), empty;
    # lambda skips its flows from 0 to 1 and 2, and that to 3 is 0
    lone = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert vertex_connectivity(lone) == VertexConnectivity(0, VertexCut(()), False)
    assert edge_connectivity(lone) == (0, EdgeCut(()))
    assert verify_certificate(lone, EdgeCut(()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), p=st.floats(0.05, 0.9))
def test_connectivity_matches_brute_force(seed, n, p):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, p)
    vc = vertex_connectivity(graph)
    assert vc.value == brute_vertex_connectivity(graph)
    if vc.cut is not None:
        assert len(vc.cut.vertices) == vc.value
        assert verify_certificate(graph, vc.cut)
    lam, cut = edge_connectivity(graph)
    assert lam == brute_edge_connectivity(graph)
    if n >= 2:
        assert len(cut.edges) == lam
        assert verify_certificate(graph, cut)
    assert vc == scipy_vertex_connectivity(graph)
    assert (lam, cut) == scipy_edge_connectivity(graph)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 9))
def test_whitney_inequalities(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.5)
    kappa = vertex_connectivity(graph).value
    lam, _ = edge_connectivity(graph)
    delta = int(graph.degrees.min())
    assert kappa <= lam <= delta


def _assert_matches_networkx(graph: Graph):
    nxg = nx.from_numpy_array(graph.adj.astype(int))
    vc = vertex_connectivity(graph)
    assert vc.value == nx.node_connectivity(nxg)
    if vc.cut is not None:
        assert len(vc.cut.vertices) == vc.value
        assert verify_certificate(graph, vc.cut)
    lam, cut = edge_connectivity(graph)
    assert lam == nx.edge_connectivity(nxg)
    assert len(cut.edges) == lam
    assert verify_certificate(graph, cut)
    assert vc == scipy_vertex_connectivity(graph)
    assert (lam, cut) == scipy_edge_connectivity(graph)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(10, 30),
       p=st.floats(0.3, 0.95), split=st.booleans())
def test_connectivity_matches_networkx(seed, n, p, split):
    """Past the brute-force oracles' reach.  A split graph keeps the random
    edges at its first n // 5 vertices, the separator, and turns the other
    vertices into two cliques, by parity, with no edge between them; each
    separator vertex is also joined to all of one clique.  The separator
    bounds kappa, and every degree exceeds it, so kappa < delta."""
    rng = np.random.default_rng(seed)
    adj = _random_graph(rng, n, p).adj.copy()
    if split:
        side = np.arange(n) % 2
        side[:n // 5] = -1
        inside = side >= 0
        adj[np.ix_(inside, inside)] = side[inside, None] == side[None, inside]
        for v in range(n // 5):
            adj[v, side == v % 2] = adj[side == v % 2, v] = True
        np.fill_diagonal(adj, False)
    graph = Graph(adj)
    _assert_matches_networkx(graph)
    if split:
        assert vertex_connectivity(graph).value <= n // 5 < int(graph.degrees.min())


def test_connectivity_improved_only_by_a_neighbour_pair():
    """K8 less the edges 2-0, 2-1 and those between {3, 4} and {6, 7}.

    Vertex 2 is the first of minimum degree 5 and both of its flows to its
    non-neighbours 0 and 1 are 5; only its neighbours 3 and 6, on either
    side of the cut {0, 1, 2, 5}, find kappa = 4."""
    missing = {(0, 2), (1, 2), (3, 6), (3, 7), (4, 6), (4, 7)}
    graph = Graph.from_edges(8, [e for e in itertools.combinations(range(8), 2)
                                 if e not in missing])
    assert int(graph.degrees.min()) == 5
    assert vertex_connectivity(graph).cut.vertices == (0, 1, 2, 5)
    _assert_matches_networkx(graph)


def test_connectivity_found_by_a_source_pair():
    """The edge A = {0, 1}, the independent C = {2, 3} and the triangle
    B = {4, 5, 6}, each vertex of C joined to every vertex of A and B.

    Vertex 0 is the first of minimum degree 3.  Its non-neighbours in B
    share only C with it, two common neighbours, so their flows run and
    find kappa = 2; its neighbour pair 2, 3 has five and is skipped."""
    edges = [(0, 1), (4, 5), (4, 6), (5, 6)]
    edges += [(c, v) for c in (2, 3) for v in (0, 1, 4, 5, 6)]
    graph = Graph.from_edges(7, edges)
    assert vertex_connectivity(graph) == VertexConnectivity(2, VertexCut((2, 3)), False)
    _assert_matches_networkx(graph)


SCIPY_ORACLE_MAX_VERTICES = 150  # scipy's flows take minutes on the 576-vertex Delta
EVERY_PAIR_MAX_VERTICES = 400  # the loop over every pair takes over 30 s on the 576-vertex Delta


def test_connectivity_matches_scipy_on_catalog(group):
    """The same value and the same cut as scipy's max-flow, on every
    default-catalog Delta(G) of at most SCIPY_ORACLE_MAX_VERTICES vertices."""
    from gengraph.verify import default_catalog

    checked = 0
    for entry in default_catalog():
        graph = delta_of(group(entry.spec, entry.max_order)).graph
        if not 0 < graph.n <= SCIPY_ORACLE_MAX_VERTICES:
            continue
        assert vertex_connectivity(graph) == scipy_vertex_connectivity(graph), entry.spec
        assert edge_connectivity(graph) == scipy_edge_connectivity(graph), entry.spec
        checked += 1
    assert checked >= 50


def test_connectivity_matches_scipy_on_lattice_groups():
    """The same value and the same cut as scipy's max-flow on Delta(G) of
    S4, A5, S5, PSL(2,7) and AGL(1,p) for p = 7, 11, 13, up to 167 vertices."""
    sizes = {}
    for name, G in lattice_test_groups().items():
        graph = delta_of(G).graph
        assert vertex_connectivity(graph) == scipy_vertex_connectivity(graph), name
        assert edge_connectivity(graph) == scipy_edge_connectivity(graph), name
        sizes[name] = graph.n
    assert (sizes["AGL(1,13)"], sizes["PSL(2,7)"]) == (155, 167)


def _every_pair(monkeypatch, graph: Graph) -> tuple:
    """kappa and lambda of a fresh copy of `graph`, `_least_cut` given one
    class per vertex, so that no pair is skipped as a repeated twin orbit."""
    least_cut = graphs._least_cut
    with monkeypatch.context() as m:
        m.setattr(graphs, "_least_cut", lambda bits, pairs, vertex, best, cut, cls:
                  least_cut(bits, pairs, vertex, best, cut, list(range(len(bits)))))
        copy = Graph(graph.adj)
        return vertex_connectivity(copy), edge_connectivity(copy)


def test_twin_orbits_keep_connectivity_and_cuts(monkeypatch, group):
    """One flow per twin orbit gives the values and the cuts of the loop
    over every pair: on random graphs with planted twins, and on every
    default-catalog Delta(G) of at most EVERY_PAIR_MAX_VERTICES vertices."""
    from gengraph.verify import default_catalog

    rng = np.random.default_rng(31)
    cases = [planted_twins(rng, int(rng.integers(1, 7))) for _ in range(600)]
    cases += [delta_of(group(e.spec, e.max_order)).graph for e in default_catalog()]
    checked = 0
    for graph in cases:
        if not 0 < graph.n <= EVERY_PAIR_MAX_VERTICES:
            continue
        got = vertex_connectivity(graph), edge_connectivity(graph)
        assert got == _every_pair(monkeypatch, graph)
        checked += 1
    assert checked >= 650


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 16), p=st.floats(0.1, 0.9),
       limit=st.one_of(st.none(), st.integers(0, 16)))
def test_maximum_flow_matches_networkx_local_connectivity(seed, n, p, limit):
    """min(local connectivity, limit) for both flavours; below the limit,
    the residual source side that scipy's maximum flow gives."""
    from networkx.algorithms.connectivity import (
        local_edge_connectivity,
        local_node_connectivity,
    )

    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, p)
    nxg = nx.from_numpy_array(graph.adj.astype(int))
    bits = graph.bitmasks()
    cap = n if limit is None else limit
    nets = {vertex: scipy_network(graph, vertex) for vertex in (True, False)}
    for a, b in rng.permutation(list(itertools.permutations(range(n), 2)))[:6].tolist():
        for vertex, local in ((False, local_edge_connectivity), (True, local_node_connectivity)):
            if vertex and graph.adj[a, b]:
                with pytest.raises(ValueError):
                    graphs.maximum_flow(bits, a, b, True, limit)
                continue
            value, side = graphs.maximum_flow(bits, a, b, vertex, limit)
            assert value == min(local(nxg, a, b), cap)
            exact, reached = scipy_flow(nets[vertex], a, b, vertex)
            if exact < cap:
                assert side == sum(1 << v for v in np.flatnonzero(reached).tolist())
            else:
                assert side is None


def test_maximum_flow_reroutes_a_seeded_path():
    """From 6 to 5 the seeding takes 6-2-1-5, and no other path of length 3
    is left; the augmenting path 6-7-1-2-8-5 cancels its arc 2 -> 1.  Once
    the flow is maximum, the residual source side reaches 2 only through
    that freed edge, from 1."""
    graph = Graph.from_edges(9, [(0, 1), (0, 4), (1, 2), (1, 4), (1, 5), (1, 7), (2, 6),
                                 (2, 8), (3, 4), (3, 6), (4, 7), (5, 8), (6, 7)])
    value, side = graphs.maximum_flow(graph.bitmasks(), 6, 5, False)
    assert (value, side) == (2, 0b011011111)
    exact, reached = scipy_flow(scipy_network(graph, False), 6, 5, False)
    assert (exact, np.flatnonzero(reached).tolist()) == (2, [0, 1, 2, 3, 4, 6, 7])


def test_maximum_flow_walks_back_through_a_carrying_vertex():
    """From 10 to 7 the maximum flow is 10-8-7 and 10-6-0-5-7.  Its last,
    failed search reaches 0's exit from 5's entry, and 6's exit only from
    there, back through 0's entry; so 6, whose entry is reached directly,
    is not in the cut {5, 8}."""
    graph = Graph.from_edges(12, [(0, 5), (0, 6), (0, 8), (1, 5), (1, 6), (1, 11), (2, 5),
                                  (2, 6), (2, 11), (3, 5), (3, 8), (3, 11), (5, 7), (6, 8),
                                  (6, 10), (6, 11), (7, 8), (8, 10), (9, 11), (10, 11)])
    value, cut = graphs.maximum_flow(graph.bitmasks(), 10, 7, True)
    assert (value, cut) == (2, 1 << 5 | 1 << 8)
    exact, reached = scipy_flow(scipy_network(graph, True), 10, 7, True)
    assert (exact, np.flatnonzero(reached).tolist()) == (2, [5, 8])


def test_delta_and_kappa_are_cached(monkeypatch):
    G = build_group("C2^2 x C3")
    assert delta_of(G) is delta_of(G)
    calls = []
    real = graphs.maximum_flow

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)
    monkeypatch.setattr(graphs, "maximum_flow", counted)
    graph = delta_of(G).graph
    first = vertex_connectivity(graph)
    assert calls
    calls.clear()
    assert vertex_connectivity(delta_of(G).graph) is first
    assert calls == []
    with pytest.raises(ValueError):
        graph.adj[0, 1] = not graph.adj[0, 1]


# ---------------------------------------------------------------------------
# Eulerian circuits


def test_euler_k3():
    res = eulerian_circuit(Graph.complete(3))
    assert res.circuit is not None and len(res.circuit.vertices) == 4
    assert verify_certificate(Graph.complete(3), res.circuit)


def test_euler_refusals(group):
    d6 = delta_of(group("C6"))
    res = eulerian_circuit(d6.graph)
    assert res.circuit is None and "odd degree" in res.reason
    two = direct_product(Graph.complete(2), Graph.complete(2))
    assert eulerian_circuit(two).circuit is None
    assert eulerian_circuit(Graph.from_edges(0, ())).circuit is None


def test_euler_delta_c9(group):
    d9 = delta_of(group("C9"))
    assert set(d9.graph.degrees.tolist()) <= {6, 8}
    res = eulerian_circuit(d9.graph)
    assert res.circuit is not None
    assert verify_certificate(d9.graph, res.circuit)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 9))
def test_euler_criterion_matches_construction(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.6)
    m = basic_metrics(graph)
    should = m.is_connected and bool((graph.degrees % 2 == 0).all())
    res = eulerian_circuit(graph)
    assert (res.circuit is not None) == should
    if res.circuit is not None:
        assert verify_certificate(graph, res.circuit)


def test_euler_circuit_matches_reference_on_catalog(group):
    from gengraph.verify import default_catalog

    found = 0
    for spec in [e.spec for e in default_catalog()]:
        graph = delta_of(group(spec)).graph
        res = eulerian_circuit(graph)
        if res.circuit is not None:
            assert res.circuit.vertices == reference_euler_circuit(graph), spec
            found += 1
    assert found >= 35


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 30), p=st.floats(0.2, 0.9))
def test_euler_circuit_matches_reference(seed, n, p):
    # toggling an edge between paired odd vertices makes every degree even
    rng = np.random.default_rng(seed)
    adj = _random_graph(rng, n, p).adj.copy()
    odd = np.flatnonzero(adj.sum(axis=1) % 2).tolist()
    for u, v in zip(odd[0::2], odd[1::2]):
        adj[u, v] = adj[v, u] = not adj[u, v]
    graph = Graph(adj)
    assume(scipy_component_count(graph) == 1)
    res = eulerian_circuit(graph)
    assert res.circuit is not None
    assert res.circuit.vertices == reference_euler_circuit(graph)
    assert verify_certificate(graph, res.circuit)


@pytest.mark.parametrize("seed, n, p", [(1, 257, 0.05), (2, 300, 0.5), (3, 512, 0.02),
                                        (4, 700, 0.1)])
def test_euler_circuit_matches_reference_beyond_256_vertices(seed, n, p):
    # the hypothesis test above stops at 30 vertices; these graphs number
    # their vertices past one byte, sparse and dense
    rng = np.random.default_rng(seed)
    adj = _random_graph(rng, n, p).adj.copy()
    odd = np.flatnonzero(adj.sum(axis=1) % 2).tolist()
    for u, v in zip(odd[0::2], odd[1::2]):
        adj[u, v] = adj[v, u] = not adj[u, v]
    graph = Graph(adj)
    assert scipy_component_count(graph) == 1
    res = eulerian_circuit(graph)
    assert res.circuit is not None
    assert res.circuit.vertices == reference_euler_circuit(graph)
    assert verify_certificate(graph, res.circuit)


# ---------------------------------------------------------------------------
# certificates and serialization


def test_verify_certificate_negatives():
    k3 = Graph.complete(3)
    assert verify_certificate(k3, HamCycle((0, 1, 2)))
    assert not verify_certificate(k3, HamCycle((0, 1, 1)))
    assert not verify_certificate(k3, HamCycle((0, 1)))
    assert not verify_certificate(Graph.complete(4), HamCycle((0, 1, 0, 1)))
    # fewer than three vertices have no Hamiltonian cycle
    assert not verify_certificate(Graph.complete(2), HamCycle((0, 1)))
    assert not verify_certificate(Graph.from_edges(0, ()), HamCycle(()))
    assert verify_certificate(k3, Clique((0, 2)))
    assert not verify_certificate(k3, Clique((0, 3)))
    assert not verify_certificate(k3, Clique((-1, 0)))
    assert not verify_certificate(k3, Clique((0, 0)))  # (0, 0) is no edge
    assert not verify_certificate(k3, VertexCut((0, 1, 2)))
    # a cut names a set of vertices of the graph
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_certificate(path, VertexCut((1, 1)))
    assert not verify_certificate(path, VertexCut((1, 7)))
    assert not verify_certificate(path, VertexCut((-1, 1)))
    assert not verify_certificate(k3, Coloring((0, 0, 1)))
    assert verify_certificate(k3, Coloring((0, 1, 2)))
    assert verify_certificate(Graph.from_edges(0, ()), Coloring(()))
    assert not verify_certificate(k3, Coloring((0, 1)))
    assert not verify_certificate(k3, Coloring((0, 1, 2, 3)))
    assert not verify_certificate(k3, Coloring((-1, 0, 1)))
    assert not verify_certificate(k3, DominatingSet((0,)))
    assert verify_certificate(k3, DominatingSet((0, 1)))
    assert not verify_certificate(k3, DominatingSet((-1, 0)))
    # a marked vertex counts as its own neighbour
    assert verify_certificate(Graph.from_edges(2, [(0, 1)], marks=[0]), DominatingSet((0,)))
    assert not verify_certificate(Graph.complete(2), DominatingSet((0,)))
    assert not verify_certificate(k3, EulerCircuit((0, 1, 2)))
    assert verify_certificate(k3, EulerCircuit((0, 1, 2, 0)))
    # walk vertices outside 0..n-1, also on edgeless graphs
    assert not verify_certificate(Graph.from_edges(3, ()), EulerCircuit((7,)))
    assert not verify_certificate(Graph.from_edges(3, ()), EulerCircuit((-1,)))
    assert not verify_certificate(Graph.from_edges(0, ()), EulerCircuit((5,)))
    assert verify_certificate(Graph.from_edges(3, ()), EulerCircuit((2,)))
    assert verify_certificate(Graph.from_edges(3, ()), EulerCircuit(()))
    assert not verify_certificate(Graph.from_edges(3, ()), EulerCircuit((0, 1)))
    assert not verify_certificate(k3, EulerCircuit((0, 1, 3, 0)))
    # entries beyond int32 and int64, either sign, in a walk of the right
    # length; 2 + 2**32 and 1 - 2**32 wrap onto vertices 2 and 1 in int32
    for far in (2 + 2 ** 32, 1 - 2 ** 32, 2 ** 40, -2 ** 40, 2 ** 70, -2 ** 70):
        assert not verify_certificate(k3, EulerCircuit((0, 1, far, 0)))
    # every edge walked, and one of them twice
    assert not verify_certificate(k3, EulerCircuit((0, 1, 2, 0, 1, 0)))
    # two triangles on vertex 0: a repeated edge, a non-edge step
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert verify_certificate(bowtie, EulerCircuit((0, 1, 2, 0, 3, 4, 0)))
    assert not verify_certificate(bowtie, EulerCircuit((0, 1, 2, 0, 1, 2, 0)))
    assert not verify_certificate(bowtie, EulerCircuit((0, 1, 2, 3, 4, 0, 0)))
    # a walk over every edge of a path, but not closed
    assert not verify_certificate(path, EulerCircuit((0, 1, 2)))
    # three steps on three edges, closed, but the step {2, 0} is no edge
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not verify_certificate(path4, EulerCircuit((0, 1, 2, 0)))


def test_verify_hchords_negatives():
    """A 4-cycle 0-1-2-3 whose odd chord {1, 3} is an edge of `kite` and
    whose even chord {0, 2} is not."""
    k4, c4 = Graph.complete(4), (0, 1, 2, 3)
    kite = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    assert verify_certificate(k4, HChords(c4, (1, 3), (0, 2)))
    assert verify_certificate(k4, HChords(c4, (3, 1), (2, 0)))
    assert not verify_certificate(kite, HChords(c4, (1, 3), (0, 2)))
    assert not verify_certificate(k4, HChords(c4, None, None))
    assert not verify_certificate(k4, HChords(c4, (1, 3), None))
    assert not verify_certificate(k4, HChords(c4, (0, 2), (1, 3)))  # wrong parity
    assert not verify_certificate(k4, HChords(c4, (1, 2), (0, 2)))  # a cycle edge
    assert not verify_certificate(k4, HChords(c4, (1, 3), (0, 3)))  # a cycle edge
    assert not verify_certificate(k4, HChords(c4, (1, 1), (0, 2)))
    assert not verify_certificate(k4, HChords(c4, (-1, 1), (0, 2)))
    assert not verify_certificate(k4, HChords(c4, (1, 5), (0, 2)))
    assert not verify_certificate(k4, HChords((0, 1, 3), (1, 3), (0, 2)))
    # both chords are edges, but the cycle's closing edge {3, 0} is not
    open4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
    assert not verify_certificate(open4, HChords(c4, (1, 3), (0, 2)))
    # an odd cycle carries no chords
    k3 = Graph.complete(3)
    assert verify_certificate(k3, HChords((0, 1, 2), None, None))
    assert not verify_certificate(k3, HChords((0, 1, 2), (1, 1), None))
    assert not verify_certificate(k3, HChords((0, 1, 2), None, (0, 2)))
    with pytest.raises(TypeError, match="unknown certificate"):
        verify_certificate(k4, c4)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 12), p=st.floats(0.0, 1.0))
def test_cut_verifiers_match_networkx(seed, n, p):
    """Random vertex sets and edge lists on random graphs of at most 12
    vertices, disconnected ones included.  A vertex cut is valid when at
    least two vertices are left and they are disconnected; an edge cut when
    its entries are distinct edges of a graph of at least two vertices that
    is disconnected without them.  Edge lists sometimes carry a repeated
    edge, a non-edge or an endpoint out of range."""
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, p)
    nxg = nx.from_numpy_array(graph.adj.astype(int))
    edges = graph.edges()
    for _ in range(10):
        cut = np.flatnonzero(rng.random(n) < rng.random()).tolist()
        rest = nxg.subgraph(set(range(n)) - set(cut))
        valid = len(rest) >= 2 and not nx.is_connected(rest)
        assert verify_certificate(graph, VertexCut(tuple(cut))) == valid
        keep = rng.random()
        chosen = [e for e in edges if rng.random() < keep]
        if rng.random() < 0.3:
            chosen.append(tuple(rng.integers(0, n + 1, size=2).tolist()))
        if chosen and rng.random() < 0.2:
            chosen.append(chosen[0][::-1])
        less = nxg.copy()
        less.remove_edges_from(chosen)
        valid = (all(nxg.has_edge(u, v) for u, v in chosen)
                 and len({frozenset(e) for e in chosen}) == len(chosen)
                 and n >= 2 and not nx.is_connected(less))
        assert verify_certificate(graph, EdgeCut(tuple(chosen))) == valid


def test_certificate_json_round_trip():
    certs = [
        VertexCut((1, 2)),
        EdgeCut(((0, 1), (2, 3))),
        EulerCircuit((0, 1, 2, 0)),
        HamCycle((0, 1, 2)),
        Clique((0, 3)),
        Coloring((0, 1, 0)),
        DominatingSet((0, 4)),
        HChords((0, 1, 2, 3), (1, 3), (0, 2)),
        HChords((0, 1, 2), None, None),
    ]
    assert tuple(dict.fromkeys(map(type, certs))) == typing.get_args(Certificate)
    # the tags that reports and certificate files carry
    assert [json.loads(certificate_to_json(c))["type"] for c in certs] == [
        "vertex_cut", "edge_cut", "euler_circuit", "ham_cycle", "clique",
        "coloring", "dominating_set", "h_chords", "h_chords"]
    for c in certs:
        assert certificate_from_json(certificate_to_json(c)) == c


def test_graph_json_round_trip(group):
    d6 = delta_of(group("C6"))
    text = graph_to_json(d6.graph, d6.labels)
    g2, labels = graph_from_json(text, max_order=6)
    assert np.array_equal(g2.adj, d6.graph.adj)
    assert tuple(labels) == d6.labels
    assert g2.marks == d6.graph.marks
    assert graph_to_json(g2, labels) == text  # deterministic bytes


def test_graph_dot_deterministic(group):
    d6 = delta_of(group("C6"))
    a = graph_to_dot(d6.graph, d6.labels)
    b = graph_to_dot(d6.graph, d6.labels)
    assert a == b and a.startswith("graph")


# ---------------------------------------------------------------------------
# bound formulas


def test_td_bounds_examples():
    assert td_bounds((3, 4, 6)) == (5, 6, 1)
    assert td_bounds((6, 3, 4)) == (5, 6, 1)  # read unsorted, it gives (4, 6, 1)
    assert td_bounds((3, 4)) == (3, 3, 0)
    lower, upper, t = td_bounds((2, 2))
    assert (lower, upper) == (4, 4)
    assert t == 1  # least t with a_i > s-t for all i > t
    with pytest.raises(ValueError):
        td_bounds((1, 2))


def test_td_bounds_lower_at_least_s_plus_1():
    for parts in [(2, 2), (2, 3), (3, 4), (3, 4, 6), (2, 2, 2), (4, 4, 4),
                  (2, 3, 5, 7)]:
        lower, upper, _ = td_bounds(parts)
        assert lower >= len(parts) + 1
        assert lower <= upper


def test_kappa_product_formula_examples():
    assert kappa_product_formula(4, 4, (2, 2, 2)) == 16
    assert kappa_product_formula(1, 1, (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        kappa_product_formula(1, 1, (1, 2))
    with pytest.raises(ValueError):
        kappa_product_formula(1, 1, (1, 1, 3))


def test_kappa_formula_against_flow_small():
    # Gamma = K2 (kappa = delta = 1), parts (1,1,1): K2 x K3 = C6
    got = kappa_product_formula(1, 1, (1, 1, 1))
    measured = vertex_connectivity(
        direct_product(Graph.complete(2), complete_multipartite([1, 1, 1]))).value
    assert got == measured == 2


def test_multipartite_params_validation():
    """The part-size class this test once checked is gone: `td_bounds`
    takes a plain tuple, and validates it and works out t itself."""
    for parts in ((), (0, 1), (1, 2)):
        with pytest.raises(ValueError):
            td_bounds(parts)
    assert td_bounds((2, 2, 3))[2] == 2
    assert td_bounds((4, 4, 4))[2] == 0
