"""Exact searches against brute-force and ILP oracles; budget semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_chromatic_number,
    brute_clique_number,
    brute_hamiltonian,
    brute_total_domination,
    complete_multipartite,
    lattice_test_groups,
    milp_clique_number,
    milp_colourable,
    milp_total_domination,
    permutation_table,
    planted_twins,
    reference_clique_search,
    reference_total_domination,
    relabelled,
    unique_twin_classes,
)
from gengraph.errors import DominationUndefinedError
from gengraph.generating import delta_of, generating_graph
from gengraph.graphs import (Graph, complete_product, direct_product, twin_classes,
                             verify_certificate)
from gengraph.search import (
    chromatic_number,
    clique_number,
    hamiltonian,
    total_domination,
)


def _random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return Graph(adj | adj.T)


# ---------------------------------------------------------------------------
# Hamiltonian search


def test_hamiltonian_examples(group):
    assert hamiltonian(Graph.complete(5)).status == "yes"
    assert hamiltonian(Graph.complete(2)).status == "no"
    d12 = delta_of(group("C12"))
    res = hamiltonian(d12.graph)
    assert res.status == "yes"
    assert verify_certificate(d12.graph, res.cycle)


def test_hamiltonian_dirac_consistency(group):
    d5 = delta_of(group("C5"))
    assert d5.graph.degrees.min() * 2 >= d5.graph.n  # Dirac's bound holds
    res = hamiltonian(d5.graph)
    assert res.status == "yes" and verify_certificate(d5.graph, res.cycle)


def test_hamiltonian_budget_exhaustion(group):
    d = delta_of(group("C2^2 x C3^2"))
    res = hamiltonian(d.graph, 0)
    assert res.status == "budget" and res.cycle is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 8))
def test_hamiltonian_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.45)
    res = hamiltonian(graph)
    assert res.status in ("yes", "no")
    assert (res.status == "yes") == brute_hamiltonian(graph)
    if res.cycle is not None:
        assert verify_certificate(graph, res.cycle)


def test_hamiltonian_deterministic(group):
    d = delta_of(group("C2^2 x C9"))
    a = hamiltonian(d.graph)
    b = hamiltonian(d.graph)
    assert a.cycle == b.cycle and a.nodes == b.nodes


# ---------------------------------------------------------------------------
# clique number


def test_clique_examples(group):
    assert clique_number(complete_multipartite([2, 2, 2])).size == 3
    g12 = generating_graph(group("C12"))
    res = clique_number(g12.graph)
    assert res.size == 6  # phi(12) + pi(12)
    assert verify_certificate(g12.graph, res.clique)
    g36 = generating_graph(group("C2^2 x C9"))
    assert clique_number(g36.graph).size == 3  # p + 1 with p = 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9))
def test_clique_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.5)
    res = clique_number(graph)
    assert res.size == brute_clique_number(graph)
    assert verify_certificate(graph, res.clique)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 40), p=st.floats(0.1, 0.9))
def test_clique_matches_reference_search(seed, n, p):
    graph = _random_graph(np.random.default_rng(seed), n, p)
    res = clique_number(graph)
    assert (res.size, res.clique.vertices, res.nodes) == reference_clique_search(graph)


def test_clique_matches_reference_search_on_gamma(group):
    for spec in ("C30", "C2^2 x C3^2", "Heis3", "Ex(1)"):
        graph = generating_graph(group(spec)).graph
        res = clique_number(graph)
        assert (res.size, res.clique.vertices, res.nodes) == reference_clique_search(graph)


def test_clique_result_cached_per_budget():
    # the clique search is kept on the graph inside the chromatic result
    graph = complete_multipartite([3, 3, 3])
    res = chromatic_number(graph)
    assert res.clique == clique_number(graph)
    assert chromatic_number(graph) is res
    assert chromatic_number(graph, 10_000_000) is res  # the default, passed
    assert chromatic_number(graph, 0).clique.exceeded
    assert chromatic_number(graph) is res


def test_clique_budget():
    g = complete_multipartite([3, 3, 3])
    assert clique_number(g, 0).exceeded


def test_negative_budget_raises():
    for search, graph in ((hamiltonian, Graph.complete(4)), (clique_number, Graph.complete(3)),
                          (chromatic_number, Graph.complete(3)),
                          (total_domination, Graph.complete(3))):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            search(graph, -1)


# ---------------------------------------------------------------------------
# chromatic number


def test_chromatic_examples(group):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = chromatic_number(c5)
    assert res.chi == 3
    assert verify_certificate(c5, res.coloring)
    g12 = generating_graph(group("C12"))
    assert chromatic_number(g12.graph).chi == 6
    g4 = generating_graph(group("C2^2"))
    assert chromatic_number(g4.graph).chi == 3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 7))
def test_chromatic_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.5)
    res = chromatic_number(graph)
    assert res.chi == brute_chromatic_number(graph)
    assert verify_certificate(graph, res.coloring)
    assert max(res.coloring.colors, default=-1) + 1 <= res.chi


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_chi_at_least_omega(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.5)
    assert chromatic_number(graph).chi >= clique_number(graph).size


def test_colouring_search_is_charged_for_the_clique_search():
    # on Gamma(A5), chromatic_number spends 42 nodes, 15 of them finding ω
    graph = generating_graph(lattice_test_groups()["A5"]).graph
    full = chromatic_number(graph)
    assert (full.chi, full.nodes, full.clique.nodes) == (9, 42, 15)
    short = chromatic_number(graph, 41)
    assert short.exceeded and short.chi is None and not short.clique.exceeded
    assert chromatic_number(graph, 42).chi == 9


def test_counterexamples_match_milp():
    """ω < χ on Γ(A5) and Γ(S5), decided again by HiGHS: the MILP ω is the
    search's clique size, no χ − 1 colouring exists and a χ colouring does."""
    groups = lattice_test_groups()
    for name, omega, chi in (("A5", 8, 9), ("S5", 13, 15)):
        graph = generating_graph(groups[name]).graph
        ch = chromatic_number(graph)
        assert (ch.clique.size, ch.chi) == (omega, chi), name
        assert milp_clique_number(graph) == ch.clique.size, name
        clique = ch.clique.clique.vertices
        assert not milp_colourable(graph, ch.chi - 1, clique), name
        assert milp_colourable(graph, ch.chi, clique), name


def test_chromatic_coloring_proper(group):
    g = generating_graph(group("C2^2 x C3"))
    col = chromatic_number(g.graph).coloring
    assert verify_certificate(g.graph, col)


# ---------------------------------------------------------------------------
# total domination


def test_total_domination_examples(group):
    assert total_domination(Graph.complete(3)).size == 2
    d6 = delta_of(group("C6"))
    res = total_domination(d6.graph)
    assert res.size == 1  # a generator is marked self-dominating
    assert verify_certificate(d6.graph, res.witness)
    k34 = direct_product(Graph.complete(3), Graph.complete(4))
    res34 = total_domination(k34)
    assert res34.size == 3
    assert verify_certificate(k34, res34.witness)
    # exhaustive size-2 refutation
    assert brute_total_domination(k34) == 3


def test_total_domination_undefined():
    g = Graph.from_edges(3, ())
    with pytest.raises(DominationUndefinedError):
        total_domination(g)


def test_total_domination_disconnected_but_defined():
    two = direct_product(Graph.complete(2), Graph.complete(2))  # K2 x K2
    res = total_domination(two)
    assert res.size == 4  # every vertex's unique neighbour must be chosen


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
def test_domination_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 0.6)
    expected = brute_total_domination(graph)
    if expected is None:
        with pytest.raises(DominationUndefinedError):
            total_domination(graph)
    else:
        res = total_domination(graph)
        assert res.size == expected
        assert verify_certificate(graph, res.witness)


def test_domination_matches_milp_on_products():
    for parts in [(3, 4), (3, 4, 6), (4, 4, 4), (2, 2, 2)]:
        g = complete_product(parts)
        ours = total_domination(g).size
        assert ours == milp_total_domination(g), parts


def test_domination_coverage_bound_keeps_the_witness():
    from gengraph.graphs import td_bounds

    # K3 x K4 x K6, the search behind C2^2 x C3^2 x C5^2, started where
    # td_bounds starts it, one below, and at 1; the residual-coverage bound
    # cuts only subtrees with no set of size k, so the witness is the first
    # size-5 set in the depth-first order, the one a search without the
    # bound finds.  The node counts are exact: a bound that cut less, or a
    # branching order that moved, would change them
    g = complete_product((3, 4, 6))
    lower = td_bounds((3, 4, 6))[0]
    assert lower == 5
    for hint, nodes in ((lower, 5_157), (lower - 1, 33_088), (1, 34_019)):
        res = total_domination(g, lower_hint=hint)
        assert res.witness.vertices == (20, 31, 36, 49, 54), hint
        assert res.nodes == nodes, hint
    assert verify_certificate(g, res.witness)
    assert res.size == milp_total_domination(g) == 5


def test_domination_matches_the_plain_search(group):
    """Size, witness, node count and budget outcome equal those of
    `conftest.reference_total_domination`, on planted-twin graphs, random
    graphs with marks, and Δ(C2^2 x C9 x C3), under budgets that run out
    at the root, inside the search and not at all."""
    rng = np.random.default_rng(23)
    graphs = [planted_twins(rng, int(rng.integers(2, 6))) for _ in range(40)]
    for _ in range(40):
        n = int(rng.integers(3, 30))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.15, 0.5), 1)
        marks = rng.choice(n, size=int(rng.integers(0, 3)), replace=False).tolist()
        graphs.append(Graph(adj | adj.T, marks))
    graphs.append(delta_of(group("C2^2 x C9 x C3")).graph)
    checked = 0
    for graph in graphs:
        marked = np.isin(np.arange(graph.n), list(graph.marks))
        if not (graph.adj.any(axis=0) | marked).all():
            continue  # some vertex has no dominator
        for budget in (0, 3, 10_000_000):
            res = total_domination(graph, budget)
            witness = res.witness.vertices if res.witness is not None else None
            assert (res.size, witness, res.nodes, res.exceeded) == \
                reference_total_domination(graph, budget)
        checked += 1
    assert checked >= 50


def test_domination_with_twins_and_marks_matches_brute_force():
    # both twin kinds, and marked vertices beside unmarked twins, in random
    # vertex order: the search's one vertex per class loses no optimum
    rng = np.random.default_rng(17)
    for _ in range(60):
        graph = planted_twins(rng, int(rng.integers(2, 6)))
        expected = brute_total_domination(graph)
        if expected is None:
            with pytest.raises(DominationUndefinedError):
                total_domination(graph)
            continue
        res = total_domination(graph)
        assert res.size == expected == len(res.witness.vertices)
        assert verify_certificate(graph, res.witness)


def test_twin_quotient_matches_np_unique(group):
    rng = np.random.default_rng(29)
    graphs = [planted_twins(rng, int(rng.integers(1, 8))) for _ in range(20)]
    graphs += [generating_graph(group(spec)).graph for spec in ("C12", "C2^2 x C3", "Heis3")]
    for graph in graphs:
        reps, cls = twin_classes(graph)
        want, want_reps, want_cls = unique_twin_classes(graph)
        assert reps == want_reps.tolist() and cls == want_cls.tolist()
        assert np.array_equal(graph.induced(reps)[0].adj, want.adj)


def test_clique_and_coloring_with_planted_twins():
    # vertices with equal neighbourhoods, beside adjacent copies that are
    # not twins, in random vertex order: the searches' one vertex per twin
    # class loses no clique and no colour, and both witnesses hold on the
    # graph itself
    import networkx as nx

    rng = np.random.default_rng(23)
    for _ in range(80):
        graph = planted_twins(rng, int(rng.integers(1, 5)))  # at most 12 vertices
        other = nx.empty_graph(graph.n)
        other.add_edges_from(graph.edges())
        cl = clique_number(graph)
        assert cl.size == len(cl.clique.vertices) == max(map(len, nx.find_cliques(other)))
        assert verify_certificate(graph, cl.clique)
        ch = chromatic_number(graph)
        assert ch.chi == max(ch.coloring.colors) + 1 == brute_chromatic_number(graph)
        assert verify_certificate(graph, ch.coloring)


def test_s5_searches_under_relabelling():
    # Gamma(S5) has 120 vertices in 67 twin classes; these three labellings
    # take 188, 287 and 200 `chromatic_number` nodes, and the most over
    # seeds 20 to 39 is 406
    from sympy.combinatorics.named_groups import SymmetricGroup

    from gengraph.groups import Group

    s5 = Group(permutation_table(SymmetricGroup(5)), name="S5")
    for seed in (20, 21, 22):
        graph = generating_graph(relabelled(s5, seed)[0]).graph
        ch = chromatic_number(graph)
        assert (clique_number(graph).size, ch.chi) == (13, 15)
        assert ch.nodes <= 500


def test_domination_matches_milp_on_delta(group):
    # Delta of a cyclic group marks its generators; the others have twins
    # from Φ(G) and from elements of one cyclic subgroup
    specs = [f"C{n}" for n in range(2, 31)] + ["C2 x C6", "Heis3", "C2^2 x C3^2"]
    for spec in specs:
        graph = delta_of(group(spec)).graph
        res = total_domination(graph)
        assert res.size == milp_total_domination(graph), spec
        assert verify_certificate(graph, res.witness), spec


def test_domination_reports_the_witness_size():
    # a lower hint above the optimum: the first set found at k = 4 has two
    # vertices, and the result says so
    res = total_domination(Graph.complete(5), lower_hint=4)
    assert res.witness.vertices == (0, 1)
    assert res.size == 2


def test_domination_product_inequality(group):
    # gamma_t(G x H) <= gamma_t(G) * gamma_t(H) on random graph pairs
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = _random_graph(rng, 5, 0.7)
        b = _random_graph(rng, 5, 0.7)
        ga = brute_total_domination(a)
        gb = brute_total_domination(b)
        if ga is None or gb is None:
            continue
        prod = direct_product(a, b)
        gp = brute_total_domination(prod)
        if gp is not None:
            assert gp <= ga * gb


def test_domination_marks_semantics():
    # a marked vertex dominates itself but still needs to dominate others
    k1 = Graph.from_edges(1, ())
    with pytest.raises(DominationUndefinedError):
        total_domination(k1)
    k1m = Graph(np.zeros((1, 1), dtype=bool), marks=[0])
    assert total_domination(k1m).size == 1
