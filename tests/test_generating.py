"""Generating graphs, degree censuses, and the structural identities."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    basic_metrics,
    brute_adjacency,
    componentwise_pair_matrix,
    drop_first_gamma_edge,
    example_family_graph,
    p_part,
    reference_lex_edges,
    reference_product_edges,
)
from gengraph.build import build_group
from gengraph.errors import NonIntegralRatioError, NotNilpotentError
from gengraph.generating import (
    coprime_noncyclic_split,
    degree_profile,
    delta_of,
    gamma_coset_bijection,
    generating_graph,
    lex_decomposition_check,
    recover_cyclic_radical,
)
from gengraph.graphs import direct_product
from gengraph.groups import quotient_mod_frattini


def test_gamma_c2sq_triangle_plus_isolated(group):
    gg = generating_graph(group("C2^2"))
    assert gg.graph.degrees.tolist() == [0, 2, 2, 2]
    dd = delta_of(group("C2^2"))
    assert dd.graph.n == 3 and dd.graph.is_complete()


def test_gamma_c6_degree_sequence(group):
    gg = generating_graph(group("C6"))
    assert gg.graph.edge_count == 11
    # order (1, g, g^5, g^3, g^2, g^4) carries degrees (2, 5, 5, 4, 3, 3)
    degs = gg.graph.degrees
    assert [int(degs[i]) for i in (0, 1, 5, 3, 2, 4)] == [2, 5, 5, 4, 3, 3]
    assert sorted(gg.graph.marks) == [1, 5]


def test_gamma_c1_single_isolated_vertex(group):
    gg = generating_graph(group("C1"))
    assert gg.graph.n == 1 and gg.graph.edge_count == 0
    assert delta_of(group("C1")).graph.n == 0


def test_gamma_matches_brute_force(group):
    for spec in ["C8", "C2^2 x C3", "Heis3", "C2 x C6", "C2^2 x C9", "C3^2 x C5",
                 "C2^2 x Heis3", "Ex(1)"]:
        g = group(spec)
        gg = generating_graph(g)
        assert np.array_equal(gg.graph.adj, brute_adjacency(g)), spec


def test_gamma_is_cached():
    G = build_group("C2^2 x C3")
    gg = generating_graph(G)
    assert generating_graph(G) is gg
    with pytest.raises(ValueError):
        gg.graph.adj[0, 1] = not gg.graph.adj[0, 1]


def test_delta_nonisolated_counts(group):
    assert delta_of(group("C6")).graph.n == 6  # cyclic: nothing isolated
    assert delta_of(group("C2^2 x C9")).graph.n == 27  # 36 * (3/4)


def test_null_graph_for_non_two_generated(group):
    gg = generating_graph(group("C2^3"))
    assert gg.graph.edge_count == 0
    assert delta_of(group("C2^3")).graph.n == 0


# ---------------------------------------------------------------------------
# degree profile


def test_degree_profile_c6(group):
    prof = degree_profile(group("C6"))
    by_subset = {c.subset: c for c in prof.classes}
    full = by_subset[(2, 3)]
    assert full.alpha == 2 and full.beta == 5 and full.epsilon == 1
    empty = by_subset[()]
    assert empty.alpha == 1 and empty.beta == 2 and empty.epsilon == 0


def test_degree_profile_c2sq_c9(group):
    prof = degree_profile(group("C2^2 x C9"))
    from fractions import Fraction
    assert prof.gen_probability == Fraction(1, 3)
    assert prof.nonisolated_count == 27
    assert prof.min_degree == 12
    assert prof.gen_probability_observed == prof.gen_probability
    assert prof.nonisolated_observed == 27
    assert prof.min_degree_observed == 12


def test_degree_profile_records_a_census_that_differs(group, monkeypatch):
    """A census that contradicts the formulas is recorded, not raised: a
    class whose degrees differ has no observed degree, and the profile
    does not hold."""
    drop_first_gamma_edge(monkeypatch)
    prof = degree_profile(group("C2^2 x C3"))
    assert not prof.holds
    assert None in [c.observed_degree for c in prof.classes]
    assert prof.gen_probability_observed < prof.gen_probability


def test_degree_profile_rejects_non_nilpotent(group):
    with pytest.raises(NotNilpotentError):
        degree_profile(group("Ex(1)"))


def test_degree_profile_all_catalog_nilpotents(group):
    for spec in ["C2", "C9", "C12", "C30", "C2^2", "C3^2", "C2^2 x C3",
                 "C2^2 x C3^2", "C4 x C3^2", "C3^2 x C5", "Heis3",
                 "C2^2 x Heis3", "C2^2 x C9 x C3"]:
        assert degree_profile(group(spec)).holds, spec


# ---------------------------------------------------------------------------
# the recovery statistic


def test_recover_cyclic_radical(group):
    assert recover_cyclic_radical(generating_graph(group("C2^2 x C9"))) == 3
    assert recover_cyclic_radical(generating_graph(group("C2^2"))) == 1
    assert recover_cyclic_radical(generating_graph(group("C3^2 x C5"))) == 5


def test_recover_cyclic_radical_on_900(group):
    gg = generating_graph(group("C2^2 x C3^2 x C5"))
    assert recover_cyclic_radical(gg) == 5


def test_recover_radical_non_nilpotent_raw(group):
    # Delta of the order-108 semidirect example is regular, so the raw
    # ratio is 1; reported without interpretation
    assert recover_cyclic_radical(generating_graph(group("Ex(1)"))) == 1


def test_recover_radical_empty_graph_raises(group):
    with pytest.raises(NonIntegralRatioError):
        recover_cyclic_radical(generating_graph(group("C2^3")))


# ---------------------------------------------------------------------------
# example family


def test_example_family_d1(group):
    eg = example_family_graph(1)
    assert eg.graph.n == 54
    assert set(eg.graph.degrees.tolist()) == {24}  # 2 * 3 * (3-1)^2
    # proportion of nonisolated vertices: 54/108 = (3/4)(1 - 1/3)
    assert eg.graph.n * 2 == 108


def test_example_family_d1_matches_cayley_table(group):
    eg = example_family_graph(1)
    brute = delta_of(group("Ex(1)"))
    rule_edges = {tuple(sorted((eg.vertex_elements[u], eg.vertex_elements[v])))
                  for u, v in eg.graph.edges()}
    brute_edges = {tuple(sorted((brute.vertex_elements[u], brute.vertex_elements[v])))
                   for u, v in brute.graph.edges()}
    assert set(eg.vertex_elements) == set(brute.vertex_elements)
    assert rule_edges == brute_edges


def test_example_family_d2_rule_based(group):
    eg = example_family_graph(2)
    assert eg.graph.n == 5400  # 3 * (9*2) * (25*4)
    assert set(eg.graph.degrees.tolist()) == {1920}  # 2 * (3*4) * (5*16)


def test_example_family_guard():
    from gengraph.errors import OrderGuardError
    with pytest.raises(OrderGuardError):
        example_family_graph(3, max_vertices=10_000)


# ---------------------------------------------------------------------------
# lexicographical decomposition


def test_lex_decomposition_catalog(group):
    for spec in ["C8", "C12", "C18", "C2^2", "C2^2 x C9", "Heis3", "C4 x C3^2"]:
        res = lex_decomposition_check(group(spec))
        assert res.passed, (spec, res.detail)


def test_lex_decomposition_c8_block_structure(group):
    res = lex_decomposition_check(group("C8"))
    # Q = C2 and |Frat| = 4: the generator coset's complete block and the
    # edges between the cosets are the 6 + 16 pairs with an odd element
    assert res.passed and res.delta_edges == res.product_edges == 22


def test_identity_counts_match_the_edge_set_oracle(catalog_report, group):
    # every EQ_LEX and COR_2_6_PROD the default catalog runs: the counts
    # from element adjacency matrices equal those of element pair sets
    seen = {"EQ_LEX": 0, "COR_2_6_PROD": 0}
    for r in catalog_report.results:
        if r.check not in seen or r.status == "skipped":
            continue
        G = group(r.group)
        if r.check == "EQ_LEX":
            delta, prod = reference_lex_edges(G)
        else:
            delta, prod = reference_product_edges(G, *coprime_noncyclic_split(G))
        assert r.status == "pass" and delta == prod, (r.group, r.check)
        assert (r.expected["edges"], r.observed["edges"]) == (len(delta), len(prod)), r.group
        seen[r.check] += 1
    assert seen["EQ_LEX"] >= 40 and seen["COR_2_6_PROD"] >= 3


def test_broken_mapping_counts_match_the_edge_set_oracle(group, monkeypatch):
    # one element of each of two adjacent cosets swapped: the lift moves
    # edges off Delta, and the counts and detail are the oracle's on that map
    from gengraph import generating

    G = group("Heis3")
    Q, cmap, phi = quotient_mod_frattini(G)
    qdelta = delta_of(Q)
    u, v = (qdelta.vertex_elements[w] for w in qdelta.graph.edges()[0])
    x, y = np.flatnonzero(cmap == u)[0], np.flatnonzero(cmap == v)[0]
    broken = cmap.copy()
    broken[[x, y]] = v, u
    monkeypatch.setattr(generating, "quotient_mod_frattini", lambda G: (Q, broken, phi))
    res = lex_decomposition_check(G)
    delta, prod = reference_lex_edges(G, broken)
    assert delta - prod and prod - delta
    assert not res.passed
    assert (res.delta_edges, res.product_edges) == (len(delta), len(prod))
    assert res.detail == (f"{len(delta - prod)} edges only in Delta, "
                          f"{len(prod - delta)} only in the product")


# ---------------------------------------------------------------------------
# degree and connectedness lifting


def test_degree_lifting_noncyclic(group):
    for spec in ["C2^2 x C9", "Heis3", "C4 x C3^2", "C2^2 x Heis3"]:
        g = group(spec)
        gg = generating_graph(g)
        Q, cmap, phi = quotient_mod_frattini(g)
        qdeg = generating_graph(Q).graph.degrees
        assert np.array_equal(gg.graph.degrees, qdeg[cmap] * len(phi)), spec


def test_min_degree_scaling_cyclic(group):
    # for cyclic groups only the minimum degree scales by |Frat|
    for spec in ["C8", "C12", "C18"]:
        g = group(spec)
        dd = delta_of(g)
        Q, _, phi = quotient_mod_frattini(g)
        dq = delta_of(Q)
        assert int(dd.graph.degrees.min()) == int(dq.graph.degrees.min()) * len(phi)


def test_connectedness_lifting(group):
    rng = np.random.default_rng(23)
    for spec in ["C8", "C2^2 x C9", "Heis3"]:
        g = group(spec)
        dd = delta_of(g)
        _, cmap, phi = quotient_mod_frattini(g)
        phi_elems = sorted(phi)
        velems = list(dd.vertex_elements)
        pos = {e: i for i, e in enumerate(velems)}
        for _ in range(15):
            size = int(rng.integers(2, max(3, dd.graph.n // 2)))
            sample = rng.choice(dd.graph.n, size=min(size, dd.graph.n), replace=False)
            x_elems = {velems[int(v)] for v in sample}
            xf_elems = {int(g.table[e, f]) for e in x_elems for f in phi_elems}
            sub_x, _ = dd.graph.induced([pos[e] for e in x_elems])
            sub_xf, _ = dd.graph.induced([pos[e] for e in xf_elems])
            cx = basic_metrics(sub_x).is_connected
            cxf = basic_metrics(sub_xf).is_connected
            assert cx == cxf, (spec, sorted(x_elems))


# ---------------------------------------------------------------------------
# products (subgraph containments and coprime equality)


def test_product_equality_coprime_noncyclic(group):
    for spec in ["C2^2 x C3^2", "C2^2 x Heis3"]:
        g = group(spec)
        split = coprime_noncyclic_split(g)
        assert split is not None, spec
        A, amap, B, bmap = split
        da, db = delta_of(A), delta_of(B)
        prod = direct_product(da.graph, db.graph)
        nb = db.graph.n
        mapped = {}
        for i, va in enumerate(da.vertex_elements):
            for j, vb in enumerate(db.vertex_elements):
                mapped[i * nb + j] = int(g.table[int(amap[va]), int(bmap[vb])])
        prod_edges = {tuple(sorted((mapped[u], mapped[v]))) for u, v in prod.edges()}
        dd = delta_of(g)
        delta_edges = {tuple(sorted((dd.vertex_elements[u], dd.vertex_elements[v])))
                       for u, v in dd.graph.edges()}
        assert prod_edges == delta_edges, spec


def test_product_subgraph_noncyclic(group):
    # every edge of Gamma(G x H) projects to an edge of Gamma(G) x Gamma(H),
    # also when the factor orders are not coprime
    g = group("C2^2")
    h = group("C2^2")
    gh = build_group("C2^2 x C2^2")
    ggh = generating_graph(gh)
    assert ggh.graph.edge_count == 0  # needs 4 generators: containment trivial
    g2 = group("C2^2 x C3^2")
    split = coprime_noncyclic_split(g2)
    A, amap, B, bmap = split
    ga, gb = generating_graph(A), generating_graph(B)
    gg2 = generating_graph(g2)
    apos = {int(a): i for i, a in enumerate(amap)}
    bpos = {int(b): i for i, b in enumerate(bmap)}
    for u, v in gg2.graph.edges():
        u, v = int(u), int(v)
        assert ga.graph.adj[apos[p_part(g2, u, 2)], apos[p_part(g2, v, 2)]]
        assert gb.graph.adj[bpos[p_part(g2, u, 3)], bpos[p_part(g2, v, 3)]]


def test_componentwise_generation_criterion(group):
    for spec in ["C2^2 x C9", "C12", "Heis3", "C2^2 x C3^2", "C4 x C3^2"]:
        g = group(spec)
        Q, _, _ = quotient_mod_frattini(g)
        rule = componentwise_pair_matrix(Q)
        gq = generating_graph(Q)
        closure_adj = gq.graph.adj
        assert np.array_equal(rule, closure_adj), spec


# ---------------------------------------------------------------------------
# Gamma determines the group up to Frattini data


def test_gamma_bijection_positive_pair(group):
    g = group("C2^2 x C9 x C3")
    h = group("C2^2 x Heis3")
    perm = gamma_coset_bijection(g, h)
    gg, gh = generating_graph(g), generating_graph(h)
    assert np.array_equal(gg.graph.adj, gh.graph.adj[np.ix_(perm, perm)])


def test_gamma_negative_pair_degrees_differ(group):
    g = group("C2^2 x C9")
    h = group("C2^2 x C3^2")
    dg = sorted(generating_graph(g).graph.degrees.tolist())
    dh = sorted(generating_graph(h).graph.degrees.tolist())
    assert dg != dh
