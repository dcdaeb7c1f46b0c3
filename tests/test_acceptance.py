"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value is either a closed-form prediction checked against an
independent exact computation, or was frozen from a brute-force oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    complete_multipartite,
    cyclic_clique_coloring,
    example_family_graph,
    kappa_product_formula,
    milp_total_domination,
)
from gengraph.build import build_cached
from gengraph.constructions import nilpotent_hamiltonian, nilpotent_td
from gengraph.generating import (
    degree_profile,
    delta_of,
    gamma_coset_bijection,
    generating_graph,
    recover_cyclic_radical,
)
from gengraph.graphs import (
    Graph,
    HChords,
    complete_product,
    diameter,
    direct_product,
    edge_connectivity,
    td_bounds,
    vertex_connectivity,
    verify_certificate,
)
from gengraph.groups import (
    is_nilpotent,
    is_two_generated,
    nilpotent_structure,
    quotient_mod_frattini,
    totient_profile,
)
from gengraph.search import chromatic_number, clique_number, hamiltonian, total_domination
from gengraph.verify import default_catalog, run_catalog

BUDGET = 10_000_000


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE-{num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def _g(spec: str, max_order: int = 1000):
    return build_cached(spec, max_order)


def _nilpotent_catalog_entries():
    out = []
    for e in default_catalog():
        g = _g(e.spec, max(1000, e.max_order))
        if g.n > 1 and is_nilpotent(g) and is_two_generated(g):
            out.append((e.spec, g))
    return out


def test_criterion_01_maximal_connectivity():
    checked = 0
    ok = True
    for spec, g in _nilpotent_catalog_entries():
        dd = delta_of(g)
        if dd.graph.n > 150:
            continue
        st = nilpotent_structure(g)
        formula = _beta_empty(st)
        conn = vertex_connectivity(dd.graph)
        delta_obs = int(dd.graph.degrees.min())
        ok &= conn.value == delta_obs == formula
        checked += 1
    _report(1, "maximal-connectivity", ok and checked >= 50,
            f"{checked} groups, kappa = delta = formula exactly")


def _beta_empty(st) -> int:
    from fractions import Fraction
    out = Fraction(st.order)
    for p, _ in st.cyclic_sylow:
        out *= 1 - Fraction(1, p)
    for q, _ in st.noncyclic_sylow:
        out *= 1 - Fraction(1, q)
    return int(out)


def test_criterion_02_special_connectivity_values():
    ok = True
    for n in range(2, 37):
        dd = delta_of(_g(f"C{n}"))
        _, phi, _ = totient_profile(n)
        ok &= vertex_connectivity(dd.graph).value == phi
    for p in (2, 3, 5):
        dd = delta_of(_g(f"C{p}^2"))
        ok &= vertex_connectivity(dd.graph).value == p * p - p
    for n, p in ((5, 2), (2, 3), (7, 3)):
        g = _g(f"C{n} x C{p}^2")
        dd = delta_of(g)
        _, phi, _ = totient_profile(g.n)
        ok &= vertex_connectivity(dd.graph).value == phi
    _report(2, "special-connectivity-values", ok,
            "phi(n) for cyclic, p^2-p for C_p^2, phi(|G|) for C_n x C_p^2")


def test_criterion_03_frattini_scaling():
    ok = True
    for spec in ("C8", "C12", "C4 x C3^2", "Heis3", "C2^2 x C9"):
        g = _g(spec)
        dd = delta_of(g)
        Q, cmap, phi = quotient_mod_frattini(g)
        dq = delta_of(Q)
        kg = vertex_connectivity(dd.graph).value
        kq = vertex_connectivity(dq.graph).value
        ok &= kg == kq * len(phi)
        if g.is_cyclic:
            ok &= int(dd.graph.degrees.min()) == int(dq.graph.degrees.min()) * len(phi)
        else:
            gdeg = generating_graph(g).graph.degrees
            qdeg = generating_graph(Q).graph.degrees
            ok &= bool(np.array_equal(gdeg, qdeg[cmap] * len(phi)))
    _report(3, "frattini-scaling", ok,
            "kappa and degrees scale by |Frat| on all five groups")


def test_criterion_04_eulerian_criterion():
    from gengraph.graphs import eulerian_circuit

    checked = 0
    ok = True
    for spec, g in _nilpotent_catalog_entries():
        st = nilpotent_structure(g)
        expected = not (st.is_cyclic and g.n % 2 == 0)
        dd = delta_of(g)
        res = eulerian_circuit(dd.graph)
        got = res.circuit is not None
        if got:
            got = verify_certificate(dd.graph, res.circuit)
        ok &= got == expected
        checked += 1
    _report(4, "eulerian-criterion", ok and checked >= 50,
            f"{checked} groups, Hierholzer agrees with the parity criterion")


def test_criterion_05_hamiltonicity():
    ok = True
    # constructed cycles, re-verified edge by edge
    for n in range(3, 37):
        cyc = nilpotent_hamiltonian(_g(f"C{n}")).cycle
        ok &= verify_certificate(delta_of(_g(f"C{n}")).graph, cyc)
    for spec in ("C2^2", "C3^2", "C5^2", "C7^2", "Heis3"):
        g = _g(spec)
        ok &= verify_certificate(delta_of(g).graph, nilpotent_hamiltonian(g).cycle)
    ok &= verify_certificate(delta_of(_g("C8")).graph, nilpotent_hamiltonian(_g("C8")).cycle)
    for spec in ("C2 x C3^2", "C2 x Heis3"):
        G = _g(spec)
        ok &= verify_certificate(delta_of(G).graph, nilpotent_hamiltonian(G).cycle)
    # searched cases within the node budget
    searched_nodes = {}
    for spec in ("C2^2 x C3", "C2^2 x C3^2", "C12", "C2^2 x C9"):
        dd = delta_of(_g(spec))
        res = hamiltonian(dd.graph, BUDGET)
        ok &= res.status == "yes" and res.nodes <= 10_000_000
        ok &= verify_certificate(dd.graph, res.cycle)
        searched_nodes[spec] = res.nodes
    # the one refusal
    ok &= nilpotent_hamiltonian(_g("C2")).status == "no"
    _report(5, "hamiltonicity", ok,
            f"constructions re-verified; search nodes {searched_nodes}; C2 refused")


def test_criterion_06_h_certificates():
    ok = True
    for spec in ("C3^2", "C5^2", "C7^2", "Heis3", "Heis5"):
        g = _g(spec)
        cyc = nilpotent_hamiltonian(g).cycle
        ok &= verify_certificate(delta_of(g).graph, HChords(cyc.vertices, (1, 3), (0, 2)))
    _report(6, "h-class-certificates", ok,
            "odd-odd chord at (1,3) and even-even chord at (0,2) on all five")


def test_criterion_07_total_domination():
    ok = True
    # cyclic groups: a single generator dominates
    for n in (2, 6, 12, 30):
        g = _g(f"C{n}")
        res = nilpotent_td(g)
        dd = delta_of(g)
        ok &= res.size == 1 and verify_certificate(dd.graph, res.witness)
        elem = dd.vertex_elements[res.witness.vertices[0]]
        ok &= int(g.orders[elem]) == n
    # the two pinned equality cases
    ok &= nilpotent_td(_g("C2^2")).size == 2
    ok &= nilpotent_td(_g("C2^2 x C3^2")).size == 3
    # the search on Delta(G) from the formula's bound agrees with the one
    # from 1 and with an independent ILP
    compared = 0
    for spec, g in _nilpotent_catalog_entries():
        if g.is_cyclic:
            continue
        dd = delta_of(g)
        if dd.graph.n > 120:
            continue
        direct = total_domination(dd.graph, BUDGET)
        ok &= direct.size == nilpotent_td(g, BUDGET).size == milp_total_domination(dd.graph)
        compared += 1
    # nested-ceiling lower <= exact <= upper
    sandwich = {}
    for parts in ((3, 4), (3, 4, 6), (4, 4, 4)):
        lower, upper, _ = td_bounds(parts)
        exact = total_domination(complete_product(parts), BUDGET).size
        ok &= lower <= exact <= upper
        sandwich[parts] = (lower, exact, upper)
    _report(7, "total-domination", ok and compared >= 12,
            f"{compared} search-vs-ILP agreements; sandwiches {sandwich}")


def test_criterion_08_clique_chromatic():
    ok = True
    for n in range(2, 25):
        g = _g(f"C{n}")
        _, phi, r = totient_profile(n)
        want = phi + r
        gg = generating_graph(g)
        clique, coloring = cyclic_clique_coloring(n)
        ok &= len(clique.vertices) == max(coloring.colors) + 1 == want
        ok &= verify_certificate(gg.graph, clique)
        ok &= verify_certificate(gg.graph, coloring)
        ok &= clique_number(gg.graph, BUDGET).size == want
        ok &= chromatic_number(gg.graph, BUDGET).chi == want
    for spec, p in (("C2^2", 2), ("C3^2", 3), ("C2^2 x C9", 2),
                    ("C2^2 x C3^2", 2), ("C4 x C3^2", 3)):
        gg = generating_graph(_g(spec))
        ok &= clique_number(gg.graph, BUDGET).size == p + 1
        ok &= chromatic_number(gg.graph, BUDGET).chi == p + 1
    _report(8, "clique-chromatic", ok,
            "omega = chi = phi(n)+pi(n) certified two ways; p+1 cases exact")


def test_criterion_09_formula_census():
    checked = 0
    for spec, g in _nilpotent_catalog_entries():
        assert degree_profile(g).holds, spec
        checked += 1
    prof = degree_profile(_g("C2^2 x C9"))
    from fractions import Fraction
    spot = (prof.gen_probability == Fraction(1, 3)
            and prof.nonisolated_count == 27 and prof.min_degree == 12)
    _report(9, "formula-census", spot and checked >= 50,
            f"{checked} groups, alpha/beta/P/|V|/delta all equal the census")


def test_criterion_10_example_family():
    eg1 = example_family_graph(1)
    ok = eg1.graph.n == 54 and set(eg1.graph.degrees.tolist()) == {24}
    brute = delta_of(_g("Ex(1)"))
    rule_edges = {tuple(sorted((eg1.vertex_elements[u], eg1.vertex_elements[v])))
                  for u, v in eg1.graph.edges()}
    brute_edges = {tuple(sorted((brute.vertex_elements[u], brute.vertex_elements[v])))
                   for u, v in brute.graph.edges()}
    ok &= set(eg1.vertex_elements) == set(brute.vertex_elements)
    ok &= rule_edges == brute_edges
    eg2 = example_family_graph(2)
    ok &= eg2.graph.n == 5400 and set(eg2.graph.degrees.tolist()) == {1920}
    _report(10, "example-family", ok,
            "d=1 rule graph equals the Cayley brute force; d=2 is 1920-regular on 5400")


def test_criterion_11_gamma_determines_group():
    g = _g("C2^2 x C9 x C3")
    h = _g("C2^2 x Heis3")
    perm = gamma_coset_bijection(g, h)
    gg, gh = generating_graph(g), generating_graph(h)
    ok = bool(np.array_equal(gg.graph.adj, gh.graph.adj[np.ix_(perm, perm)]))
    radical_ok = 0
    for spec, grp in _nilpotent_catalog_entries():
        if grp.is_cyclic:
            continue
        st = nilpotent_structure(grp)
        want = math.prod(st.cyclic_primes) if st.cyclic_primes else 1
        got = recover_cyclic_radical(generating_graph(grp))
        ok &= got == want
        radical_ok += 1
    _report(11, "gamma-determines-group", ok and radical_ok >= 12,
            f"bijection matches Gamma exactly; radical statistic on {radical_ok} groups")


def test_criterion_12_edge_connectivity_diameter():
    checked = 0
    ok = True
    for spec, g in _nilpotent_catalog_entries():
        dd = delta_of(g)
        if dd.graph.n > 150 or dd.graph.n == 0:
            continue
        lam, cut = edge_connectivity(dd.graph)
        delta_obs = int(dd.graph.degrees.min())
        diam = diameter(dd.graph)
        ok &= lam == delta_obs and diam is not None and diam <= 2
        checked += 1
    _report(12, "edge-connectivity-diameter", ok and checked >= 50,
            f"{checked} groups, lambda = delta and diam <= 2")


def test_criterion_13_product_connectivity_formula():
    cases = []
    g1 = direct_product(complete_multipartite([2, 2, 2]),
                        complete_multipartite([2, 2, 2]))
    f1 = kappa_product_formula(4, 4, (2, 2, 2))
    cases.append((vertex_connectivity(g1).value, f1, 16))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    g2 = direct_product(c5, complete_multipartite([2, 2, 3]))
    f2 = kappa_product_formula(2, 2, (2, 2, 3))
    cases.append((vertex_connectivity(g2).value, f2, 8))
    g3 = direct_product(Graph.complete(4), complete_multipartite([1, 1, 2, 2]))
    f3 = kappa_product_formula(3, 3, (1, 1, 2, 2))
    cases.append((vertex_connectivity(g3).value, f3, 12))
    ok = all(m == f == pin for m, f, pin in cases)
    _report(13, "product-connectivity-formula", ok,
            f"measured = formula on {[c[0] for c in cases]}")


def test_criterion_14_determinism():
    rep1 = run_catalog(default_catalog(), budget=BUDGET, catalog_name="default")
    rep2 = run_catalog(default_catalog(), budget=BUDGET, catalog_name="default")
    ok = rep1.to_json() == rep2.to_json()
    ok &= rep1.summary["fail"] == 0 and rep1.summary["counterexample"] == 0
    _report(14, "determinism", ok,
            f"two runs' reports byte-identical; summary {rep1.summary}")
