"""Explicit witness constructions and their re-verification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    cyclic_clique_coloring,
    milp_total_domination,
    permutation_table,
    product_dominating_set,
)
from gengraph import constructions
from gengraph.build import _direct_product_table
from gengraph.constructions import (
    h_membership,
    nilpotent_hamiltonian,
    nilpotent_td,
)
from gengraph.errors import NotTwoGeneratedError
from gengraph.generating import delta_of, generating_graph
from gengraph.graphs import (
    HChords,
    Graph,
    complete_product,
    td_bounds,
    verify_certificate,
)
from gengraph.groups import Group, frattini, is_nilpotent, sylow_masks, totient_profile
from gengraph.search import hamiltonian, total_domination
from gengraph.verify import default_catalog, run_check


# ---------------------------------------------------------------------------
# cyclic cycles


def test_cyclic_hamiltonian_small(group):
    assert nilpotent_hamiltonian(group("C3")).cycle.vertices == (0, 1, 2)
    assert nilpotent_hamiltonian(group("C4")).cycle.vertices == (0, 1, 2, 3)
    assert nilpotent_hamiltonian(group("C2")).status == "no"


def test_cyclic_hamiltonian_range(group):
    for n in range(3, 37):
        res = nilpotent_hamiltonian(group(f"C{n}"))
        assert res.status == "yes" and res.nodes == 0
        assert verify_certificate(delta_of(group(f"C{n}")).graph, res.cycle)


# ---------------------------------------------------------------------------
# p-group cycles


def test_pgroup_c3sq_exact_cycle(group):
    p9 = group("C3^2")
    res = nilpotent_hamiltonian(p9)
    dd = delta_of(p9)
    labels = [dd.group.labels[dd.vertex_elements[v]] for v in res.cycle.vertices]
    # the path (b, a, ab, ab^2, b^2, a^2, a^2 b, a^2 b^2) with a = (1,g), b = (g,1)
    assert labels == ["(g,1)", "(1,g)", "(g,g)", "(g^2,g)",
                      "(g^2,1)", "(1,g^2)", "(g,g^2)", "(g^2,g^2)"]
    assert verify_certificate(dd.graph, HChords(res.cycle.vertices, (1, 3), (0, 2)))


def test_pgroup_sizes(group):
    # cycle length is |G| (1 - 1/p^2), and the Sylow fold's crossing relies
    # on the chords at positions (1, 3) and (0, 2)
    for spec, p in [("C3^2", 3), ("C5^2", 5), ("C7^2", 7), ("Heis3", 3), ("Heis5", 5)]:
        g = group(spec)
        cyc = nilpotent_hamiltonian(g).cycle
        assert len(cyc.vertices) == g.n - g.n // (p * p), spec
        assert verify_certificate(delta_of(g).graph, HChords(cyc.vertices, (1, 3), (0, 2))), spec


def test_pgroup_p2_attempt_verifies(group):
    for spec in ["C2^2", "C4 x C2"]:
        g = group(spec)
        res = nilpotent_hamiltonian(g)
        assert res.status == "yes" and res.nodes == 0
        assert verify_certificate(delta_of(g).graph, res.cycle), spec


def _q8():
    """Q8 in its regular representation: right multiplication by i and j."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation([[0, 1, 4, 5], [2, 7, 6, 3]]),
                             Permutation([[0, 2, 4, 6], [1, 3, 5, 7]])])


def test_nonabelian_2groups_from_permutations():
    """D8, Q8 and D16 from sympy, and D8 x C3, none built by the spec
    language: the p = 2 concatenation is a cycle on each."""
    from sympy.combinatorics.named_groups import CyclicGroup, DihedralGroup

    tables = {"D8": permutation_table(DihedralGroup(4)), "Q8": permutation_table(_q8()),
              "D16": permutation_table(DihedralGroup(8))}
    tables["D8 x C3"] = _direct_product_table([tables["D8"], permutation_table(CyclicGroup(3))])
    for name, table in tables.items():
        G = Group(table, name=name)
        assert is_nilpotent(G) and not np.array_equal(G.table, G.table.T), name
        res = nilpotent_hamiltonian(G)
        assert res.status == "yes" and res.nodes == 0, name
        assert verify_certificate(delta_of(G).graph, res.cycle), name


# ---------------------------------------------------------------------------
# Sylow fold


@pytest.mark.parametrize("spec, d", [
    ("C2^2 x C3^2", 1),        # m = 3, k = 8
    ("C2^2 x C9", 3),          # odd d: the chain s = 0, 2
    ("C2^2 x Heis3", 3),       # odd d with a noncyclic y
    ("C2 x C3^2", 2),          # even d, m = 2: the crossing at t = 0
    ("C2 x Heis3", 2),
    ("C4 x C3^2", 4),          # even d, m >= 4: the crossing at t = 2
    ("C4^2 x C3^2", 4),        # a noncyclic 2-part with |Frat| > 1
    ("C2^2 x C3^2 x C5", 1),   # three Sylows: d = 1, then d = gcd(24, 5)
], ids=lambda v: v if isinstance(v, str) else f"d{v}")
def test_sylow_fold(group, spec, d):
    G = group(spec)
    masks = sorted(sylow_masks(G).items())
    x, y = (constructions._sylow_cycle(G, np.flatnonzero(mask), frattini(G))
            for _, mask in masks[:2])
    assert math.gcd(len(x), len(y)) == d
    res = nilpotent_hamiltonian(G)
    dd = delta_of(G)
    assert res.status == "yes" and res.nodes == 0
    assert len(res.cycle.vertices) == dd.graph.n
    assert verify_certificate(dd.graph, res.cycle)


# the shapes up to order 675 on which the fold was first checked; the two of
# order 900 stay out of Tier-1
FOLD_SHAPES = [
    "C2 x C3", "C2 x C9", "C2 x C5^2", "C2 x C9 x C3", "C2 x Heis5",
    "C3^2 x C5^2", "C3^2 x C7^2", "Heis3 x C5^2", "C2^2 x C5^2", "C4 x C9",
    "C4 x C3 x C5^2", "C2^2 x Heis5", "C8 x C3^2", "C4^2 x C3",
    "C2 x C3^2 x C5^2",
]


@pytest.mark.parametrize("spec", FOLD_SHAPES)
def test_sylow_fold_shapes(group, spec):
    G = group(spec)
    res = nilpotent_hamiltonian(G)
    assert res.status == "yes" and res.nodes == 0
    assert verify_certificate(delta_of(G).graph, res.cycle)


NILPOTENT_CATALOG = [e.spec for e in default_catalog()
                     if not e.formula_only and not e.spec.startswith("Ex(")]


@pytest.mark.parametrize("spec", NILPOTENT_CATALOG)
def test_catalog_ham_without_search(group, spec):
    G = group(spec)
    assert is_nilpotent(G)
    r = run_check(G, "THM_1_3_HAM", 10_000_000, name=spec)
    assert r.status == "pass" and r.nodes == 0, r


# ---------------------------------------------------------------------------
# chorded-cycle class membership


def test_h_membership_odd_order_trivial():
    k5 = Graph.complete(5)
    wit = h_membership(k5, hamiltonian(k5).cycle)
    assert wit is not None and wit.chord_odd is None and wit.chord_even is None


def test_h_membership_finds_chords(group):
    p9 = group("C3^2")
    dd = delta_of(p9)
    wit = h_membership(dd.graph, nilpotent_hamiltonian(p9).cycle)
    assert wit is not None
    assert verify_certificate(dd.graph, wit)


def test_h_membership_no_chords_on_plain_cycle():
    c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    cyc = hamiltonian(c6).cycle
    assert h_membership(c6, cyc) is None


def test_h_membership_rejects_invalid_cycle():
    k4 = Graph.complete(4)
    from gengraph.graphs import HamCycle
    with pytest.raises(ValueError):
        h_membership(k4, HamCycle((0, 1, 2, 2)))


# ---------------------------------------------------------------------------
# the nilpotent dispatcher


def test_nilpotent_hamiltonian_routes(group):
    assert nilpotent_hamiltonian(group("C12")).status == "yes"
    assert nilpotent_hamiltonian(group("C2")).status == "no"
    assert nilpotent_hamiltonian(group("C2^2 x C3^2")).status == "yes"
    assert nilpotent_hamiltonian(group("Heis3")).status == "yes"
    assert nilpotent_hamiltonian(group("C2 x Heis3")).status == "yes"
    res = nilpotent_hamiltonian(group("C2^2 x C9"))
    assert res.status == "yes" and res.nodes <= 10_000_000


def test_nilpotent_hamiltonian_rejects_non_2gen(group):
    with pytest.raises(NotTwoGeneratedError):
        nilpotent_hamiltonian(group("C2^3"))


# ---------------------------------------------------------------------------
# clique and colouring for cyclic groups


def test_cyclic_clique_coloring_12(group):
    clique, coloring = cyclic_clique_coloring(12)
    gg = generating_graph(group("C12"))
    assert len(clique.vertices) == 6
    assert max(coloring.colors) + 1 == 6
    assert verify_certificate(gg.graph, clique)
    assert verify_certificate(gg.graph, coloring)


def test_cyclic_clique_coloring_2(group):
    clique, coloring = cyclic_clique_coloring(2)
    assert sorted(clique.vertices) == [0, 1]  # {g, g^2 = 1}
    assert max(coloring.colors) + 1 == 2


def test_cyclic_clique_coloring_9(group):
    clique, coloring = cyclic_clique_coloring(9)
    assert len(clique.vertices) == 7  # phi(9) + 1
    gg = generating_graph(group("C9"))
    assert verify_certificate(gg.graph, clique)
    assert verify_certificate(gg.graph, coloring)


def test_cyclic_clique_coloring_range(group):
    for n in range(2, 25):
        clique, coloring = cyclic_clique_coloring(n)
        _, phi, r = totient_profile(n)
        assert len(clique.vertices) == phi + r == max(coloring.colors) + 1
        gg = generating_graph(group(f"C{n}"))
        assert verify_certificate(gg.graph, clique), n
        assert verify_certificate(gg.graph, coloring), n


# ---------------------------------------------------------------------------
# domination constructions


def test_product_dominating_set_diagonal():
    ds = product_dominating_set((3, 4))
    assert len(ds.vertices) == 3
    assert ds.vertices == (0, 5, 10)  # (1,1), (2,2), (3,3)
    ds2 = product_dominating_set((2,))
    assert ds2.vertices == (0, 1)
    with pytest.raises(ValueError):
        product_dominating_set((3, 3, 4))


def test_nilpotent_td_values(group):
    cases = {
        "C6": 1, "C2^2": 2, "C2^2 x C3^2": 3, "C2^2 x C9": 2,
        "Heis3": 2, "Heis5": 2, "C2^2 x Heis3": 3,
    }
    for spec, want in cases.items():
        res = nilpotent_td(group(spec))
        assert res.size == want, spec
        assert verify_certificate(delta_of(group(spec)).graph, res.witness), spec


def test_nilpotent_td_cyclic_generator_witness(group):
    # the generators are marked and pairwise twins, so the search takes the
    # least of them at its first branch
    for spec in ("C6", "C12", "C30"):
        g = group(spec)
        dd = delta_of(g)
        res = nilpotent_td(g)
        assert res.size == 1 and res.nodes == 2, spec
        assert verify_certificate(dd.graph, res.witness), spec
        elem = dd.vertex_elements[res.witness.vertices[0]]
        assert int(g.orders[elem]) == g.n, spec


def test_nilpotent_td_reduction_data(group):
    # Delta(G) has 12 twin classes, one per vertex of K_3 x K_4 (a line of
    # C2^2 with a line of C3^2), and the witness takes the least vertex of
    # three of them
    g = group("C2^2 x C3^2")
    graph = delta_of(g).graph
    res = nilpotent_td(g)
    assert res.size == len(res.witness.vertices) == 3
    assert verify_certificate(graph, res.witness)
    assert not graph.marks
    rows = {}
    for v, row in enumerate(graph.adj.tolist()):
        rows.setdefault(tuple(row), v)
    assert len(rows) == complete_product((3, 4)).n
    assert set(res.witness.vertices) <= set(rows.values())


def test_nilpotent_td_sandwich_case(group):
    # s = 3 with q_1 = 2 < s: the bounds give [5, 6], the solver pins 5
    g = group("C2^2 x C3^2 x C5^2")
    lower, upper, _ = td_bounds((3, 4, 6))
    res = nilpotent_td(g)
    assert lower <= res.size <= upper
    assert res.size == 5
    assert res.size == milp_total_domination(complete_product((3, 4, 6)))
    assert verify_certificate(delta_of(g).graph, res.witness)


def test_nilpotent_td_matches_direct_search(group):
    for spec in ["C2^2", "C2^2 x C3", "C2^2 x C3^2", "Heis3", "C2 x C6"]:
        g = group(spec)
        direct = total_domination(delta_of(g).graph)
        assert direct.size == nilpotent_td(g).size, spec


def test_nilpotent_td_one_search_per_budget(monkeypatch):
    from gengraph.build import build_group
    from gengraph.verify import run_check

    calls = []
    real = constructions.total_domination

    def counting(graph, budget, **kwargs):
        calls.append(budget)
        return real(graph, budget, **kwargs)

    monkeypatch.setattr(constructions, "total_domination", counting)
    G = build_group("C2^2 x C3^2")  # uncached, so no γt search has run on it
    budget = 10_000_000
    results = [run_check(G, check, budget, name="C2^2 x C3^2")
               for check in ("THM_1_4_TDN", "SANDWICH_5_5_5_6", "LEM_5_3_SUB")]
    assert [r.status for r in results] == ["pass"] * 3
    assert calls == [budget]
    # a different budget is a different search
    assert nilpotent_td(G, 5_000_000).size == 3
    assert len(calls) == 2


def test_memoised_functions_take_keywords():
    """f(x), f(x, b) and f(x, budget=b) share one memo entry."""
    from gengraph.build import build_group
    from gengraph.search import DEFAULT_BUDGET, chromatic_number

    G = build_group("C2^2 x C3")
    small = 10
    for fn, obj in ((nilpotent_td, G), (chromatic_number, generating_graph(G).graph)):
        first = fn(obj)
        assert fn(obj, DEFAULT_BUDGET) is first
        assert fn(obj, budget=DEFAULT_BUDGET) is first
        assert fn(obj, budget=small) is fn(obj, small) is not first
        with pytest.raises(TypeError):
            fn(obj, bound=small)
