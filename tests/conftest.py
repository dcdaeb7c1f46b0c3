"""Shared fixtures and the independent brute-force oracles.

The oracles here deliberately avoid the package's cached join machinery:
adjacency is recomputed per pair by direct closure, connectivity by subset
enumeration, domination by combinations, so they stay independent of the
paths they check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gengraph.build import build_cached
from gengraph.graphs import Graph


@pytest.fixture(scope="session")
def group():
    def make(spec: str, max_order: int = 1000):
        return build_cached(spec, max_order)
    return make


@pytest.fixture(scope="session")
def catalog_report():
    """One full default-catalog run, shared by every test that only reads it."""
    from gengraph.verify import default_catalog, run_catalog

    return run_catalog(default_catalog(), jobs=1, catalog_name="default")


# ---------------------------------------------------------------------------
# oracle: associativity over all triples


def brute_associative(table) -> bool:
    """(ab)c = a(bc) over all n^3 triples, one left factor a at a time."""
    t = np.asarray(table)
    for row in t:
        if not np.array_equal(t[row], row[t]):
            return False
    return True


# ---------------------------------------------------------------------------
# oracle: generation by plain closure, no caching


def brute_closure(table, seeds) -> set[int]:
    members = {0}
    frontier = [0]
    seeds = sorted(set(seeds))
    while frontier:
        new = []
        for x in frontier:
            for s in seeds:
                y = int(table[x][s])
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return members


def brute_adjacency(G) -> np.ndarray:
    n = G.n
    table = G.table.tolist()
    adj = np.zeros((n, n), dtype=bool)
    for g in range(n):
        for h in range(g + 1, n):
            if len(brute_closure(table, (g, h))) == n:
                adj[g, h] = adj[h, g] = True
    return adj


# ---------------------------------------------------------------------------
# oracle: subgroups by subset enumeration (small tables only)


def brute_subgroups(table) -> set[frozenset[int]]:
    """Every product-closed subset containing 0, out of all 2^(n-1) of them.
    In a finite group these are exactly the subgroups."""
    t = np.asarray(table)
    n = t.shape[0]
    out = set()
    for bits in range(1 << (n - 1)):
        members = [0] + [i + 1 for i in range(n - 1) if bits >> i & 1]
        if set(t[np.ix_(members, members)].ravel().tolist()) <= set(members):
            out.add(frozenset(members))
    return out


# ---------------------------------------------------------------------------
# oracle: connectivity by subset enumeration (small graphs only)


def brute_vertex_connectivity(graph: Graph) -> int:
    n = graph.n
    if all(graph.adj[u, v] for u in range(n) for v in range(u + 1, n)):
        return n - 1
    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            rest = [v for v in range(n) if v not in cut]
            if len(rest) >= 2 and not _connected_subset(graph, rest):
                return k
    return n - 1


def brute_edge_connectivity(graph: Graph) -> int:
    n = graph.n
    if n <= 1:
        return 0
    edges = graph.edges()
    for k in range(len(edges) + 1):
        for cut in itertools.combinations(edges, k):
            adj = graph.adj.copy()
            for u, v in cut:
                adj[u, v] = adj[v, u] = False
            if not _connected_subset(Graph(adj), list(range(n))):
                return k
    return len(edges)


def _connected_subset(graph: Graph, vertices: list[int]) -> bool:
    if not vertices:
        return False
    seen = {vertices[0]}
    stack = [vertices[0]]
    allowed = set(vertices)
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(graph.adj[u]):
            v = int(v)
            if v in allowed and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(vertices)


# ---------------------------------------------------------------------------
# oracle: Hamiltonicity by permutation scan (tiny graphs)


def brute_hamiltonian(graph: Graph) -> bool:
    n = graph.n
    if n < 3:
        return False
    verts = list(range(1, n))
    for perm in itertools.permutations(verts):
        cyc = (0,) + perm
        if all(graph.adj[cyc[i], cyc[(i + 1) % n]] for i in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# oracle: clique and chromatic numbers by enumeration (tiny graphs)


def brute_clique_number(graph: Graph) -> int:
    n = graph.n
    best = 0
    for k in range(n, 0, -1):
        for sub in itertools.combinations(range(n), k):
            if all(graph.adj[u, v] for u, v in itertools.combinations(sub, 2)):
                return k
    return best


def brute_chromatic_number(graph: Graph) -> int:
    n = graph.n
    if n == 0:
        return 0
    edges = graph.edges()
    if not edges:
        return 1
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    return n


# ---------------------------------------------------------------------------
# oracle: total domination by combinations


def brute_total_domination(graph: Graph) -> int | None:
    n = graph.n
    for v in range(n):
        if not graph.adj[v].any() and v not in graph.marks:
            return None
    for k in range(1, n + 1):
        for sub in itertools.combinations(range(n), k):
            covered = np.zeros(n, dtype=bool)
            for s in sub:
                covered |= graph.adj[s]
                if s in graph.marks:
                    covered[s] = True
            if covered.all():
                return k
    return None


def milp_total_domination(graph: Graph) -> int:
    """Independent ILP oracle (HiGHS via scipy.optimize.milp)."""
    from scipy.optimize import LinearConstraint, milp

    n = graph.n
    rows = []
    for v in range(n):
        row = graph.adj[v].astype(float)
        if v in graph.marks:
            row[v] = 1.0
        rows.append(row)
    constraints = LinearConstraint(np.array(rows), lb=np.ones(n))
    res = milp(c=np.ones(n), constraints=constraints,
               integrality=np.ones(n), bounds=(0, 1))
    assert res.success
    return int(round(res.fun))
