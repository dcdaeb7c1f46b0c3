"""Shared fixtures, the independent brute-force oracles, and the reference
constructions built from the paper's rules.

The oracles here deliberately avoid the package's cached join machinery:
adjacency is recomputed per pair by direct closure, connectivity by subset
enumeration, domination by combinations, so they stay independent of the
paths they check.

The reference constructions build graphs, witnesses and values from the
paper's closed-form rules (componentwise generation, the example family's
adjacency rule, the cyclic clique and colouring, the diagonal dominating
set, the product connectivity formula).  They live here, not in the
package, because `gengraph` realises every graph from subgroup closure;
the tests compare the two.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from gengraph.build import build_cached, build_group, odd_primes
from gengraph.errors import ConstructionError, OrderGuardError
from gengraph.generating import GeneratingGraph, delta_of, generating_graph
from gengraph.graphs import (
    Clique,
    Coloring,
    DominatingSet,
    EdgeCut,
    Graph,
    VertexConnectivity,
    VertexCut,
    complete_product,
    direct_product,
    verify_certificate,
)
from gengraph.groups import Group, nilpotent_structure, quotient_mod_frattini, totient_profile


@pytest.fixture(scope="session")
def group():
    def make(spec: str, max_order: int = 1000):
        return build_cached(spec, max_order)
    return make


@pytest.fixture(scope="session")
def catalog_report():
    """One full default-catalog run, shared by every test that only reads it."""
    from gengraph.verify import default_catalog, run_catalog

    return run_catalog(default_catalog(), catalog_name="default")


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


def brute_cyclic_data(G) -> tuple[np.ndarray, list[frozenset[int]], list[int]]:
    """(cyclic id per element, the cyclic subgroups, least generator per id),
    as `Group._cyclic_data` gives them: ⟨g⟩ is `brute_closure` of g alone,
    for g ascending, and ids are assigned in order of first occurrence."""
    table = G.table.tolist()
    index: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []
    reps: list[int] = []
    ids = []
    for g in range(G.n):
        cyc = frozenset(brute_closure(table, (g,)))
        if cyc not in index:
            index[cyc] = len(sets)
            sets.append(cyc)
            reps.append(g)
        ids.append(index[cyc])
    return np.array(ids, dtype=np.int64), sets, reps


def all_pairs_gen_matrix(G) -> np.ndarray:
    """The k*k pair-generation matrix over G's cyclic subgroups, closing
    every pair of their least generators by `brute_closure`, with no pair
    skipped."""
    _, sets, reps = brute_cyclic_data(G)
    k = len(sets)
    table = G.table.tolist()
    gen = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i, k):
            size = len(brute_closure(table, (reps[i], reps[j])))
            gen[i, j] = gen[j, i] = size == G.n
    return gen


# ---------------------------------------------------------------------------
# oracle: subgroups by subset enumeration (small tables only), and by
# cyclic extension of every subgroup found


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


@functools.lru_cache(maxsize=None)
def extension_lattice(G: Group) -> list[frozenset[int]]:
    """Every subgroup by cyclic extension of every subgroup found, not of one
    per conjugacy class and normaliser orbit: each subgroup is joined with
    each cyclic subgroup of prime-power order it does not contain, starting
    from those cyclic subgroups.  Joins are closed by `brute_closure`.
    Sorted by (order, sorted elements); kept per group object, as a group
    is immutable."""
    _, sets, reps = brute_cyclic_data(G)
    table = G.table.tolist()
    cyclic = {s: rep for s, rep in zip(sets, reps) if len(totient_profile(len(s))[0]) == 1}
    gens = {s: (rep,) for s, rep in cyclic.items()}
    work = list(gens)
    gens[frozenset({0})] = ()
    for sub in work:
        for c in cyclic.values():
            if c not in sub:
                gen = gens[sub] + (c,)
                joined = frozenset(brute_closure(table, gen))
                if joined not in gens:
                    gens[joined] = gen
                    work.append(joined)
    return sorted(gens, key=lambda s: (len(s), sorted(s)))


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
# oracle: connectivity by scipy's max-flow over a CSR network


def scipy_component_count(graph: Graph) -> int:
    """The number of connected components, by scipy."""
    from scipy.sparse.csgraph import connected_components

    return int(connected_components(graph.adj, directed=False)[0])


def scipy_network(graph: Graph, vertex: bool):
    """The CSR network of vertex flows (node 2v is v's entry, 2v+1 its exit,
    one unit between them, n+1 from an exit to each neighbour's entry) or of
    edge flows (one unit each way along every edge)."""
    from scipy.sparse import csr_matrix

    n = graph.n
    iu, ju = np.nonzero(np.triu(graph.adj, 1))
    if not vertex:
        return csr_matrix((np.ones(2 * iu.size, np.int32),
                           (np.concatenate((iu, ju)), np.concatenate((ju, iu)))), shape=(n, n))
    split = np.arange(n)
    rows = np.concatenate((2 * split, 2 * iu + 1, 2 * ju + 1))
    cols = np.concatenate((2 * split + 1, 2 * ju, 2 * iu))
    cap = np.concatenate((np.ones(n, np.int32), np.full(2 * iu.size, n + 1, np.int32)))
    return csr_matrix((cap, (rows, cols)), shape=(2 * n, 2 * n))


def scipy_flow(net, a: int, b: int, vertex: bool) -> tuple[int, np.ndarray]:
    """scipy's a-b max-flow value and the side read off the nodes its
    residual network reaches from the source: for vertex flows the vertices
    whose entry is reached and whose exit is not, else the reached vertices."""
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    source, sink = (2 * a + 1, 2 * b) if vertex else (a, b)
    res = maximum_flow(net, source, sink)
    residual = net - res.flow
    residual.eliminate_zeros()
    seen = np.zeros(net.shape[0], dtype=bool)
    seen[breadth_first_order(residual, source, return_predecessors=False)] = True
    return int(res.flow_value), (seen[0::2] & ~seen[1::2]) if vertex else seen


def scipy_vertex_connectivity(graph: Graph) -> VertexConnectivity:
    """Esfahanian-Hakimi vertex connectivity with scipy's `maximum_flow`,
    the pairs visited and skipped in the package's order, each flow run to
    the end and its cut read off the residual source side."""
    n = graph.n
    if graph.is_complete():
        return VertexConnectivity(n - 1, None, True)
    if scipy_component_count(graph) > 1:
        return VertexConnectivity(0, VertexCut(()), False)
    net = scipy_network(graph, True)
    degs = graph.degrees
    s = int(np.lexsort((np.arange(n), degs))[0])
    best = int(degs[s])
    best_cut = tuple(np.flatnonzero(graph.adj[s]).tolist())

    def try_pair(a: int, b: int, bound: int):
        nonlocal best, best_cut
        if bound >= best:
            return
        value, cut = scipy_flow(net, a, b, True)
        if value < best:
            best = value
            best_cut = tuple(np.flatnonzero(cut).tolist())

    adj = graph.adj.astype(np.int32)
    common = adj @ adj[s]
    for t in np.flatnonzero(~graph.adj[s]).tolist():
        if t != s:
            try_pair(s, t, int(common[t]))
    nbrs = np.flatnonzero(graph.adj[s])
    common = adj[nbrs] @ adj[nbrs].T
    for i, j in zip(*np.nonzero(np.triu(~graph.adj[np.ix_(nbrs, nbrs)], 1))):
        try_pair(int(nbrs[i]), int(nbrs[j]), int(common[i, j]))
    return VertexConnectivity(best, VertexCut(best_cut), False)


def scipy_edge_connectivity(graph: Graph) -> tuple[int, EdgeCut]:
    """Edge connectivity from vertex 0 with scipy's `maximum_flow`, the
    flows skipped in the package's order, each run to the end and its cut
    read off the residual source side."""
    n = graph.n
    if n == 1 or scipy_component_count(graph) > 1:
        return 0, EdgeCut(())
    net = scipy_network(graph, False)
    iu, ju = np.nonzero(np.triu(graph.adj, 1))
    adj = graph.adj.astype(np.int32)
    bound = adj @ adj[0] + adj[0]
    best = None
    best_cut: tuple = ()
    for t in range(1, n):
        if best is not None and bound[t] >= best:
            continue
        value, seen = scipy_flow(net, 0, t, False)
        if best is None or value < best:
            best = value
            crossing = seen[iu] != seen[ju]
            best_cut = tuple(zip(iu[crossing].tolist(), ju[crossing].tolist()))
    return best, EdgeCut(best_cut)


# ---------------------------------------------------------------------------
# reference: Hierholzer's walk over sorted neighbour lists and an edge set


def reference_euler_circuit(graph: Graph) -> tuple[int, ...]:
    """The circuit from vertex 0 that always takes the least neighbour whose
    edge is unused, for a connected graph with all degrees even."""
    nbr = {v: sorted(np.flatnonzero(graph.adj[v]).tolist(), reverse=True) for v in range(graph.n)}
    used: set[tuple[int, int]] = set()
    stack = [0]
    out: list[int] = []
    while stack:
        v = stack[-1]
        found = False
        while nbr[v]:
            w = nbr[v][-1]
            key = (min(v, w), max(v, w))
            if key in used:
                nbr[v].pop()
                continue
            used.add(key)
            stack.append(w)
            found = True
            break
        if not found:
            out.append(stack.pop())
    out.reverse()
    return tuple(out)


# ---------------------------------------------------------------------------
# oracle: the Frattini lex identity and the coprime-product identity over
# Python sets of element pairs, from the lexicographic and direct products


def lex_product(a: Graph, b: Graph) -> Graph:
    """Lexicographic product a[b]: adjacency in a, or equal in a and adjacent in b."""
    eye = np.eye(a.n, dtype=bool)
    ones = np.ones((b.n, b.n), dtype=bool)
    return Graph(np.kron(a.adj, ones) | np.kron(eye, b.adj))


def element_edges(gg: GeneratingGraph) -> set[tuple[int, int]]:
    """The edges as (smaller, larger) pairs of group elements."""
    ve = gg.vertex_elements
    return {(min(ve[u], ve[v]), max(ve[u], ve[v])) for u, v in gg.graph.edges()}


def reference_lex_edges(G: Group, cmap: np.ndarray | None = None
                        ) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """(Delta(G), the Frattini blow-up) as element pair sets: vertex (i, f)
    of Delta(G/Frat)[null] goes to the f-th least element of coset i under
    `cmap` (by default the quotient's own coset map), and every
    self-generating quotient vertex gets a complete block."""
    Q, own, phi = quotient_mod_frattini(G)
    cosets = [[] for _ in range(Q.n)]
    for g, q in enumerate((own if cmap is None else cmap).tolist()):
        cosets[q].append(g)
    m = len(phi)
    qdelta = delta_of(Q)
    mapped = [g for qv in qdelta.vertex_elements for g in cosets[qv]]
    prod = lex_product(qdelta.graph, Graph.from_edges(m, ()))
    prod_edges = element_edges(GeneratingGraph(prod, tuple(mapped), G))
    for qi in qdelta.graph.marks:
        block = mapped[qi * m:(qi + 1) * m]
        prod_edges.update((min(a, b), max(a, b))
                          for i, a in enumerate(block) for b in block[i + 1:])
    return element_edges(delta_of(G)), prod_edges


def reference_product_edges(G: Group, A: Group, amap, B: Group, bmap
                            ) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """(Delta(G), Delta(A) x Delta(B)) as element pair sets, the product
    vertex (a, b) going to amap(a) * bmap(b)."""
    da, db = delta_of(A), delta_of(B)
    mapped = tuple(int(G.table[int(amap[va]), int(bmap[vb])])
                   for va in da.vertex_elements for vb in db.vertex_elements)
    prod = GeneratingGraph(direct_product(da.graph, db.graph), mapped, G)
    return element_edges(delta_of(G)), element_edges(prod)


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
# random graphs with planted false twins


def planted_twins(rng: np.random.Generator, base: int) -> Graph:
    """A random graph on `base` vertices, edges with probability 1/2, with
    each vertex blown up into 1-3 copies, the copies of one vertex adjacent
    to each other or not, in random vertex order, and a random set of
    vertices marked."""
    core = np.triu(rng.random((base, base)) < 0.5, 1)
    core |= core.T
    owner = np.repeat(np.arange(base), rng.integers(1, 4, size=base))
    adj = core[np.ix_(owner, owner)]
    closed = rng.random(base) < 0.5
    same = owner[:, None] == owner[None, :]
    adj |= same & closed[owner][:, None]
    np.fill_diagonal(adj, False)
    order = rng.permutation(owner.size)
    adj = adj[np.ix_(order, order)]
    return Graph(adj, np.flatnonzero(rng.random(owner.size) < 0.3))


# ---------------------------------------------------------------------------
# oracle: clique and chromatic numbers by enumeration (small graphs), twin
# classes from np.unique, and the clique search with a per-vertex colour
# bound


def brute_clique_number(graph: Graph) -> int:
    n = graph.n
    best = 0
    for k in range(n, 0, -1):
        for sub in itertools.combinations(range(n), k):
            if all(graph.adj[u, v] for u, v in itertools.combinations(sub, 2)):
                return k
    return best


def unique_twin_classes(graph: Graph) -> tuple[Graph, np.ndarray, np.ndarray]:
    """(quotient, reps, cls) for the classes of vertices with equal
    neighbourhoods, from np.unique: reps holds the least vertex of each
    class, ascending, cls[v] is the position of v's class in reps, and the
    quotient is the subgraph induced on reps."""
    _, first, inverse = np.unique(graph.adj, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    reps = first[order]
    return Graph(graph.adj[np.ix_(reps, reps)]), reps, rank[inverse.ravel()]


def reference_clique_search(graph: Graph) -> tuple[int, tuple[int, ...], int]:
    """(size, sorted clique, nodes) of the branch and bound in
    `search.clique_number`, with its colour bound computed by first-fit
    colouring one vertex at a time instead of one class at a time.  Like
    that search it runs on one vertex per twin class (`unique_twin_classes`) and
    lifts its clique through the representatives."""
    if graph.n == 0:
        return 0, (), 0
    quotient, reps, _ = unique_twin_classes(graph)
    n = quotient.n
    bits = quotient.bitmasks()
    nodes = 0
    best: list[int] = []

    def vertices(mask: int) -> list[int]:
        return [v for v in range(n) if mask >> v & 1]

    def color_sort(cand: int) -> list[tuple[int, int]]:
        classes: list[int] = []
        for v in vertices(cand):
            for ci, cmask in enumerate(classes):
                if not (cmask & bits[v]):
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        return [(v, ci + 1) for ci, cmask in enumerate(classes) for v in vertices(cmask)]

    def expand(current: list[int], cand: int) -> None:
        nonlocal best, nodes
        nodes += 1
        for v, bound in reversed(color_sort(cand)):
            if len(current) + bound <= len(best):
                return
            current.append(v)
            nxt = cand & bits[v]
            if nxt:
                expand(current, nxt)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand([], (1 << n) - 1)
    return len(best), tuple(sorted(int(reps[v]) for v in best)), nodes


def brute_chromatic_number(graph: Graph) -> int:
    """The fewest independent sets that cover the vertices: every
    independent set of the uncovered vertices that holds the least of them
    is tried as its colour class."""
    n = graph.n
    bits = [sum(1 << int(w) for w in np.flatnonzero(graph.adj[v])) for v in range(n)]

    @functools.lru_cache(maxsize=None)
    def fewest(rest: int) -> int:
        if not rest:
            return 0
        low = rest & -rest
        pool = rest & ~low & ~bits[low.bit_length() - 1]
        best = n
        sub = pool
        while True:
            if all(not (bits[w] & sub) for w in range(n) if sub >> w & 1):
                best = min(best, 1 + fewest(rest & ~low & ~sub))
            if not sub:
                return best
            sub = (sub - 1) & pool

    return fewest((1 << n) - 1)


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


def reference_total_domination(graph: Graph, budget: int = 10_000_000,
                               lower_hint: int = 1):
    """(size, witness, nodes, exceeded) of the search in
    `search.total_domination`, written plainly: classes from np.unique, the
    coverage bound taken as the most uncovered targets any candidate covers,
    the branching target found by scanning every uncovered target, and
    every leaf visited.  size and witness are None when the budget runs
    out; the graph must have a total dominating set."""
    covers = graph.adj.copy()
    for m in graph.marks:
        covers[m, m] = True

    def least_of_each_class(matrix: np.ndarray) -> list[int]:
        return sorted(np.unique(matrix, axis=0, return_index=True)[1].tolist())

    rows = least_of_each_class(covers)
    cols = least_of_each_class(covers[rows].T)
    reduced = covers[np.ix_(rows, cols)]
    reach = [sum(1 << j for j in np.flatnonzero(r).tolist()) for r in reduced]
    dominators = [sum(1 << i for i in np.flatnonzero(c).tolist()) for c in reduced.T]
    full = (1 << len(cols)) - 1
    nodes = 0

    class OutOfBudget(Exception):
        pass

    def search(k: int, chosen: list[int], covered: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OutOfBudget
        if covered == full:
            return chosen.copy()
        if len(chosen) == k:
            return None
        uncovered = full & ~covered
        gain = max((m & uncovered).bit_count() for m in reach)
        if uncovered.bit_count() > (k - len(chosen)) * gain:
            return None
        targets = [j for j in range(len(cols)) if uncovered >> j & 1]
        best = min(targets, key=lambda j: dominators[j].bit_count())
        for u in range(len(rows)):
            if dominators[best] >> u & 1:
                chosen.append(u)
                got = search(k, chosen, covered | reach[u])
                if got is not None:
                    return got
                chosen.pop()
        return None

    lower = max(lower_hint, -(-len(cols) // max(m.bit_count() for m in reach)))
    try:
        for k in range(lower, len(rows) + 1):
            got = search(k, [], 0)
            if got is not None:
                witness = tuple(sorted(rows[i] for i in got))
                return len(witness), witness, nodes, False
    except OutOfBudget:
        return None, None, nodes, True
    raise AssertionError("no total dominating set")


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


def milp_clique_number(graph: Graph) -> int:
    """Independent ILP oracle for ω (HiGHS via scipy.optimize.milp): the
    most vertices of the twin quotient with x_u + x_v ≤ 1 on each
    non-adjacent pair.  Twins are not adjacent, so a clique holds at most
    one vertex of a class, and the quotient has the graph's ω."""
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_array

    quotient = unique_twin_classes(graph)[0]
    n = quotient.n
    us, vs = np.nonzero(np.triu(~quotient.adj, 1))
    pairs = np.arange(us.size)
    rows = coo_array((np.ones(2 * us.size), (np.r_[pairs, pairs], np.r_[us, vs])),
                     shape=(us.size, n))
    res = milp(c=-np.ones(n), constraints=LinearConstraint(rows, ub=np.ones(us.size)),
               integrality=np.ones(n), bounds=(0, 1))
    assert res.success
    return int(round(-res.fun))


def milp_colourable(graph: Graph, k: int, clique: tuple[int, ...]) -> bool:
    """Independent ILP oracle (HiGHS via scipy.optimize.milp): whether the
    graph has a proper k-colouring, decided on the twin quotient in the
    assignment formulation, x[v, c] = 1 when vertex v takes colour c.  Twins
    are not adjacent, so a colouring of the quotient lifts to the graph.
    The i-th vertex of `clique` is fixed to colour i: its vertices take
    distinct colours in any colouring, and renaming the colours maps any
    colouring onto one that gives them these, so this loses no generality."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    if len(clique) > k:
        return False
    quotient, _, cls = unique_twin_classes(graph)
    n = quotient.n
    us, vs = np.nonzero(np.triu(quotient.adj, 1))
    colours = np.arange(k)
    # one colour per vertex: the n rows sum x[v, c] over c
    one = coo_array((np.ones(n * k), (np.repeat(np.arange(n), k), np.arange(n * k))),
                    shape=(n, n * k))
    # no edge inside a colour class: x[u, c] + x[v, c] ≤ 1, one row per (edge, c)
    m = us.size * k
    rows = np.arange(m)
    cols = np.r_[(us[:, None] * k + colours).ravel(), (vs[:, None] * k + colours).ravel()]
    proper = coo_array((np.ones(2 * m), (np.r_[rows, rows], cols)), shape=(m, n * k))
    lower = np.zeros(n * k)
    for colour, v in enumerate(clique):
        lower[cls[v] * k + colour] = 1
    res = milp(c=np.zeros(n * k),
               constraints=[LinearConstraint(one, lb=np.ones(n), ub=np.ones(n)),
                            LinearConstraint(proper, ub=np.ones(m))],
               integrality=np.ones(n * k), bounds=Bounds(lower, np.ones(n * k)))
    assert res.status in (0, 2), res.message  # solved, or proved infeasible
    return res.status == 0


# ---------------------------------------------------------------------------
# a census that contradicts the formulas


def drop_first_gamma_edge(monkeypatch) -> None:
    """Make `degree_profile` take its census on Gamma(G) less its first
    edge, so that the classes of the edge's ends hold two degrees."""
    import gengraph.generating as GEN

    real = GEN.generating_graph

    def less_one_edge(G: Group) -> GeneratingGraph:
        gg = real(G)
        adj = gg.graph.adj.copy()
        u, v = np.argwhere(adj)[0]
        adj[u, v] = adj[v, u] = False
        return GeneratingGraph(Graph(adj, gg.graph.marks), gg.vertex_elements, G)
    monkeypatch.setattr(GEN, "generating_graph", less_one_edge)


# ---------------------------------------------------------------------------
# Cayley-table files


def save_cayley_file(G: Group, path: str | Path) -> None:
    """Write G in the "cayley 1" format that `load_cayley_file` reads."""
    path = Path(path)
    lines = ["cayley 1", str(G.n)]
    for i in range(G.n):
        lines.append(" ".join(str(int(x)) for x in G.table[i]))
    for i, lbl in enumerate(G.labels):
        if lbl != str(i):
            lines.append(f"label {i} {lbl}")
    path.write_text("\n".join(lines) + "\n")


def permutation_table(perm_group) -> np.ndarray:
    """The Cayley table of a sympy permutation group, identity at index 0,
    with a*b the permutation that applies a, then b."""
    perms = sorted(tuple(p.array_form) for p in perm_group.generate())
    index = {p: i for i, p in enumerate(perms)}  # the identity sorts first
    arrays = np.array(perms)
    return np.array([[index[tuple(b[a])] for b in arrays] for a in arrays])


@functools.lru_cache(maxsize=None)
def lattice_test_groups() -> dict[str, Group]:
    """S4, A5, S5, PSL(2,7) and AGL(1,p) for p = 7, 11, 13, from sympy."""
    from sympy.combinatorics import Permutation, PermutationGroup
    from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

    def affine(p: int) -> PermutationGroup:
        root = next(r for r in range(2, p)
                    if len({pow(r, k, p) for k in range(1, p)}) == p - 1)
        return PermutationGroup([Permutation([(x + 1) % p for x in range(p)]),
                                 Permutation([root * x % p for x in range(p)])])

    perm_groups = {
        "S4": SymmetricGroup(4),
        "A5": AlternatingGroup(5),
        "S5": SymmetricGroup(5),
        # collineations of the Fano plane with lines {x, x+1, x+3} mod 7
        "PSL(2,7)": PermutationGroup([Permutation([1, 2, 3, 4, 5, 6, 0]),
                                      Permutation([[1, 2], [3, 6]], size=7)]),
        "AGL(1,7)": affine(7),
        "AGL(1,11)": affine(11),
        "AGL(1,13)": affine(13),
    }
    return {name: Group(permutation_table(pg), name=name)
            for name, pg in perm_groups.items()}


def relabelled(g: Group, seed: int) -> tuple[Group, np.ndarray]:
    """A copy of g with its non-identity elements renumbered at random, and
    the map from old to new indices."""
    relabel = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(g.n - 1)])
    table = np.empty_like(g.table)
    table[np.ix_(relabel, relabel)] = relabel[g.table]
    return Group(table, name=f"{g.name} relabelled {seed}"), relabel


# ---------------------------------------------------------------------------
# graph constructors and metrics


def complete_multipartite(parts) -> Graph:
    """Blocks of the given sizes; edges exactly between distinct blocks."""
    parts = [int(p) for p in parts]
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be nonempty positive sizes")
    block = np.repeat(np.arange(len(parts)), parts)
    return Graph(block[:, None] != block[None, :])


@dataclass(frozen=True)
class Metrics:
    min_degree: int | None
    is_connected: bool
    component_count: int
    diameter: int | None


def basic_metrics(graph: Graph) -> Metrics:
    """Min degree, connectivity, component count, diameter (None if disconnected).

    The empty graph reports min_degree None and is connected=False by
    convention; a single vertex is connected with diameter 0.  The diameter
    is scipy's, not `gengraph.graphs.diameter`, which it checks.
    """
    from scipy.sparse.csgraph import shortest_path

    if graph.n == 0:
        return Metrics(None, False, 0, None)
    ncomp = scipy_component_count(graph)
    connected = ncomp == 1
    diameter = None
    if connected:
        diameter = int(shortest_path(graph.adj, unweighted=True).max())
    return Metrics(int(graph.degrees.min()), connected, ncomp, diameter)


def kappa_product_formula(kappa_gamma: int, delta_gamma: int,
                          t: tuple[int, ...]) -> int:
    """min(kappa*sum(t_i), delta*sum(t_i, i<u)) under the stated hypotheses:
    u >= 3, parts ascending, sum of first u-2 >= t_{u-1}, sum of first u-1 >= t_u."""
    u = len(t)
    if u < 3:
        raise ValueError("formula requires u >= 3 parts")
    if sum(t[:u - 2]) < t[u - 2]:
        raise ValueError("precondition sum(t_1..t_{u-2}) >= t_{u-1} fails")
    if sum(t[:u - 1]) < t[u - 1]:
        raise ValueError("precondition sum(t_1..t_{u-1}) >= t_u fails")
    return min(kappa_gamma * sum(t), delta_gamma * sum(t[:u - 1]))


# ---------------------------------------------------------------------------
# rule: componentwise generation on the Frattini quotient


def p_part(G: Group, g: int, p: int) -> int:
    """The p-part of g: the power of g whose order is the p-part of |g|."""
    order = int(G.orders[g])
    pk = 1
    while order % p == 0:
        order //= p
        pk *= p
    # exponent e with e ≡ 1 mod pk, e ≡ 0 mod order
    if pk == 1:
        return 0
    e = order * pow(order, -1, pk)
    power = 0
    for _ in range(e):
        power = int(G.table[power, g])
    return power


def componentwise_pair_matrix(Q: Group) -> np.ndarray:
    """Adjacency of Gamma(Q) for squarefree-exponent nilpotent Q, computed by
    the componentwise rule: on each cyclic Sylow factor not both trivial; on
    each rank-2 Sylow factor two distinct nontrivial cyclic subgroups."""
    st = nilpotent_structure(Q)
    n = Q.n
    ok = np.ones((n, n), dtype=bool)
    for p, _ in st.cyclic_sylow:
        part = np.array([p_part(Q, g, p) for g in range(n)])
        trivial = part == 0
        ok &= ~(trivial[:, None] & trivial[None, :])
    for q, _ in st.noncyclic_sylow:
        part = np.array([p_part(Q, g, q) for g in range(n)])
        ids, _, _ = brute_cyclic_data(Q)
        sub = ids[part]
        trivial = part == 0
        ok &= ~trivial[:, None] & ~trivial[None, :] & (sub[:, None] != sub[None, :])
    np.fill_diagonal(ok, False)
    # the rule describes generation of Q itself; pairs where g = h never count
    return ok


# ---------------------------------------------------------------------------
# rule: the example family's Delta, with no Cayley table


def example_family_graph(d: int, max_vertices: int = 10_000) -> GeneratingGraph:
    """Delta of the d-block semidirect example, built directly from the
    nonisolation and adjacency rules over coordinate tuples.

    Vertices are the tuples (n_11..n_d3; h_j) with j in {1,2,3} and n_ij != 0
    for every block i; two vertices with labels j != k are adjacent iff every
    block differs in the coordinate l not in {j,k}.  vertex_elements uses the
    same element indexing as the Cayley-table construction (coords * 4 + h).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    primes = odd_primes(d)
    per_class = math.prod(p * p * (p - 1) for p in primes)
    total = 3 * per_class
    if total > max_vertices:
        raise OrderGuardError(
            f"rule-based graph has {total} vertices, guard is {max_vertices}")
    radices = [p for p in primes for _ in range(3)]
    nn = math.prod(p ** 3 for p in primes)
    coords = np.stack(np.unravel_index(np.arange(nn), radices), axis=1)
    vert_coords = []
    vert_elements = []
    for j in (1, 2, 3):
        ok = np.ones(nn, dtype=bool)
        for i in range(d):
            ok &= coords[:, 3 * i + (j - 1)] != 0
        sel = np.flatnonzero(ok)
        vert_coords.append((j, sel))
        vert_elements.extend((int(x) * 4 + j) for x in sel)
    counts = [sel.size for _, sel in vert_coords]
    n = sum(counts)
    adj = np.zeros((n, n), dtype=bool)
    offs = np.cumsum([0] + counts)
    for a in range(3):
        ja, sela = vert_coords[a]
        for b in range(a + 1, 3):
            jb, selb = vert_coords[b]
            l_free = ({1, 2, 3} - {ja, jb}).pop()
            block = np.ones((sela.size, selb.size), dtype=bool)
            for i in range(d):
                col = 3 * i + (l_free - 1)
                block &= coords[sela, col][:, None] != coords[selb, col][None, :]
            adj[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = block
            adj[offs[b]:offs[b + 1], offs[a]:offs[a + 1]] = block.T
    # group object only materialised within the order guard
    group = build_group(f"Ex({d})", max_order=max(4 * nn, 1)) if 4 * nn <= 1000 \
        else _IndexOnlyGroup(4 * nn, f"Ex({d})")
    return GeneratingGraph(Graph(adj), tuple(vert_elements), group)


class _IndexOnlyGroup:
    """Stand-in carrying just order and labels for rule-built graphs whose
    Cayley table would exceed the guard."""

    def __init__(self, n: int, name: str):
        self.n = n
        self.name = name
        self.labels = tuple(str(i) for i in range(n))


# ---------------------------------------------------------------------------
# rule: the cyclic clique/colouring pair and the diagonal dominating set


def cyclic_clique_coloring(n: int) -> tuple[Clique, Coloring]:
    """The certified clique/colouring pair on Gamma(C_n), n >= 2.

    Clique: the phi(n) generators plus g^{p} for each prime p | n.
    Colouring: one singleton class per generator, plus for each prime p_i
    the class of elements of <g^{p_i}> not in an earlier subgroup; together
    phi(n) + pi(n) classes, matching the clique size.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    gg = generating_graph(build_group(f"C{n}", max_order=n))
    factors, phi_n, r = totient_profile(n)
    generators = [g for g in range(n) if math.gcd(g, n) == 1]
    ys = [p % n for p, _ in factors]
    clique_vertices = sorted(set(generators) | set(ys))
    if len(clique_vertices) != phi_n + r:
        raise ConstructionError("clique has the wrong size")
    clique = Clique(tuple(clique_vertices))
    if not verify_certificate(gg.graph, clique):
        raise ConstructionError("cyclic clique failed re-verification")
    colors = [-1] * n
    taken = [False] * n
    class_id = 0
    for p, _ in factors:
        for e in range(0, n, p):
            if not taken[e]:
                colors[e] = class_id
                taken[e] = True
        class_id += 1
    for g in generators:
        colors[g] = class_id
        taken[g] = True
        class_id += 1
    if class_id != phi_n + r or not all(taken):
        raise ConstructionError("colour classes do not partition the group")
    coloring = Coloring(tuple(colors))
    if not verify_certificate(gg.graph, coloring):
        raise ConstructionError("cyclic colouring failed re-verification")
    return clique, coloring


def product_dominating_set(parts: tuple[int, ...]) -> DominatingSet:
    """The diagonal {(k,...,k) : k in [s+1]} on K_{a_1} x ... x K_{a_s},
    parts ascending, valid when a_1 > s; re-verified before return."""
    s = len(parts)
    if parts[0] <= s:
        raise ValueError(f"diagonal needs a_1 > s, got a_1 = {parts[0]}, s = {s}")
    graph = complete_product(parts)
    diagonal = (int(np.ravel_multi_index((k,) * s, parts)) for k in range(s + 1))
    ds = DominatingSet(tuple(diagonal))
    if not verify_certificate(graph, ds):
        raise ConstructionError("diagonal dominating set failed re-verification")
    return ds
