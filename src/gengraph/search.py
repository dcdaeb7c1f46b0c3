"""Budgeted exact searches: Hamiltonian cycles, cliques, colourings,
total domination.

All searches are deterministic: vertex orders and branching break ties by
ascending vertex index, and a budget is a plain int count of search-node
expansions rather than wall time, so identical inputs and budgets give
identical outcomes.  `_Counter` counts the nodes and enforces the budget:
it refuses a negative one, and its `tick` raises `_BudgetExhausted` once
the count passes it.
The clique, colouring and total-domination searches run on one vertex per
twin class (`graphs.twin_classes`, or for γt the rows of its covers matrix),
the least of its class, so their ties break by ascending index within the
reduced graph, whose vertices keep the order of the graph's.  χ comes
from one search alone: the exact k-colouring search, which branches on the
vertex with the fewest colours left (DSATUR's rule), run for k = ω, ω + 1,
… until one k succeeds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DominationUndefinedError
from .graphs import (Clique, Coloring, DominatingSet, Graph, HamCycle, _bits_of, _reach,
                     _row_bits, _row_classes, twin_classes)
from .memo import cached


DEFAULT_BUDGET = 10_000_000


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("budget must be nonnegative")
        self.nodes = 0
        self.limit = limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetExhausted


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Hamiltonian cycles


@dataclass(frozen=True)
class HamiltonianResult:
    status: str  # "yes" | "no" | "budget"
    cycle: HamCycle | None
    reason: str | None
    nodes: int


def hamiltonian(graph: Graph, budget: int = DEFAULT_BUDGET) -> HamiltonianResult:
    """Decide Hamiltonicity by backtracking with forced-edge pruning.

    The static vertex order is degree-ascending (ties by index).  "no" is
    returned only when the search space was exhausted within budget.
    """
    n = graph.n
    if n < 3:
        return HamiltonianResult("no", None, "fewer than 3 vertices", 0)
    degs = graph.degrees
    if (degs == 0).any():
        return HamiltonianResult("no", None, "isolated vertex", 0)
    order = np.lexsort((np.arange(n), degs)).tolist()
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    bits = graph.bitmasks()
    counter = _Counter(budget)
    start = order[0]
    full = (1 << n) - 1
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def extend(path: list[int], visited: int) -> tuple[int, ...] | None:
        counter.tick()
        end = path[-1]
        if len(path) == n:
            if bits[end] >> start & 1:
                return tuple(path)
            return None
        unvisited = full & ~visited
        sbit = 1 << start
        ebit = 1 << end
        # feasibility and forced-edge detection on the remaining vertices;
        # at the root the start vertex still has both cycle slots free, so
        # an edge at it is never forced there
        at_root = len(path) == 1
        forced = -1
        avail_count = {}
        for v in _bits_of(unvisited):
            avail = bits[v] & (unvisited | sbit | ebit)
            cnt = avail.bit_count()
            if cnt < 2:
                return None
            avail_count[v] = cnt
            if cnt == 2 and (avail & ebit) and not at_root:
                if forced >= 0:
                    return None
                forced = v
        # the endpoint must reach every unvisited vertex through unvisited ones
        region = unvisited | ebit
        if _reach(bits, end, region) != region:
            return None
        if forced >= 0:
            cands = [forced]
        else:
            # most-constrained candidate first, ties by the static order
            cands = sorted(_bits_of(bits[end] & unvisited),
                           key=lambda v: (avail_count[v], rank[v]))
        for v in cands:
            path.append(v)
            got = extend(path, visited | (1 << v))
            if got is not None:
                return got
            path.pop()
        return None

    try:
        got = extend([start], 1 << start)
    except _BudgetExhausted:
        return HamiltonianResult("budget", None, "node budget exhausted", counter.nodes)
    if got is None:
        return HamiltonianResult("no", None, "search space exhausted", counter.nodes)
    return HamiltonianResult("yes", HamCycle(got), None, counter.nodes)


# ---------------------------------------------------------------------------
# maximum clique


@dataclass(frozen=True)
class CliqueResult:
    size: int | None
    clique: Clique | None
    nodes: int
    exceeded: bool


def clique_number(graph: Graph, budget: int = DEFAULT_BUDGET) -> CliqueResult:
    """Exact maximum clique by branch and bound with greedy colouring bounds.

    The search runs on the quotient, the subgraph induced on one vertex per
    class of `twin_classes(graph)`.  Two vertices with equal neighbourhoods
    are not adjacent, as the graph has no loops, so a clique holds at most
    one vertex of each twin class, and any vertex of a class can stand in
    for another, so the quotient's largest clique, read back through the
    class representatives, is a largest clique of the graph.
    """
    if graph.n == 0:
        return CliqueResult(0, Clique(()), 0, False)
    reps, _ = twin_classes(graph)
    quotient, _ = graph.induced(reps)
    n = quotient.n
    bits = quotient.bitmasks()
    counter = _Counter(budget)
    best: list[int] = []

    def color_sort(cand: int) -> list[tuple[int, int]]:
        # greedy colouring of the candidates, one colour class at a time: a
        # class takes the least vertex left and drops it and its neighbours
        # from the pool, which is first-fit colouring in ascending vertex
        # order; emitted class by class, each in ascending order, so that
        # the bound is nondecreasing and the branch cutoff below stays sound
        out: list[tuple[int, int]] = []
        color = 0
        while cand:
            color += 1
            q = cand
            while q:
                vbit = q & -q
                v = vbit.bit_length() - 1
                out.append((v, color))
                cand ^= vbit
                q &= ~bits[v] & ~vbit
        return out

    def expand(current: list[int], cand: int):
        nonlocal best
        counter.tick()
        ordered = color_sort(cand)
        for v, bound in reversed(ordered):
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

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    try:
        expand([], (1 << n) - 1)
    except _BudgetExhausted:
        return CliqueResult(None, None, counter.nodes, True)
    return CliqueResult(len(best), Clique(tuple(sorted(reps[v] for v in best))),
                        counter.nodes, False)


# ---------------------------------------------------------------------------
# chromatic number


@dataclass(frozen=True)
class ChromaticResult:
    chi: int | None
    coloring: Coloring | None
    nodes: int  # the clique search's included
    exceeded: bool
    clique: CliqueResult  # the search that gave the lower bound


@cached
def chromatic_number(graph: Graph, budget: int = DEFAULT_BUDGET
                     ) -> ChromaticResult:
    """Exact chromatic number: the least k from the clique number ω upward
    for which the k-colouring search succeeds.  The result, its clique
    search included, is kept on the graph per node budget.

    The k-colouring search runs on the quotient of `clique_number`, seeded
    with the clique mapped to its classes.  Vertices of one class are not
    adjacent, and two classes are adjacent exactly when their
    representatives are, so a colouring of the quotient that gives each
    vertex its class's colour is a proper colouring of the graph; the
    quotient is an induced subgraph, so it needs no more colours than the
    graph does.  No proper colouring has fewer than ω colours, so the first
    k that succeeds is χ; it is at most the quotient's order, at which
    every vertex can take a colour of its own.
    """
    cl = clique_number(graph, budget)
    if cl.exceeded:
        return ChromaticResult(None, None, cl.nodes, True, cl)
    if graph.n == 0:
        return ChromaticResult(0, Coloring(()), 0, False, cl)
    reps, cls = twin_classes(graph)
    quotient, _ = graph.induced(reps)
    seed = tuple(cls[v] for v in cl.clique.vertices)
    counter = _Counter(max(0, budget - cl.nodes))
    k = cl.size
    try:
        while (got := _k_coloring(quotient, k, seed, counter)) is None:
            k += 1
    except _BudgetExhausted:
        return ChromaticResult(None, None, cl.nodes + counter.nodes, True, cl)
    return ChromaticResult(k, Coloring(tuple(got.colors[c] for c in cls)),
                           cl.nodes + counter.nodes, False, cl)


def _k_coloring(graph: Graph, k: int, seed_clique: tuple[int, ...],
                counter: _Counter) -> Coloring | None:
    n = graph.n
    colors = [-1] * n
    domains = [(1 << k) - 1 for _ in range(n)]
    adj = graph.bitmasks()
    for ci, v in enumerate(sorted(seed_clique)):
        colors[v] = ci
        for w in _bits_of(adj[v]):
            domains[w] &= ~(1 << ci)

    def assign(remaining: list[int], used: int) -> bool:
        counter.tick()
        if not remaining:
            return True
        v = min(remaining, key=lambda u: (domains[u].bit_count(), u))
        dom = domains[v]
        if dom == 0:
            return False
        rest = [u for u in remaining if u != v]
        for c in _bits_of(dom):
            # introduce colours in ascending order only (symmetry break)
            if c > used and c != used + 1:
                continue
            touched = []
            ok = True
            for w in _bits_of(adj[v]):
                if colors[w] < 0 and (domains[w] >> c) & 1:
                    domains[w] &= ~(1 << c)
                    touched.append(w)
                    if domains[w] == 0:
                        ok = False
            colors[v] = c
            if ok and assign(rest, max(used, c)):
                return True
            colors[v] = -1
            for w in touched:
                domains[w] |= 1 << c
        return False

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    if assign([v for v in range(n) if colors[v] < 0], len(seed_clique) - 1):
        return Coloring(tuple(colors))
    return None


# ---------------------------------------------------------------------------
# total domination


@dataclass(frozen=True)
class DominationResult:
    size: int | None
    witness: DominatingSet | None
    nodes: int
    exceeded: bool


def total_domination(graph: Graph, budget: int = DEFAULT_BUDGET,
                     lower_hint: int = 1) -> DominationResult:
    """Minimum total dominating set by increasing-size branch and bound.

    Feasibility: every vertex has a neighbour in S; a vertex carrying a
    self-dominating mark additionally counts as its own neighbour.  Raises
    DominationUndefinedError when some vertex has no possible dominator.

    The search runs on one vertex per twin class.  Let covers be the
    adjacency matrix with the diagonal entry of each marked vertex set, so
    that row u holds the vertices u dominates and column v the vertices
    that dominate v.  Vertices with equal rows can replace each other in
    any total dominating set, so the candidates are the least vertex of
    each distinct row.  Vertices with equal columns have the same
    dominators, so a set covers one of them exactly when it covers all, and
    the targets are the least vertex of each distinct column of the
    candidates' rows.  A set of candidates that covers every target is a
    total dominating set of the graph, and any total dominating set maps,
    each vertex to the candidate of its row, onto one of no larger size
    that does; so a smallest such set of candidates, as vertices of the
    graph, is a minimum total dominating set.

    For each size k in turn, a depth-first search branches on the uncovered
    target with fewest dominators, the least such; the targets are
    renumbered once by (dominator count, index), so that target is the
    lowest uncovered bit, and each target's dominators are listed once.  A
    node is cut by the residual-coverage bound: with `gain` the most
    uncovered targets any one candidate covers, the k - |S| candidates
    still to choose cover at most (k - |S|)·gain more, so a node with more
    uncovered targets than that has no set of size k below it.  With one
    candidate left to choose, the bound asks for one that covers every
    uncovered target, that is, a common dominator of them all, found by
    intersecting their dominator sets.  The node's children are then
    leaves: those before the least common dominator fail and it succeeds,
    so they are counted as nodes, not visited.  The bound prunes only such subtrees and leaves
    the branching order as it is, so the first set found, the witness, is
    the one the unpruned search finds, after as many nodes.  The reported
    size is the witness's, which is below k only when `lower_hint`
    exceeds the optimum.
    """
    n = graph.n
    if n == 0:
        return DominationResult(0, DominatingSet(()), 0, False)
    covers = graph.adj.copy()
    marked = sorted(graph.marks)
    covers[marked, marked] = True
    undominated = np.flatnonzero(~covers.any(axis=0))
    if undominated.size:
        raise DominationUndefinedError(
            f"vertex {undominated[0]} has no neighbours and no self-mark")
    rows, _ = _row_classes(covers)
    cols, _ = _row_classes(covers[rows].T)
    reduced = covers[np.ix_(rows, cols)]
    # the targets renumbered by (dominator count, index), so that the
    # target to branch on is the lowest uncovered bit
    reduced = reduced[:, np.argsort(reduced.sum(axis=0), kind="stable")]
    reach = _row_bits(reduced)  # reach[i] = targets that candidate i covers
    dominators = _row_bits(reduced.T)  # dominators[j] = candidates covering target j
    branches = [_bits_of(m) for m in dominators]  # the same, as ascending lists
    full = (1 << len(cols)) - 1
    counter = _Counter(budget)

    def search(k: int, chosen: list[int], covered: int) -> list[int] | None:
        counter.tick()
        if covered == full:
            return chosen.copy()
        uncovered = full & ~covered
        target = (uncovered & -uncovered).bit_length() - 1
        left = k - len(chosen)
        if left == 1:
            # the last choice must cover every uncovered target; the
            # children are the target's dominators up to u: those below u
            # fail, and u succeeds
            common, rest = dominators[target], uncovered
            while common and rest:
                low = rest & -rest
                common &= dominators[low.bit_length() - 1]
                rest ^= low
            if not common:
                return None
            u = (common & -common).bit_length() - 1
            for _ in range((dominators[target] & ((1 << u) - 1)).bit_count() + 1):
                counter.tick()
            return chosen + [u]
        gain = max((m & uncovered).bit_count() for m in reach)
        if uncovered.bit_count() > left * gain:
            return None
        for u in branches[target]:
            chosen.append(u)
            got = search(k, chosen, covered | reach[u])
            if got is not None:
                return got
            chosen.pop()
        return None

    lower = max(lower_hint, -(-len(cols) // max(m.bit_count() for m in reach)))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    try:
        for k in range(lower, len(rows) + 1):
            got = search(k, [], 0)
            if got is not None:
                witness = sorted(rows[i] for i in got)
                return DominationResult(
                    len(witness), DominatingSet(tuple(witness)), counter.nodes, False)
    except _BudgetExhausted:
        return DominationResult(None, None, counter.nodes, True)
    raise DominationUndefinedError("no dominating set exists")  # unreachable
