"""Exact graph algorithms and constructors.

Undirected loopless graphs over vertices 0..n-1, stored as a symmetric
boolean adjacency matrix.  Vertices can optionally carry a self-dominating
mark: a marked vertex counts as its own neighbour for total-domination
feasibility only (the graph structure itself stays loopless).

Vertex and edge connectivity share one minimum-cut loop, `_least_cut`, over
one exact unit-capacity max-flow on the neighbour bitmasks, `maximum_flow`,
which starts from short disjoint paths (the direct edge, the common
neighbours, greedy paths of length 3).  kappa seeds the loop with the
neighbourhood of a minimum-degree vertex (Esfahanian & Hakimi), lambda with
the star of vertex 0; `_least_cut` states why the seed, the skipped pairs
and the stopped flows leave the witness a function of the graph alone: a
cut is read only off a maximum flow, as its residual source side, which
every maximum flow shares; it flows once per orbit of pairs under swaps of
false twins, whose classes, `twin_classes`, the clique and colouring
searches read too.  Every reported witness is re-checked from its
definition by `verify_certificate`, in `verify.run_check` or the CLI;
connectedness, there and in the algorithms, is one bitmask traversal, `_reach`.
Every walk but the Euler circuit's (the flows, `_reach`, the connectivity
pair bounds) reads the memoised `Graph.bitmasks()` and copies no adjacency;
the Euler circuit, matrix work (`diameter`, degrees) and the verifiers, but
for the cuts', read `adj`.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, get_args

import numpy as np

from .errors import GengraphError, OrderGuardError
from .memo import cached


class Graph:
    """Immutable undirected loopless graph."""

    __slots__ = ("n", "adj", "marks", "_cache")

    def __init__(self, adj: np.ndarray, marks: Iterable[int] = ()):
        adj = np.array(adj, dtype=bool)  # a copy: the caller cannot change the graph
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency must be square")
        if adj.diagonal().any():
            raise ValueError("loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        self.n = n
        self.adj = adj
        self.adj.setflags(write=False)
        self.marks = frozenset(int(m) for m in marks)
        for m in self.marks:
            if not 0 <= m < n:
                raise ValueError("mark out of range")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   marks: Iterable[int] = ()) -> "Graph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {{{u}, {v}}} has an endpoint outside 0..{n - 1}")
            adj[u, v] = adj[v, u] = True
        return cls(adj, marks)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(adj)

    # -- basic accessors -----------------------------------------------------

    @property
    @cached
    def degrees(self) -> np.ndarray:
        d = self.adj.sum(axis=1).astype(np.int64)
        d.setflags(write=False)
        return d

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adj, 1))
        return list(zip(iu.tolist(), ju.tolist()))

    @cached
    def bitmasks(self) -> list[int]:
        """Neighbour sets as Python int bitmasks (for the exact searches)."""
        return _row_bits(self.adj)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", np.ndarray]:
        idx = np.array(sorted(set(int(v) for v in vertices)), dtype=np.int64)
        sub = self.adj[np.ix_(idx, idx)]
        marks = [i for i, v in enumerate(idx.tolist()) if v in self.marks]
        return Graph(sub, marks), idx

    def is_complete(self) -> bool:
        return bool(self.degrees.min(initial=self.n - 1) == self.n - 1) if self.n else True

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# constructors and products


def direct_product(a: Graph, b: Graph) -> Graph:
    """Tensor product: (u1,v1) ~ (u2,v2) iff u1~u2 and v1~v2; index u*|b|+v."""
    return Graph(np.kron(a.adj, b.adj))


def complete_product(parts) -> Graph:
    """K_{a_1} x ... x K_{a_s}; vertex index in row-major order of the tuple."""
    graph = Graph.complete(parts[0])
    for a in parts[1:]:
        graph = direct_product(graph, Graph.complete(a))
    return graph


# ---------------------------------------------------------------------------
# reachability and distances


def _reach(bits: list[int], start: int, within: int) -> int:
    """The vertices that `start` reaches along the neighbour bitmasks `bits`
    inside the vertex set `within`, `start` included, as a bitmask."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in _bits_of(frontier):
            nxt |= bits[v]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _connected(graph: Graph) -> bool:
    full = (1 << graph.n) - 1
    return _reach(graph.bitmasks(), 0, full) == full


def diameter(graph: Graph) -> int | None:
    """The greatest distance between two vertices: 0 for one vertex, None for
    a disconnected graph and for the empty graph, as in `eulerian_circuit`."""
    if graph.n == 0:
        return None
    reach = np.eye(graph.n, dtype=bool)
    d = 0
    while not reach.all():
        known = np.count_nonzero(reach)
        reach |= reach @ graph.adj  # v within d + 1 steps of u
        if np.count_nonzero(reach) == known:
            return None
        d += 1
    return d


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class VertexCut:
    vertices: tuple[int, ...]
    tag: ClassVar[str] = "vertex_cut"

    def holds(self, graph: Graph) -> bool:
        """At least two vertices are left, and the least does not reach them all."""
        if not all(0 <= v < graph.n for v in self.vertices):
            return False
        rest = ((1 << graph.n) - 1) & ~sum(1 << v for v in set(self.vertices))
        if rest.bit_count() < 2:
            return False
        return _reach(graph.bitmasks(), (rest & -rest).bit_length() - 1, rest) != rest


@dataclass(frozen=True)
class EdgeCut:
    edges: tuple[tuple[int, int], ...]
    tag: ClassVar[str] = "edge_cut"

    def holds(self, graph: Graph) -> bool:
        """Every entry an edge, none twice, and the graph less them disconnected."""
        n = graph.n
        bits = list(graph.bitmasks())
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n and bits[u] >> v & 1):
                return False
            bits[u], bits[v] = bits[u] & ~(1 << v), bits[v] & ~(1 << u)
        full = (1 << n) - 1
        return n >= 2 and _reach(bits, 0, full) != full


@dataclass(frozen=True)
class EulerCircuit:
    vertices: tuple[int, ...]  # closed walk, first == last unless empty
    tag: ClassVar[str] = "euler_circuit"

    def holds(self, graph: Graph) -> bool:
        """A closed walk of m steps, each along an edge, with no edge twice.

        The walked entries are set in an n*n boolean matrix: m steps set 2m
        entries exactly when no edge repeats.  The range is read off the
        walk as an int64 array, before any narrower use of it; an entry
        beyond int64 is out of range too.
        """
        walk = self.vertices
        n, m = graph.n, graph.edge_count
        try:
            steps = np.fromiter(walk, dtype=np.int64, count=len(walk))
        except OverflowError:
            return False
        if walk and not (0 <= steps.min() and steps.max() < n):
            return False
        if m == 0:
            return len(walk) <= 1
        if len(walk) != m + 1 or walk[0] != walk[-1]:
            return False
        u, v = steps[:-1], steps[1:]
        if not graph.adj[u, v].all():
            return False
        walked = np.zeros((n, n), dtype=bool)
        walked[u, v] = walked[v, u] = True
        return int(np.count_nonzero(walked)) == 2 * m


@dataclass(frozen=True)
class HamCycle:
    vertices: tuple[int, ...]  # each vertex once; wrap edge implied
    tag: ClassVar[str] = "ham_cycle"

    def holds(self, graph: Graph) -> bool:
        cyc = self.vertices
        if graph.n < 3 or sorted(cyc) != list(range(graph.n)):
            return False
        return all(graph.adj[cyc[i], cyc[(i + 1) % graph.n]] for i in range(graph.n))


@dataclass(frozen=True)
class Clique:
    vertices: tuple[int, ...]
    tag: ClassVar[str] = "clique"

    def holds(self, graph: Graph) -> bool:
        """Every two entries adjacent; a repeated v gives (v, v), no edge."""
        vs = self.vertices
        return (all(0 <= v < graph.n for v in vs)
                and all(graph.adj[u, v] for i, u in enumerate(vs) for v in vs[i + 1:]))


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]  # class index per vertex
    tag: ClassVar[str] = "coloring"

    def holds(self, graph: Graph) -> bool:
        if len(self.colors) != graph.n or min(self.colors, default=0) < 0:
            return False
        cols = np.asarray(self.colors)
        iu, ju = np.nonzero(np.triu(graph.adj, 1))
        return bool((cols[iu] != cols[ju]).all())


@dataclass(frozen=True)
class DominatingSet:
    vertices: tuple[int, ...]
    tag: ClassVar[str] = "dominating_set"

    def holds(self, graph: Graph) -> bool:
        sel = set(self.vertices)
        if not all(0 <= v < graph.n for v in sel):
            return False
        covered = np.zeros(graph.n, dtype=bool)
        for s in sel:
            covered |= graph.adj[s]
            if s in graph.marks:
                covered[s] = True
        return bool(covered.all())


@dataclass(frozen=True)
class HChords:
    """Hamiltonian cycle plus one odd-odd and one even-even chord.

    Chord entries are 0-based positions into the cycle sequence; both are
    None exactly when the cycle has odd length (membership is automatic).
    """

    cycle: tuple[int, ...]
    chord_odd: tuple[int, int] | None
    chord_even: tuple[int, int] | None
    tag: ClassVar[str] = "h_chords"

    def holds(self, graph: Graph) -> bool:
        """Each chord joins two positions of its parity that are adjacent in
        the graph: two such positions on an even cycle are never adjacent on
        it, and (r, r) is no edge."""
        if not HamCycle(self.cycle).holds(graph):
            return False
        n = len(self.cycle)
        if n % 2 == 1:
            return self.chord_odd is None and self.chord_even is None
        if self.chord_odd is None or self.chord_even is None:
            return False
        for chord, parity in ((self.chord_odd, 1), (self.chord_even, 0)):
            r, s = chord
            if not (0 <= r < n and 0 <= s < n and r % 2 == parity == s % 2):
                return False
            if not graph.adj[self.cycle[r], self.cycle[s]]:
                return False
        return True


Certificate = (VertexCut | EdgeCut | EulerCircuit | HamCycle | Clique
               | Coloring | DominatingSet | HChords)


def verify_certificate(graph: Graph, cert: Certificate) -> bool:
    """Definitional re-check of a certificate against its graph."""
    if not isinstance(cert, Certificate):
        raise TypeError(f"unknown certificate {cert!r}")
    return cert.holds(graph)


# ---------------------------------------------------------------------------
# connectivity via max-flow


@dataclass(frozen=True)
class VertexConnectivity:
    value: int
    cut: VertexCut | None
    complete: bool


def _bits_of(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_bits(matrix: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as int bitmasks, bit j for column j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _row_classes(matrix: np.ndarray) -> tuple[list[int], list[int]]:
    """The least index of each distinct row of a 2-D array of any dtype,
    ascending, and for each row the position of its class in that list."""
    index: dict[bytes, int] = {}
    reps: list[int] = []
    cls: list[int] = []
    for i, row in enumerate(matrix):
        c = index.setdefault(row.tobytes(), len(reps))
        if c == len(reps):
            reps.append(i)
        cls.append(c)
    return reps, cls


@cached
def twin_classes(graph: Graph) -> tuple[list[int], list[int]]:
    """The classes of false twins, vertices with equal adjacency rows, which
    any swap of two of them preserves: (reps, cls), reps[i] the least vertex
    of class i, ascending, and cls[v] the class of v.  Computed once."""
    return _row_classes(graph.adj)


def maximum_flow(bits: list[int], a: int, b: int, vertex: bool,
                 limit: int | None = None) -> tuple[int, int | None]:
    """Unit-capacity a-b max-flow over the neighbour bitmasks `bits`.

    With `vertex` it counts internally vertex-disjoint paths between the
    non-adjacent a and b: every vertex is an entry state and an exit state
    joined by one unit of capacity, and an edge u-w carries any amount from
    u's exit to w's entry (Even & Tarjan).  Without it, it counts
    edge-disjoint paths: each edge carries one unit either way, as an
    antisymmetric flow in -1..1.

    The flow starts from short disjoint paths: the edge a-b (edge flows
    only), a-w-b for each common neighbour w, then a-x-y-b for each x in
    N(a) \\ N(b), ascending, with the least y in N(b) \\ N(a) adjacent to x
    and not yet taken.  Breadth-first augmenting paths then extend it, and
    the search stops as soon as the value reaches `limit`.

    Returns (value, side), value being min(maximum flow, limit).  side is
    None when the value reached the limit.  Otherwise the last search
    failed, so the flow is maximum, and side is read off the states it
    reached, the residual source side, which is the same for every maximum
    flow: for vertex flows the vertices whose entry it reached and whose
    exit it did not, a minimum a-b vertex cut; for edge flows the vertices
    it reached.
    """
    if vertex and bits[a] >> b & 1:
        raise ValueError("a vertex flow needs non-adjacent ends")
    flow = _split_flow if vertex else _edge_flow
    return flow(bits, a, b, len(bits) if limit is None else limit)


def _short_paths(bits: list[int], a: int, b: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The common neighbours w of a and b, and the pairs (x, y) of the greedy
    paths a-x-y-b: x in N(a) \\ N(b) ascending, y the least vertex of
    N(b) \\ N(a) adjacent to x and not yet taken (a and b excluded)."""
    na, nb = bits[a], bits[b]
    pairs = []
    ys = nb & ~na & ~(1 << a)
    for x in _bits_of(na & ~nb & ~(1 << b)):
        y = bits[x] & ys
        if y:
            y &= -y
            ys ^= y
            pairs.append((x, y.bit_length() - 1))
    return _bits_of(na & nb), pairs


def _split_flow(bits: list[int], a: int, b: int, limit: int) -> tuple[int, int | None]:
    # pred[w] is the vertex whose exit sends w's unit to w's entry, -1 when
    # w carries none; state 2v is v's entry, 2v + 1 its exit
    n = len(bits)
    pred = [-1] * n
    common, pairs = _short_paths(bits, a, b)
    for w in common:
        pred[w] = a
    for x, y in pairs:
        pred[x], pred[y] = a, x
    value = len(common) + len(pairs)
    sink = 1 << b
    while value < limit:
        par = [-1] * (2 * n)
        seen_in, seen_out = 0, 1 << a
        queue = [2 * a + 1]
        for s in queue:
            v = s >> 1
            if s & 1:  # exit of v: back into v's own entry, or on along any edge
                if pred[v] >= 0 and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    par[s - 1] = s
                    queue.append(s - 1)
                fresh = bits[v] & ~seen_in
                if fresh & sink:
                    par[2 * b] = s
                    break
                seen_in |= fresh
                for w in _bits_of(fresh):
                    par[2 * w] = s
                    queue.append(2 * w)
            elif v != a:  # entry of v: through v if it is free, else back to its sender
                u = v if pred[v] < 0 else pred[v]
                if not seen_out >> u & 1:
                    seen_out |= 1 << u
                    par[2 * u + 1] = s
                    queue.append(2 * u + 1)
        else:
            return value, seen_in & ~seen_out
        s = 2 * b
        while s != 2 * a + 1:
            p = par[s]
            if not s & 1 and s != 2 * b:  # a unit now enters this entry from p, or none
                pred[s >> 1] = -1 if p == s + 1 else p >> 1
            s = p
        value += 1
    return limit, None


def _edge_flow(bits: list[int], a: int, b: int, limit: int) -> tuple[int, int | None]:
    # sends[u] holds the v with one unit on u -> v
    n = len(bits)
    sends = [0] * n
    sends[a] = bits[a] & 1 << b
    common, pairs = _short_paths(bits, a, b)
    for w in common:
        sends[a] |= 1 << w
        sends[w] = 1 << b
    for x, y in pairs:
        sends[a] |= 1 << x
        sends[x] = 1 << y
        sends[y] = 1 << b
    value = sends[a].bit_count()
    sink = 1 << b
    while value < limit:
        par = [-1] * n
        seen = 1 << a
        queue = [a]
        for u in queue:
            fresh = bits[u] & ~sends[u] & ~seen
            if fresh & sink:
                par[b] = u
                break
            seen |= fresh
            for v in _bits_of(fresh):
                par[v] = u
                queue.append(v)
        else:
            return value, seen
        v = b
        while v != a:
            u = par[v]
            if sends[v] >> u & 1:
                sends[v] ^= 1 << u
            else:
                sends[u] |= 1 << v
            v = u
        value += 1
    return limit, None


def _least_cut(bits: list[int], pairs: Iterable[tuple[int, int]], vertex: bool,
               best: int, cut: int, cls: list[int]) -> tuple[int, int]:
    """The least of the seed `best` and the a-b flows over `pairs`, with its cut.

    The seed is a cut the caller already holds, `cut` as a bitmask.  A pair
    is skipped when its unordered pair of twin classes `cls` was met before,
    or when |N(a) & N(b)| + [a ~ b], a lower bound on its flow (each common
    neighbour w is a path a-w-b, the edge a-b one more), is at least the
    best so far; otherwise its flow stops once it reaches the best.  None
    can strictly improve (twin swaps are automorphisms, so a pair's flow is
    that of the first of its class pair, which left the best at most that),
    and only a strict improvement replaces the best and its cut, so the
    result is the seed, or the cut of the first pair whose flow is least
    and below the seed.  An improving flow ran to a failed search, so it is
    maximum, and its cut is its residual source side (`maximum_flow`), which
    every maximum flow shares: the result does not depend on the paths the
    flows took, nor on which pairs were skipped.  A flow of 0 joins two
    components: its vertex cut is empty, and no edge leaves its side.
    """
    met = set()
    for a, b in pairs:
        orbit = (cls[a], cls[b]) if cls[a] < cls[b] else (cls[b], cls[a])
        if orbit in met:
            continue
        met.add(orbit)
        if (bits[a] & bits[b]).bit_count() + (bits[a] >> b & 1) >= best:
            continue
        value, side = maximum_flow(bits, a, b, vertex, best)
        if value < best:
            best, cut = value, side
    return best, cut


@cached
def vertex_connectivity(graph: Graph) -> VertexConnectivity:
    """Exact vertex connectivity with a minimum-cut witness.

    `_least_cut` over vertex-split flows from a fixed minimum-degree vertex
    s to each of its non-neighbours, then between the non-adjacent pairs of
    its neighbours (Esfahanian & Hakimi), seeded with the cut N(s), one flow
    per twin orbit of pairs: twin swaps preserve local connectivity.  The
    complete graph returns the n-1 convention, a disconnected graph 0 with
    the empty cut.  Computed once per graph.
    """
    n = graph.n
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if graph.is_complete():
        return VertexConnectivity(n - 1, None, True)
    bits = graph.bitmasks()
    s = int(np.argmin(graph.degrees))
    pairs = [(s, t) for t in _bits_of(((1 << n) - 1) & ~bits[s] & ~(1 << s))]
    pairs += [(a, b) for a in _bits_of(bits[s])
              for b in _bits_of(bits[s] & ~bits[a] & -(2 << a))]
    best, cut = _least_cut(bits, pairs, True, bits[s].bit_count(), bits[s],
                           twin_classes(graph)[1])
    return VertexConnectivity(best, VertexCut(tuple(_bits_of(cut))), False)


def edge_connectivity(graph: Graph) -> tuple[int, EdgeCut]:
    """Exact edge connectivity with a minimum-cut witness.

    `_least_cut` over edge flows from vertex 0 to each other vertex, once
    per twin orbit of pairs, seeded with the star of 0, the side {0}.  That
    is also the residual source side of any flow from 0 of value deg(0),
    which saturates every edge at 0, so the seed gives the witness that
    such a flow would.  The witness is the edges that leave the final side;
    a disconnected graph, or one vertex, gives 0 with the empty cut.
    """
    n = graph.n
    if n == 0:
        raise ValueError("edge connectivity of the empty graph is undefined")
    bits = graph.bitmasks()
    best, side = _least_cut(bits, [(0, t) for t in range(1, n)], False, bits[0].bit_count(), 1,
                            twin_classes(graph)[1])
    return best, EdgeCut(tuple(sorted((min(u, w), max(u, w)) for u in _bits_of(side)
                                      for w in _bits_of(bits[u] & ~side))))


# ---------------------------------------------------------------------------
# Eulerian circuits (Hierholzer)


@dataclass(frozen=True)
class EulerResult:
    circuit: EulerCircuit | None
    reason: str | None


def eulerian_circuit(graph: Graph) -> EulerResult:
    """Hierholzer circuit when connected with all degrees even.

    The walk starts at vertex 0, and from each vertex v it takes the least
    neighbour of v whose edge is still unused, so the circuit is a function
    of the graph alone.  Each vertex reads its ascending neighbours once,
    through an iterator over an `array('I')`, so an edge walked from v is
    behind v's iterator; walking it marks it at its far end w in an n*n
    `bytearray`, and w's iterator skips the marked entry when it reaches
    it.  Isolated vertices are not ignored: the input is expected to
    already be a Delta graph, so an isolated vertex means "disconnected".
    """
    n = graph.n
    if n == 0:
        return EulerResult(None, "empty graph is not connected")
    if not _connected(graph):
        return EulerResult(None, "graph is disconnected")
    odd = np.flatnonzero(graph.degrees % 2 == 1)
    if odd.size:
        return EulerResult(None, f"vertex {int(odd[0])} has odd degree {int(graph.degrees[odd[0]])}")
    unwalked = [iter(array("I", np.flatnonzero(row).astype(np.uint32).tobytes()))
                for row in graph.adj]
    walked = bytearray(n * n)  # walked[w*n + v]: the edge {v, w} was walked from v
    stack: list[int] = []  # the walk to v, v excluded
    out: list[int] = []
    v = 0
    while True:
        for w in unwalked[v]:
            if not walked[v * n + w]:
                walked[w * n + v] = 1
                stack.append(v)
                v = w
                break
        else:
            out.append(v)
            if not stack:
                break
            v = stack.pop()
    out.reverse()
    return EulerResult(EulerCircuit(tuple(out)), None)


# ---------------------------------------------------------------------------
# combinatorial bound formulas


def td_bounds(parts: tuple[int, ...]) -> tuple[int, int, int]:
    """(nested-ceiling lower bound, 2^t(s-t+1) upper bound, t) for the
    total domination number of K_{a_1} x ... x K_{a_s}, with the s parts in
    any order.  Sorted ascending, t is the least index with a_i > s - t for
    every i > t.  The parts must be nonempty and all >= 2."""
    parts = sorted(parts)
    if not parts or parts[0] < 2:
        raise ValueError("td_bounds requires a nonempty tuple of parts >= 2")
    val = 1
    for a in reversed(parts):
        val = -((-a * val) // (a - 1))  # ceil(a*val/(a-1)), innermost outward
    s = len(parts)
    t = next(t for t in range(s + 1) if all(a > s - t for a in parts[t:]))
    return val, 2 ** t * (s - t + 1), t


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(graph: Graph, labels: Iterable[str] | None = None) -> str:
    labels = list(labels) if labels is not None else [str(i) for i in range(graph.n)]
    if len(labels) != graph.n:
        raise ValueError("label count mismatch")
    doc = {
        "order": graph.n,
        "vertices": labels,
        "edges": [[u, v] for u, v in sorted(graph.edges())],
    }
    if graph.marks:
        doc["self_dominating"] = sorted(graph.marks)
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)


def _json_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise GengraphError(f"{what} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GengraphError(f"{what} must be a JSON object")
    return doc


def graph_from_json(text: str, max_order: int) -> tuple[Graph, list[str]]:
    """Inverse of graph_to_json; malformed input, or a graph too large for
    memory, raises GengraphError.  An order above `max_order` raises
    OrderGuardError before any n x n matrix is allocated."""
    doc = _json_object(text, "graph")
    n, edges, marks = doc.get("order"), doc.get("edges"), doc.get("self_dominating", [])
    if not (_is_int(n) and _well_formed("edges", edges)
            and _well_formed("self_dominating", marks)):
        raise GengraphError("malformed graph: order must be an int, edges a list of int "
                            "pairs and self_dominating a list of ints")
    if n > max_order:
        raise OrderGuardError(f"graph order {n} exceeds guard {max_order}")
    try:
        graph = Graph.from_edges(n, edges, marks)
    except ValueError as e:
        raise GengraphError(f"malformed graph: {e}") from e
    except MemoryError as e:
        raise GengraphError(f"a graph of order {n} does not fit in memory") from e
    labels = doc.get("vertices", [str(i) for i in range(n)])
    if not (isinstance(labels, list) and len(labels) == n):
        raise GengraphError(f"malformed graph: vertices must be a list of {n} labels")
    return graph, [str(x) for x in labels]


def graph_to_dot(graph: Graph, labels: Iterable[str] | None = None,
                 name: str = "G") -> str:
    labels = list(labels) if labels is not None else [str(i) for i in range(graph.n)]
    lines = [f"graph {json.dumps(name)} {{"]
    for v in range(graph.n):
        lines.append(f'  {v} [label={json.dumps(labels[v])}];')
    for u, v in sorted(graph.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate's fields under their own names, plus its type tag."""
    return {f.name: getattr(cert, f.name) for f in fields(cert)} | {"type": cert.tag}


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), separators=(",", ":"), sort_keys=True)


_CERT_TYPES = {cls.tag: cls for cls in get_args(Certificate)}


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))


def _well_formed(name: str, value) -> bool:
    """Chords are a pair or null, edges a list of pairs, the rest a list of ints."""
    if name in ("chord_odd", "chord_even"):
        return value is None or _is_pair(value)
    entry = _is_pair if name == "edges" else _is_int
    return isinstance(value, list) and all(map(entry, value))


def certificate_from_json(text: str) -> Certificate:
    """Inverse of certificate_to_json; malformed input raises GengraphError."""
    doc = _json_object(text, "certificate")
    tag = doc.get("type")
    cls = _CERT_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise GengraphError(f"unknown certificate type {tag!r}")
    missing = [f.name for f in fields(cls) if f.name not in doc]
    if missing:
        raise GengraphError(f"{tag} certificate lacks {', '.join(missing)}")
    for f in fields(cls):
        if not _well_formed(f.name, doc[f.name]):
            raise GengraphError(f"{tag} certificate has a malformed {f.name}")
    return cls(**{f.name: _tuples(doc[f.name]) for f in fields(cls)})
