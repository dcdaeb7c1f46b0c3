"""Exact graph algorithms and constructors.

Undirected loopless graphs over vertices 0..n-1, stored as a symmetric
boolean adjacency matrix.  Vertices can optionally carry a self-dominating
mark: a marked vertex counts as its own neighbour for total-domination
feasibility only (the graph structure itself stays loopless).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import GengraphError


class Graph:
    """Immutable undirected loopless graph."""

    __slots__ = ("n", "adj", "marks", "_cache")

    def __init__(self, adj: np.ndarray, marks: Iterable[int] = ()):
        adj = np.asarray(adj, dtype=bool)
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
        self._cache: dict[str, object] = {}

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(np.zeros((n, n), dtype=bool))

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
    def degrees(self) -> np.ndarray:
        if "deg" not in self._cache:
            d = self.adj.sum(axis=1).astype(np.int64)
            d.setflags(write=False)
            self._cache["deg"] = d
        return self._cache["deg"]

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adj, 1))
        return list(zip(iu.tolist(), ju.tolist()))

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adj[v])

    def bitmasks(self) -> list[int]:
        """Neighbour sets as Python int bitmasks (for the exact searches)."""
        if "bits" not in self._cache:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._cache["bits"] = [int.from_bytes(row.tobytes(), "little")
                                   for row in packed]
        return self._cache["bits"]

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


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Blocks of the given sizes; edges exactly between distinct blocks."""
    parts = [int(p) for p in parts]
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be nonempty positive sizes")
    n = sum(parts)
    block = np.repeat(np.arange(len(parts)), parts)
    adj = block[:, None] != block[None, :]
    return Graph(adj)


def direct_product(a: Graph, b: Graph) -> Graph:
    """Tensor product: (u1,v1) ~ (u2,v2) iff u1~u2 and v1~v2; index u*|b|+v."""
    return Graph(np.kron(a.adj, b.adj))


def lex_product(a: Graph, b: Graph) -> Graph:
    """Lexicographic product a[b]: adjacency in a, or equal in a and adjacent in b."""
    eye = np.eye(a.n, dtype=bool)
    ones = np.ones((b.n, b.n), dtype=bool)
    return Graph(np.kron(a.adj, ones) | np.kron(eye, b.adj))


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    min_degree: int | None
    is_connected: bool
    component_count: int
    diameter: int | None


def _components(graph: Graph) -> np.ndarray:
    comp = -np.ones(graph.n, dtype=np.int64)
    nxt = 0
    for v in range(graph.n):
        if comp[v] >= 0:
            continue
        comp[v] = nxt
        frontier = np.array([v])
        while frontier.size:
            reach = graph.adj[frontier].any(axis=0)
            fresh = np.flatnonzero(reach & (comp < 0))
            comp[fresh] = nxt
            frontier = fresh
        nxt += 1
    return comp


def basic_metrics(graph: Graph) -> Metrics:
    """Min degree, connectivity, component count, diameter (None if disconnected).

    The empty graph reports min_degree None and is connected=False by
    convention; a single vertex is connected with diameter 0.
    """
    if graph.n == 0:
        return Metrics(None, False, 0, None)
    comp = _components(graph)
    ncomp = int(comp.max()) + 1
    connected = ncomp == 1
    diameter = None
    if connected:
        dist = bfs_distances(graph)
        diameter = int(dist.max())
    return Metrics(int(graph.degrees.min()), connected, ncomp, diameter)


def bfs_distances(graph: Graph) -> np.ndarray:
    """All-pairs distances by layered expansion; -1 encodes unreachable."""
    n = graph.n
    dist = -np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    d = 0
    while frontier.any():
        d += 1
        nxt = (frontier @ graph.adj) & ~reach
        dist[nxt] = d
        reach |= nxt
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class VertexCut:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class EdgeCut:
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EulerCircuit:
    vertices: tuple[int, ...]  # closed walk, first == last unless empty


@dataclass(frozen=True)
class HamCycle:
    vertices: tuple[int, ...]  # each vertex once; wrap edge implied


@dataclass(frozen=True)
class Clique:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]  # class index per vertex


@dataclass(frozen=True)
class DominatingSet:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class HChords:
    """Hamiltonian cycle plus one odd-odd and one even-even chord.

    Chord entries are 0-based positions into the cycle sequence; both are
    None exactly when the cycle has odd length (membership is automatic).
    """

    cycle: tuple[int, ...]
    chord_odd: tuple[int, int] | None
    chord_even: tuple[int, int] | None


Certificate = (VertexCut | EdgeCut | EulerCircuit | HamCycle | Clique
               | Coloring | DominatingSet | HChords)

_CERT_TAGS = {
    VertexCut: "vertex_cut",
    EdgeCut: "edge_cut",
    EulerCircuit: "euler_circuit",
    HamCycle: "ham_cycle",
    Clique: "clique",
    Coloring: "coloring",
    DominatingSet: "dominating_set",
    HChords: "h_chords",
}


def verify_certificate(graph: Graph, cert: Certificate) -> bool:
    """Definitional re-check of a certificate against its graph."""
    if isinstance(cert, VertexCut):
        return _verify_vertex_cut(graph, cert)
    if isinstance(cert, EdgeCut):
        return _verify_edge_cut(graph, cert)
    if isinstance(cert, EulerCircuit):
        return _verify_euler(graph, cert)
    if isinstance(cert, HamCycle):
        return _verify_ham(graph, cert)
    if isinstance(cert, Clique):
        vs = cert.vertices
        return (len(set(vs)) == len(vs)
                and all(0 <= v < graph.n for v in vs)
                and all(graph.adj[u, v] for i, u in enumerate(vs) for v in vs[i + 1:]))
    if isinstance(cert, Coloring):
        if len(cert.colors) != graph.n:
            return False
        cols = np.asarray(cert.colors) if graph.n else np.zeros(0, dtype=np.int64)
        if graph.n and cols.min() < 0:
            return False
        iu, ju = np.nonzero(np.triu(graph.adj, 1))
        return bool((cols[iu] != cols[ju]).all())
    if isinstance(cert, DominatingSet):
        return _verify_domination(graph, cert)
    if isinstance(cert, HChords):
        return _verify_hchords(graph, cert)
    raise TypeError(f"unknown certificate {cert!r}")


def _verify_vertex_cut(graph: Graph, cert: VertexCut) -> bool:
    cut = set(cert.vertices)
    if not all(0 <= v < graph.n for v in cut):
        return False
    rest = [v for v in range(graph.n) if v not in cut]
    if len(rest) < 2:
        return False
    sub, _ = graph.induced(rest)
    return _components(sub).max() >= 1


def _verify_edge_cut(graph: Graph, cert: EdgeCut) -> bool:
    adj = graph.adj.copy()
    for u, v in cert.edges:
        if not (0 <= u < graph.n and 0 <= v < graph.n and adj[u, v]):
            return False
        adj[u, v] = adj[v, u] = False
    if graph.n < 2:
        return False
    return _components(Graph(adj)).max() >= 1


def _verify_euler(graph: Graph, cert: EulerCircuit) -> bool:
    walk = cert.vertices
    m = graph.edge_count
    if m == 0:
        return len(walk) <= 1
    if len(walk) != m + 1 or walk[0] != walk[-1]:
        return False
    seen = set()
    for u, v in zip(walk, walk[1:]):
        if not (0 <= u < graph.n and 0 <= v < graph.n and graph.adj[u, v]):
            return False
        key = (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
    return len(seen) == m


def _verify_ham(graph: Graph, cert: HamCycle) -> bool:
    cyc = cert.vertices
    if len(cyc) != graph.n or graph.n < 3:
        return False
    if sorted(cyc) != list(range(graph.n)):
        return False
    return all(graph.adj[cyc[i], cyc[(i + 1) % graph.n]] for i in range(graph.n))


def _verify_domination(graph: Graph, cert: DominatingSet) -> bool:
    sel = set(cert.vertices)
    if not all(0 <= v < graph.n for v in sel):
        return False
    if graph.n == 0:
        return True
    covered = np.zeros(graph.n, dtype=bool)
    for s in sel:
        covered |= graph.adj[s]
        if s in graph.marks:
            covered[s] = True
    return bool(covered.all())


def _verify_hchords(graph: Graph, cert: HChords) -> bool:
    if not _verify_ham(graph, HamCycle(cert.cycle)):
        return False
    n = len(cert.cycle)
    if n % 2 == 1:
        return cert.chord_odd is None and cert.chord_even is None
    if cert.chord_odd is None or cert.chord_even is None:
        return False
    for chord, parity in ((cert.chord_odd, 1), (cert.chord_even, 0)):
        r, s = chord
        if not (0 <= r < n and 0 <= s < n and r != s):
            return False
        if r % 2 != parity or s % 2 != parity:
            return False
        if (r - s) % n in (1, n - 1):
            return False  # a cycle edge, not a chord
        if not graph.adj[cert.cycle[r], cert.cycle[s]]:
            return False
    return True


# ---------------------------------------------------------------------------
# connectivity via max-flow


@dataclass(frozen=True)
class VertexConnectivity:
    value: int
    cut: VertexCut | None
    complete: bool


def _residual_reachable(cap: csr_matrix, flow: csr_matrix, source: int) -> np.ndarray:
    residual = cap - flow
    residual.eliminate_zeros()
    n = cap.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    stack = [source]
    indptr, indices, data = residual.indptr, residual.indices, residual.data
    while stack:
        u = stack.pop()
        for k in range(indptr[u], indptr[u + 1]):
            if data[k] > 0 and not seen[indices[k]]:
                seen[indices[k]] = True
                stack.append(indices[k])
    return seen


def vertex_connectivity(graph: Graph) -> VertexConnectivity:
    """Exact vertex connectivity with a minimum-cut witness.

    Vertex-split max-flow from a fixed minimum-degree vertex to each of its
    non-neighbours, then between non-adjacent pairs of its neighbours; the
    complete graph returns the n-1 convention, a disconnected graph 0 with
    the empty cut.
    """
    n = graph.n
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if graph.is_complete():
        return VertexConnectivity(n - 1, None, True)
    comp = _components(graph)
    if comp.max() >= 1:
        return VertexConnectivity(0, VertexCut(()), False)

    big = n + 1
    rows, cols, cap = [], [], []
    for v in range(n):
        rows += [2 * v, 2 * v + 1]
        cols += [2 * v + 1, 2 * v]
        cap += [1, 0]
    for u, v in graph.edges():
        rows += [2 * u + 1, 2 * v, 2 * v + 1, 2 * u]
        cols += [2 * v, 2 * u + 1, 2 * u, 2 * v + 1]
        cap += [big, 0, big, 0]
    net = csr_matrix((np.array(cap, dtype=np.int32),
                      (np.array(rows), np.array(cols))), shape=(2 * n, 2 * n))

    degs = graph.degrees
    s = int(np.lexsort((np.arange(n), degs))[0])
    best = int(degs[s])
    best_cut = tuple(sorted(graph.neighbors(s).tolist()))

    def try_pair(a: int, b: int):
        nonlocal best, best_cut
        res = maximum_flow(net, 2 * a + 1, 2 * b)
        if res.flow_value < best:
            best = int(res.flow_value)
            seen = _residual_reachable(net, res.flow, 2 * a + 1)
            cut = tuple(v for v in range(n) if seen[2 * v] and not seen[2 * v + 1])
            best_cut = cut

    nonneighbors = [t for t in range(n)
                    if t != s and not graph.adj[s, t]]
    for t in nonneighbors:
        try_pair(s, t)
    nbrs = graph.neighbors(s).tolist()
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1:]:
            if not graph.adj[u, v]:
                try_pair(u, v)
    return VertexConnectivity(best, VertexCut(best_cut), False)


def edge_connectivity(graph: Graph) -> tuple[int, EdgeCut]:
    """Exact edge connectivity via fixed-source edge max-flows."""
    n = graph.n
    if n == 0:
        raise ValueError("edge connectivity of the empty graph is undefined")
    if n == 1:
        return 0, EdgeCut(())
    comp = _components(graph)
    if comp.max() >= 1:
        return 0, EdgeCut(())
    rows, cols, cap = [], [], []
    for u, v in graph.edges():
        rows += [u, v]
        cols += [v, u]
        cap += [1, 1]
    net = csr_matrix((np.array(cap, dtype=np.int32),
                      (np.array(rows), np.array(cols))), shape=(n, n))
    best = None
    best_cut: tuple = ()
    for t in range(1, n):
        res = maximum_flow(net, 0, t)
        if best is None or res.flow_value < best:
            best = int(res.flow_value)
            seen = _residual_reachable(net, res.flow, 0)
            best_cut = tuple(sorted(
                (min(u, v), max(u, v)) for u, v in graph.edges()
                if seen[u] != seen[v]))
    return best, EdgeCut(best_cut)


# ---------------------------------------------------------------------------
# Eulerian circuits (Hierholzer)


@dataclass(frozen=True)
class EulerResult:
    circuit: EulerCircuit | None
    reason: str | None


def eulerian_circuit(graph: Graph) -> EulerResult:
    """Hierholzer circuit when connected with all degrees even.

    Isolated vertices are not ignored: the input is expected to already be a
    Delta graph, so an isolated vertex means "disconnected".
    """
    if graph.n == 0:
        return EulerResult(None, "empty graph is not connected")
    comp = _components(graph)
    if comp.max() >= 1:
        return EulerResult(None, "graph is disconnected")
    odd = np.flatnonzero(graph.degrees % 2 == 1)
    if odd.size:
        return EulerResult(None, f"vertex {int(odd[0])} has odd degree {int(graph.degrees[odd[0]])}")
    if graph.edge_count == 0:
        return EulerResult(EulerCircuit((0,) if graph.n else ()), None)
    nbr = {v: sorted(graph.neighbors(v).tolist(), reverse=True) for v in range(graph.n)}
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
    return EulerResult(EulerCircuit(tuple(out)), None)


# ---------------------------------------------------------------------------
# combinatorial bound formulas


@dataclass(frozen=True)
class MultipartiteParams:
    """Ascending part sizes with the threshold index t of the upper bound."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("parts must be nonempty")
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be >= 1")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("parts must be sorted ascending")

    @property
    def s(self) -> int:
        return len(self.parts)

    @property
    def t(self) -> int:
        s = self.s
        for t in range(s + 1):
            if all(self.parts[i] > s - t for i in range(t, s)):
                return t
        return s


def td_bounds(params: MultipartiteParams) -> tuple[int, int, int]:
    """(nested-ceiling lower bound, 2^t(s-t+1) upper bound, t) for the
    total domination number of K_{a_1} x ... x K_{a_s}; parts must be >= 2."""
    parts = params.parts
    if any(a < 2 for a in parts):
        raise ValueError("td_bounds requires all parts >= 2")
    val = 1
    for a in reversed(parts):
        val = -((-a * val) // (a - 1))  # ceil(a*val/(a-1)), innermost outward
    t = params.t
    upper = (2 ** t) * (params.s - t + 1)
    return val, upper, t


def kappa_product_formula(kappa_gamma: int, delta_gamma: int,
                          params: MultipartiteParams) -> int:
    """min(kappa*sum(t_i), delta*sum(t_i, i<u)) under the stated hypotheses:
    u >= 3, parts ascending, sum of first u-2 >= t_{u-1}, sum of first u-1 >= t_u."""
    t = params.parts
    u = len(t)
    if u < 3:
        raise ValueError("formula requires u >= 3 parts")
    if sum(t[:u - 2]) < t[u - 2]:
        raise ValueError("precondition sum(t_1..t_{u-2}) >= t_{u-1} fails")
    if sum(t[:u - 1]) < t[u - 1]:
        raise ValueError("precondition sum(t_1..t_{u-1}) >= t_u fails")
    return min(kappa_gamma * sum(t), delta_gamma * sum(t[:u - 1]))


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


def graph_from_json(text: str) -> tuple[Graph, list[str]]:
    """Inverse of graph_to_json; malformed input raises GengraphError."""
    doc = _json_object(text, "graph")
    try:
        n = int(doc["order"])
        labels = [str(x) for x in doc.get("vertices", [str(i) for i in range(n)])]
        graph = Graph.from_edges(n, [tuple(e) for e in doc["edges"]],
                                 doc.get("self_dominating", ()))
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise GengraphError(f"malformed graph: {type(e).__name__}: {e}") from e
    return graph, labels


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


def certificate_to_json(cert: Certificate) -> str:
    """The certificate's fields under their own names, plus its type tag."""
    body = {f.name: getattr(cert, f.name) for f in fields(cert)}
    body["type"] = _CERT_TAGS[type(cert)]
    return json.dumps(body, separators=(",", ":"), sort_keys=True)


_CERT_TYPES = {tag: cls for cls, tag in _CERT_TAGS.items()}


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


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
    return cls(**{f.name: _tuples(doc[f.name]) for f in fields(cls)})
