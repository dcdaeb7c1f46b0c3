"""Generating graphs Gamma(G) and Delta(G), degree censuses, and the
structural identities that relate them to the Frattini quotient.

Adjacency always comes from subgroup closure; the closed-form degree and
count formulas are verification targets, never the source of graph edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .build import _mixed_radix_coords, build_group, odd_primes
from .errors import (
    InternalMismatchError,
    NonIntegralRatioError,
    NotTwoGeneratedError,
    OrderGuardError,
)
from .graphs import Graph, lex_product
from .groups import (
    Group,
    NilpotentStructure,
    coset_section,
    nilpotent_structure,
    p_part,
    quotient_mod_frattini,
    sylow_masks,
)


@dataclass(frozen=True)
class GeneratingGraph:
    """A graph over (a subset of) the elements of a group.

    vertex_elements maps graph vertices to group element indices; the
    graph's self-dominating marks sit on exactly the single-element
    generators (nonempty only for cyclic groups).
    """

    graph: Graph
    vertex_elements: tuple[int, ...]
    group: Group

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.labels[e] for e in self.vertex_elements)

    def element_edges(self) -> set[tuple[int, int]]:
        """The edges as (smaller, larger) pairs of group elements."""
        ve = self.vertex_elements
        return {(min(ve[u], ve[v]), max(ve[u], ve[v])) for u, v in self.graph.edges()}


def generating_graph(G: Group) -> GeneratingGraph:
    """Gamma(G): all elements as vertices, edges the generating pairs.

    Loopless; for a group needing more than two generators this is the null
    graph on |G| vertices.
    """
    gen = G.generating_pair_matrix().copy()
    marks = np.flatnonzero(gen.diagonal())
    np.fill_diagonal(gen, False)
    graph = Graph(gen, marks.tolist())
    return GeneratingGraph(graph, tuple(range(G.n)), G)


def delta_graph(gg: GeneratingGraph) -> GeneratingGraph:
    """Delta: the induced subgraph on the nonisolated vertices."""
    keep = np.flatnonzero(gg.graph.degrees > 0)
    sub, idx = gg.graph.induced(keep.tolist())
    elements = tuple(gg.vertex_elements[int(v)] for v in idx)
    return GeneratingGraph(sub, elements, gg.group)


def delta_of(G: Group) -> GeneratingGraph:
    return delta_graph(generating_graph(G))


# ---------------------------------------------------------------------------
# Remark-2.7-style formulas and the observed census


@dataclass(frozen=True)
class ProfileClass:
    """One coset-order class: elements g with |Frat(G)g| = prod_I p_i * prod q_j."""

    subset: tuple[int, ...]  # the primes p_i included in I
    coset_order: int
    observed_count: int
    observed_degree: int
    alpha: int
    beta: int
    epsilon: int


@dataclass(frozen=True)
class DegreeProfile:
    structure: NilpotentStructure
    classes: tuple[ProfileClass, ...]
    gen_probability: Fraction
    gen_probability_observed: Fraction
    nonisolated_count: int
    nonisolated_observed: int
    min_degree: int
    min_degree_observed: int


def formula_gen_probability(st: NilpotentStructure) -> Fraction:
    out = Fraction(1)
    for p, _ in st.cyclic_sylow:
        out *= 1 - Fraction(1, p * p)
    for q, _ in st.noncyclic_sylow:
        out *= (1 - Fraction(1, q * q)) * (1 - Fraction(1, q))
    return out


def formula_nonisolated(st: NilpotentStructure) -> int:
    out = Fraction(st.order)
    for q, _ in st.noncyclic_sylow:
        out *= 1 - Fraction(1, q * q)
    assert out.denominator == 1
    return int(out)


def formula_alpha(st: NilpotentStructure, subset: tuple[int, ...]) -> int:
    out = Fraction(st.order)
    for p, _ in st.cyclic_sylow:
        out *= (1 - Fraction(1, p)) if p in subset else Fraction(1, p)
    for q, _ in st.noncyclic_sylow:
        out *= 1 - Fraction(1, q * q)
    assert out.denominator == 1
    return int(out)


def formula_beta(st: NilpotentStructure, subset: tuple[int, ...]) -> int:
    out = Fraction(st.order)
    for p, _ in st.cyclic_sylow:
        if p not in subset:
            out *= 1 - Fraction(1, p)
    for q, _ in st.noncyclic_sylow:
        out *= 1 - Fraction(1, q)
    eps = 1 if st.is_cyclic and len(subset) == st.r else 0
    assert out.denominator == 1
    return int(out) - eps


def formula_min_degree(st: NilpotentStructure) -> int:
    return formula_beta(st, ())


def degree_profile(G: Group) -> DegreeProfile:
    """Observed degree census of Gamma(G) against the closed-form values.

    Classes are keyed by the exact order of g*Frat(G) in G/Frat(G).  Any
    observed/formula mismatch raises InternalMismatchError: the identities
    are proved for nilpotent 2-generated groups, so a mismatch falsifies
    the implementation.
    """
    st = nilpotent_structure(G)
    if not st.two_generated:
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    gg = generating_graph(G)
    degrees = gg.graph.degrees
    Q, cmap, _ = quotient_mod_frattini(G)
    coset_orders = Q.orders[cmap]
    qfull = math.prod(q for q, _ in st.noncyclic_sylow)
    classes = []
    for bits in range(1 << st.r):
        subset = tuple(p for i, (p, _) in enumerate(st.cyclic_sylow) if bits >> i & 1)
        target = qfull * math.prod(subset) if subset else qfull
        members = np.flatnonzero(coset_orders == target)
        # distinct subsets give distinct orders, so the class is well defined
        degs = set(int(degrees[m]) for m in members)
        if len(degs) != 1:
            raise InternalMismatchError(
                f"{G.name}: class {subset} has mixed degrees {sorted(degs)}")
        observed_degree = degs.pop()
        alpha = formula_alpha(st, subset)
        beta = formula_beta(st, subset)
        eps = 1 if st.is_cyclic and len(subset) == st.r else 0
        if len(members) != alpha:
            raise InternalMismatchError(
                f"{G.name}: class {subset} count {len(members)} != alpha {alpha}")
        if observed_degree != beta:
            raise InternalMismatchError(
                f"{G.name}: class {subset} degree {observed_degree} != beta {beta}")
        classes.append(ProfileClass(subset, target, len(members),
                                    observed_degree, alpha, beta, eps))
    ordered_pairs = 2 * gg.graph.edge_count + len(gg.graph.marks)
    p_obs = Fraction(ordered_pairs, G.n * G.n)
    p_formula = formula_gen_probability(st)
    if p_obs != p_formula:
        raise InternalMismatchError(
            f"{G.name}: P(2) observed {p_obs} != formula {p_formula}")
    v_obs = int((degrees > 0).sum())
    v_formula = formula_nonisolated(st)
    if v_obs != v_formula:
        raise InternalMismatchError(
            f"{G.name}: |V(Delta)| observed {v_obs} != formula {v_formula}")
    pos = degrees[degrees > 0]
    d_obs = int(pos.min()) if pos.size else 0
    d_formula = formula_min_degree(st)
    if v_obs and d_obs != d_formula:
        raise InternalMismatchError(
            f"{G.name}: min degree observed {d_obs} != formula {d_formula}")
    return DegreeProfile(st, tuple(classes), p_formula, p_obs,
                         v_formula, v_obs, d_formula, d_obs)


def recover_cyclic_radical(gg: GeneratingGraph) -> int:
    """|nonisolated| / |minimum-degree vertices| as an exact integer.

    For a noncyclic nilpotent 2-generated group this equals the product of
    the primes with cyclic Sylow subgroups (empty product 1); a non-integral
    ratio signals non-nilpotent input and raises.
    """
    degrees = gg.graph.degrees
    pos = degrees[degrees > 0]
    if pos.size == 0:
        raise NonIntegralRatioError("graph has no nonisolated vertices")
    dmin = int(pos.min())
    num = int(pos.size)
    den = int((degrees == dmin).sum())
    if num % den:
        raise NonIntegralRatioError(f"ratio {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# Example-family graphs built from the stated rules (no Cayley table)


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
    coords = _mixed_radix_coords(nn, radices)
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
# lexicographic decomposition check (Frattini blow-up identity)


@dataclass(frozen=True)
class LexCheckResult:
    passed: bool
    cyclic_case: bool
    phi_order: int
    delta_edges: int
    product_edges: int
    detail: str


def lex_decomposition_check(G: Group) -> LexCheckResult:
    """Compare Delta(G) against the Frattini blow-up built via lex_product.

    The blow-up is Delta(G/Frat)[null_{|Frat|}] plus a complete block over
    every self-generating quotient vertex.  For noncyclic G no vertex is
    self-generating, so this is the plain null blow-up; for cyclic G the
    blocks over generator cosets are complete while the Frattini block (the
    identity coset, never self-generating) stays edgeless, which is the
    blow-up with deleted Frattini-internal edges in the prime-power case.
    Passes iff the edge sets coincide exactly under the coset bijection.
    """
    delta_edges = delta_of(G).element_edges()
    Q, cmap, phi = quotient_mod_frattini(G)
    sec = coset_section(G, cmap)
    phi_sorted = sorted(phi.indices)
    m = len(phi_sorted)
    qdelta = delta_of(Q)
    cyclic = G.is_cyclic
    prod = lex_product(qdelta.graph, Graph.empty(m))
    # vertex (i, f) of the product -> group element section(coset) * phi_f
    mapped = []
    for qv in qdelta.vertex_elements:
        rep = int(sec[qv])
        for f in phi_sorted:
            mapped.append(int(G.table[rep, f]))
    prod_edges = GeneratingGraph(prod, tuple(mapped), G).element_edges()
    for qi, qv in enumerate(qdelta.vertex_elements):
        if qi in qdelta.graph.marks:
            block = mapped[qi * m:(qi + 1) * m]
            prod_edges.update((min(a, b), max(a, b))
                              for i, a in enumerate(block) for b in block[i + 1:])
    passed = prod_edges == delta_edges
    detail = "edge sets identical" if passed else (
        f"{len(delta_edges - prod_edges)} edges only in Delta, "
        f"{len(prod_edges - delta_edges)} only in the product")
    return LexCheckResult(passed, cyclic, m, len(delta_edges),
                          len(prod_edges), detail)


# ---------------------------------------------------------------------------
# componentwise generation criterion on the Frattini quotient


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
        ids, _, _ = Q._cyclic_data()
        sub = ids[part]
        trivial = part == 0
        ok &= ~trivial[:, None] & ~trivial[None, :] & (sub[:, None] != sub[None, :])
    np.fill_diagonal(ok, False)
    # the rule describes generation of Q itself; pairs where g = h never count
    return ok


# ---------------------------------------------------------------------------
# coprime product split and bijections


def coprime_noncyclic_split(G: Group) -> tuple[Group, np.ndarray, Group, np.ndarray] | None:
    """Split nilpotent G as A x B with coprime orders, both noncyclic, via
    Sylow p-parts; returns (A, A-elements, B, B-elements) or None.  Memoised
    per group."""
    key = "coprime_split"
    if key not in G._cache:
        G._cache[key] = _coprime_noncyclic_split(G)
    return G._cache[key]


def _coprime_noncyclic_split(G: Group) -> tuple[Group, np.ndarray, Group, np.ndarray] | None:
    masks = sylow_masks(G)
    if masks is None or len(masks) < 2:
        return None
    from .groups import subgroup_as_group
    for p in sorted(masks):
        a_members = np.flatnonzero(masks[p])
        b_members = np.flatnonzero(G.orders % p != 0)  # the Hall p'-subgroup
        A, amap = subgroup_as_group(G, a_members.tolist())
        B, bmap = subgroup_as_group(G, b_members.tolist())
        if not A.is_cyclic and not B.is_cyclic:
            return A, amap, B, bmap
    return None


def gamma_coset_bijection(G: Group, H: Group) -> np.ndarray:
    """A vertex bijection Gamma(G) -> Gamma(H) built from an isomorphism of
    the Frattini quotients plus positional matching inside cosets.

    Requires |G| = |H|, |Frat(G)| = |Frat(H)| and isomorphic squarefree
    quotients; raises ValueError otherwise.
    """
    from .groups import abelian_squarefree_iso
    QG, cmapG, phiG = quotient_mod_frattini(G)
    QH, cmapH, phiH = quotient_mod_frattini(H)
    if G.n != H.n or phiG.size != phiH.size:
        raise ValueError("orders or Frattini orders differ")
    iso = abelian_squarefree_iso(QG, QH)
    # enumerate each coset's elements ascending and match positionally
    cosets_G: dict[int, list[int]] = {}
    for g in range(G.n):
        cosets_G.setdefault(int(cmapG[g]), []).append(g)
    cosets_H: dict[int, list[int]] = {}
    for h in range(H.n):
        cosets_H.setdefault(int(cmapH[h]), []).append(h)
    out = np.empty(G.n, dtype=np.int64)
    for qg, members in cosets_G.items():
        targets = cosets_H[int(iso[qg])]
        for a, b in zip(sorted(members), sorted(targets)):
            out[a] = b
    return out
