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

from .errors import InternalMismatchError, NonIntegralRatioError, NotTwoGeneratedError
from .graphs import Graph, lex_product
from .groups import (
    Group,
    NilpotentStructure,
    coset_section,
    isomorphism,
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    sylow_masks,
)
from .memo import cached


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

    def element_adjacency(self) -> np.ndarray:
        """The edges as a symmetric boolean matrix over the group's elements;
        an edge between two vertices on one element is a diagonal entry."""
        ve = np.asarray(self.vertex_elements, dtype=np.int64)
        u, v = np.nonzero(self.graph.adj)
        adj = np.zeros((self.group.n, self.group.n), dtype=bool)
        adj[ve[u], ve[v]] = True
        return adj


def edge_count(adj: np.ndarray) -> int:
    """The element pairs of an element adjacency; a diagonal entry counts once."""
    return (int(np.count_nonzero(adj)) + int(np.count_nonzero(adj.diagonal()))) // 2


@cached
def generating_graph(G: Group) -> GeneratingGraph:
    """Gamma(G): all elements as vertices, edges the generating pairs.

    Loopless; for a group needing more than two generators this is the null
    graph on |G| vertices.  Built once per group.
    """
    gen = G.generating_pair_matrix().copy()
    marks = np.flatnonzero(gen.diagonal())
    np.fill_diagonal(gen, False)
    return GeneratingGraph(Graph(gen, marks.tolist()), tuple(range(G.n)), G)


@cached
def delta_of(G: Group) -> GeneratingGraph:
    """Delta(G): Gamma(G) induced on its nonisolated vertices.  Built once
    per group."""
    gamma = generating_graph(G).graph
    sub, idx = gamma.induced(np.flatnonzero(gamma.degrees > 0).tolist())
    return GeneratingGraph(sub, tuple(idx.tolist()), G)


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
    Both sides are element adjacency matrices of G, the blocks filled from
    np.triu_indices; passes iff the matrices are equal under the coset
    bijection.  Edge counts are those of the element pair sets.
    """
    delta = delta_of(G).element_adjacency()
    Q, cmap, phi = quotient_mod_frattini(G)
    sec = coset_section(cmap)
    phi_sorted = sorted(phi)
    m = len(phi_sorted)
    qdelta = delta_of(Q)
    cyclic = G.is_cyclic
    prod_graph = lex_product(qdelta.graph, Graph.empty(m))
    # vertex (i, f) of the product -> group element section(coset) * phi_f
    mapped = G.table[np.ix_(sec[list(qdelta.vertex_elements)], phi_sorted)]
    prod = GeneratingGraph(prod_graph, tuple(mapped.ravel().tolist()), G).element_adjacency()
    iu, ju = np.triu_indices(m, 1)
    for qi in qdelta.graph.marks:
        prod[mapped[qi, iu], mapped[qi, ju]] = prod[mapped[qi, ju], mapped[qi, iu]] = True
    passed = np.array_equal(prod, delta)
    detail = "edge sets identical" if passed else (
        f"{edge_count(delta & ~prod)} edges only in Delta, "
        f"{edge_count(prod & ~delta)} only in the product")
    return LexCheckResult(passed, cyclic, m, edge_count(delta),
                          edge_count(prod), detail)


# ---------------------------------------------------------------------------
# coprime product split and bijections


@cached
def coprime_noncyclic_split(G: Group) -> tuple[Group, np.ndarray, Group, np.ndarray] | None:
    """Split nilpotent G as A x B with coprime orders, both noncyclic, via
    Sylow p-parts; returns (A, A-elements, B, B-elements) or None.  Computed
    once per group."""
    masks = sylow_masks(G)
    if masks is None or len(masks) < 2:
        return None
    for p in sorted(masks):
        a_members = np.flatnonzero(masks[p])
        b_members = np.flatnonzero(G.orders % p != 0)  # the Hall p'-subgroup
        # a subgroup is cyclic iff one of its elements has its order
        if (G.orders[a_members].max() < a_members.size
                and G.orders[b_members].max() < b_members.size):
            A, amap = subgroup_as_group(G, a_members.tolist())
            B, bmap = subgroup_as_group(G, b_members.tolist())
            return A, amap, B, bmap
    return None


def gamma_coset_bijection(G: Group, H: Group) -> np.ndarray:
    """A vertex bijection Gamma(G) -> Gamma(H) built from an isomorphism of
    the Frattini quotients plus positional matching inside cosets.

    Requires |G| = |H|, |Frat(G)| = |Frat(H)| and isomorphic quotients;
    raises ValueError otherwise.
    """
    QG, cmapG, phiG = quotient_mod_frattini(G)
    QH, cmapH, phiH = quotient_mod_frattini(H)
    if G.n != H.n or len(phiG) != len(phiH):
        raise ValueError("orders or Frattini orders differ")
    iso = isomorphism(QG, QH)
    # row q lists coset q's elements ascending, as in coset_section; coset
    # q of G goes to coset iso[q] of H, element by element
    rows_G = np.argsort(cmapG, kind="stable").reshape(QG.n, -1)
    rows_H = np.argsort(cmapH, kind="stable").reshape(QH.n, -1)
    out = np.empty(G.n, dtype=np.int64)
    out[rows_G] = rows_H[iso]
    return out
