"""Generating graphs Gamma(G) and Delta(G), degree censuses, and the
structural identities that relate them to the Frattini quotient.

Adjacency always comes from subgroup closure; the closed-form degree and
count formulas are verification targets, never the source of graph edges.
Each identity compares Gamma(G)'s matrix, which holds Delta(G)'s edges,
with Gamma of the Frattini quotient or coprime factors lifted to G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GengraphError, NonIntegralRatioError, NotTwoGeneratedError
from .graphs import Graph
from .groups import (
    Group,
    NilpotentStructure,
    is_two_generated,
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


def edge_count(adj: np.ndarray) -> int:
    """The edges of a loopless symmetric boolean adjacency matrix."""
    return int(np.count_nonzero(adj)) // 2


@cached
def generating_graph(G: Group) -> GeneratingGraph:
    """Gamma(G): all elements as vertices, edges the generating pairs.

    Loopless; for a group needing more than two generators this is the null
    graph on |G| vertices.  Built once per group.
    """
    ids = G._cyclic_data()[0]
    gen = G.generating_pair_matrix()[np.ix_(ids, ids)]
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
    observed_degree: int | None  # None when the members' degrees differ
    alpha: int
    beta: int
    epsilon: int


@dataclass(frozen=True)
class DegreeProfile:
    classes: tuple[ProfileClass, ...]
    gen_probability: Fraction
    gen_probability_observed: Fraction
    nonisolated_count: int
    nonisolated_observed: int
    min_degree: int
    min_degree_observed: int

    @property
    def holds(self) -> bool:
        """Whether every observed value equals its closed-form value."""
        return (all(c.observed_count == c.alpha and c.observed_degree == c.beta
                    for c in self.classes)
                and self.gen_probability_observed == self.gen_probability
                and self.nonisolated_observed == self.nonisolated_count
                and self.min_degree_observed == self.min_degree)


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

    Classes are keyed by the exact order of g*Frat(G) in G/Frat(G).  The
    census is recorded as observed, next to each formula value; `holds`
    says whether they agree.  The identities are proved for nilpotent
    2-generated groups, so a mismatch falsifies the implementation.  The
    trivial group is outside the formulas.
    """
    if G.n == 1:
        raise GengraphError(f"{G.name}: trivial group, outside the formulas")
    st = nilpotent_structure(G)
    if not is_two_generated(G):
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
        eps = 1 if st.is_cyclic and len(subset) == st.r else 0
        classes.append(ProfileClass(subset, target, len(members),
                                    degs.pop() if len(degs) == 1 else None,
                                    formula_alpha(st, subset),
                                    formula_beta(st, subset), eps))
    ordered_pairs = 2 * gg.graph.edge_count + len(gg.graph.marks)
    pos = degrees[degrees > 0]
    return DegreeProfile(tuple(classes),
                         formula_gen_probability(st), Fraction(ordered_pairs, G.n * G.n),
                         formula_nonisolated(st), int(pos.size),
                         formula_min_degree(st), int(pos.min()) if pos.size else 0)


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
    delta_edges: int
    product_edges: int
    detail: str


def lex_decomposition_check(G: Group) -> LexCheckResult:
    """Compare Delta(G) with the Frattini blow-up of Delta(G/Frat), both as
    adjacency matrices over G's elements: Gamma(G)'s, and the lift below.

    The blow-up lifts Gamma(Q), Q = G/Frat, along the coset map: g ~ h iff
    their cosets are adjacent, or g != h lie in one coset of a
    self-generating element of Q.  For noncyclic G no element is
    self-generating, so this is the plain null blow-up; for cyclic G the
    blocks over generator cosets are complete while the Frattini block (the
    identity coset) stays edgeless.  Edge counts are those of the element
    pair sets.
    """
    delta = generating_graph(G).graph.adj
    Q, cmap, _ = quotient_mod_frattini(G)
    gq = generating_graph(Q).graph
    lift = gq.adj[np.ix_(cmap, cmap)]
    lift |= (cmap[:, None] == cmap) & np.isin(cmap, list(gq.marks))[:, None]
    np.fill_diagonal(lift, False)
    passed = np.array_equal(lift, delta)
    detail = "edge sets identical" if passed else (
        f"{edge_count(delta & ~lift)} edges only in Delta, "
        f"{edge_count(lift & ~delta)} only in the product")
    return LexCheckResult(passed, edge_count(delta), edge_count(lift), detail)


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
    # row q lists coset q's elements ascending; coset q of G goes to coset
    # iso[q] of H, element by element
    rows_G = np.argsort(cmapG, kind="stable").reshape(QG.n, -1)
    rows_H = np.argsort(cmapH, kind="stable").reshape(QH.n, -1)
    out = np.empty(G.n, dtype=np.int64)
    out[rows_G] = rows_H[iso]
    return out
