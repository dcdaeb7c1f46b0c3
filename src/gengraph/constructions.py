"""Explicit certified witnesses: Hamiltonian cycles for cyclic groups,
p-groups and C2-by-p-group products, chord certificates for the product
Hamiltonicity criterion, and the total-domination reduction to
complete-graph products.

Every construction re-verifies through verify_certificate before being
returned; a failed re-verification of a proved construction is a hard
error, while the opportunistic p=2 attempts fall back to search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, NotTwoGeneratedError
from .generating import GeneratingGraph, delta_of
from .graphs import (
    DominatingSet,
    Graph,
    HamCycle,
    HChords,
    MultipartiteParams,
    direct_product,
    td_bounds,
    verify_certificate,
)
from .groups import (
    Group,
    NilpotentStructure,
    _power_orbit,
    coset_section,
    frattini,
    is_generating_pair,
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    sylow_masks,
)
from .search import (
    DEFAULT_BUDGET,
    DominationResult,
    HamiltonianResult,
    SearchBudget,
    hamiltonian,
    total_domination,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Hamiltonian cycles


def _power_cycle(dd: GeneratingGraph) -> HamCycle:
    """The power cycle (1, g, g^2, ...) of the least generator g of a cyclic
    group, as vertices of its Delta; re-verified before return."""
    G = dd.group
    g = int(np.flatnonzero(G.orders == G.n)[0])
    pos = {e: i for i, e in enumerate(dd.vertex_elements)}
    cycle = HamCycle(tuple(pos[e] for e in _power_orbit(G.table, g)))
    _require(dd, cycle, "cyclic power cycle")
    return cycle


def pgroup_hamiltonian(P: Group, a: int, b: int,
                       budget: SearchBudget = DEFAULT_BUDGET
                       ) -> tuple[HamCycle, HChords | None]:
    """Hamiltonian cycle on Delta(P) for a noncyclic 2-generated p-group.

    Concatenates, over the Frattini elements f_1 = 1 < f_2 < ..., the paths
    (b f_i, a f_i, a b f_i, ..., a b^{p-1} f_i, b^2 f_i, a^2 f_i, ...,
    a^{p-1} b^{p-1} f_i).  For odd p the cycle has even length and carries
    the chords {b, ab} at positions (0,2) and {a, ab^2} at positions (1,3).
    For p = 2 the same concatenation is attempted and verified, with a
    search fallback if verification fails.
    """
    st = nilpotent_structure(P)
    if st.r + st.s != 1:
        raise ValueError("not a p-group")
    if P.is_cyclic:
        raise ValueError("p-group construction needs a noncyclic group")
    if not is_generating_pair(P, a, b):
        raise ValueError(f"({a},{b}) is not a generating pair")
    p = (st.cyclic_sylow + st.noncyclic_sylow)[0][0]
    phi = frattini(P, "nilpotentFormula")
    phi_sorted = sorted(phi)
    m = len(phi_sorted)
    k = p * p - 1
    t = P.table
    elements: list[int] = []
    for f in phi_sorted:
        aj = 0
        bj = 0
        for _ in range(1, p):
            aj = int(t[aj, a])
            bj = int(t[bj, b])
            elements.append(int(t[bj, f]))  # b^j f
            cur = aj
            elements.append(int(t[cur, f]))  # a^j f
            for _ in range(1, p):
                cur = int(t[cur, b])  # a^j b^l, then append with f on the right
                elements.append(int(t[cur, f]))
    if len(elements) != m * k:
        raise ConstructionError("path enumeration has the wrong length")
    dd = delta_of(P)
    pos = {e: i for i, e in enumerate(dd.vertex_elements)}
    try:
        cycle = HamCycle(tuple(pos[e] for e in elements))
    except KeyError as e:
        raise ConstructionError(f"path meets an isolated vertex: {e}") from e
    ok = verify_certificate(dd.graph, cycle)
    if not ok:
        if p == 2:
            log.warning("p=2 concatenation failed verification; falling back to search")
            res = hamiltonian(dd.graph, budget)
            if res.status != "yes":
                raise ConstructionError("p=2 fallback search failed")
            return res.cycle, None
        raise ConstructionError("p-group cycle failed re-verification")
    witness = None
    if p % 2 == 1:
        witness = HChords(cycle.vertices, (1, 3), (0, 2))
        if not verify_certificate(dd.graph, witness):
            raise ConstructionError("chord certificate failed re-verification")
    return cycle, witness


def least_generating_pair(G: Group) -> tuple[int, int]:
    """Lexicographically least (a, b) with a < b and ⟨a,b⟩ = G."""
    gen = G.generating_pair_matrix()
    for a in range(G.n):
        row = np.flatnonzero(gen[a, a + 1:])
        if row.size:
            return a, int(row[0]) + a + 1
    raise NotTwoGeneratedError(f"{G.name} has no generating pair")


def h_membership(graph: Graph, cycle: HamCycle) -> HChords | None:
    """Try to witness membership in the chorded-cycle class via this cycle.

    Odd order: membership is automatic, returns a chordless witness.  Even
    order: scans the non-cycle edges for one odd-odd and one even-even
    positioned chord; returns None when this cycle has no such pair, which
    does not refute membership (another cycle might work).
    """
    if not verify_certificate(graph, cycle):
        raise ValueError("invalid Hamiltonian cycle for this graph")
    n = len(cycle.vertices)
    if n % 2 == 1:
        return HChords(cycle.vertices, None, None)
    position = {v: i for i, v in enumerate(cycle.vertices)}
    odd = None
    even = None
    for u, v in graph.edges():
        pu, pv = position[u], position[v]
        if (pu - pv) % n in (1, n - 1):
            continue
        if pu % 2 == 1 and pv % 2 == 1 and odd is None:
            odd = (min(pu, pv), max(pu, pv))
        elif pu % 2 == 0 and pv % 2 == 0 and even is None:
            even = (min(pu, pv), max(pu, pv))
        if odd and even:
            break
    if odd is None or even is None:
        return None
    witness = HChords(cycle.vertices, odd, even)
    if not verify_certificate(graph, witness):
        raise ConstructionError("chord scan produced an invalid witness")
    return witness


def nilpotent_hamiltonian(G: Group, budget: SearchBudget = DEFAULT_BUDGET
                          ) -> HamiltonianResult:
    """Hamiltonian cycle on Delta(G) for a 2-generated nilpotent group.

    Dispatch: cyclic groups use the power cycle; noncyclic p-groups the
    concatenated coset paths; C2 x (odd p-group) the alternating gluing;
    all other shapes fall back to backtracking search over Delta(G) with
    the vertex order induced by the Sylow product decomposition.
    """
    st = nilpotent_structure(G)
    if not st.two_generated:
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    dd = delta_of(G)
    if G.n < 3:
        return HamiltonianResult("no", None, "group of order < 3", 0, False)
    if G.is_cyclic:
        return HamiltonianResult("yes", _power_cycle(dd), None, 0, False)
    primes = [p for p, _ in st.cyclic_sylow] + [q for q, _ in st.noncyclic_sylow]
    if len(primes) == 1:
        a, b = least_generating_pair(G)
        cycle, _ = pgroup_hamiltonian(G, a, b, budget)
        return HamiltonianResult("yes", cycle, None, 0, False)
    masks = sylow_masks(G)
    if 2 in masks and int(masks[2].sum()) == 2 and len(masks) == 2:
        pprime = [p for p in masks if p != 2][0]
        P, pmap = subgroup_as_group(G, np.flatnonzero(masks[pprime]).tolist())
        cycle = _c2p_cycle_in(G, P, pmap, budget)
        return HamiltonianResult("yes", cycle, None, 0, False)
    order = _sylow_vertex_order(G, dd)
    res = hamiltonian(dd.graph, budget, order=order)
    if res.status == "yes":
        _require(dd, res.cycle, "searched cycle")
    return res


def _c2p_cycle_in(G: Group, P: Group, pmap: np.ndarray,
                  budget: SearchBudget) -> HamCycle:
    """The C2 x P gluing realised inside G (G nilpotent, Sylow-2 = C2), with
    P's elements at `pmap`.  With H = (h_11, ..., h_mk) the p-group cycle,
    the cycle is (u_11, ..., u_mk, v_11, ..., v_mk) where u_ij = x^j h_ij and
    v_ij = x^j h_i(j+3), the shift j+3 wrapping inside each block.  G is
    noncyclic, so P is too."""
    x = int(np.flatnonzero(G.orders == 2)[0])
    dd = delta_of(G)
    a, b = least_generating_pair(P)
    hcycle, _ = pgroup_hamiltonian(P, a, b, budget)
    pdelta = delta_of(P)
    h_elems = [int(pmap[pdelta.vertex_elements[v]]) for v in hcycle.vertices]
    stp = nilpotent_structure(P)
    p = (stp.cyclic_sylow + stp.noncyclic_sylow)[0][0]
    k = p * p - 1
    m = len(h_elems) // k
    elements = []
    for j1, h in enumerate(h_elems, start=1):
        elements.append(h if j1 % 2 == 0 else int(G.table[x, h]))
    for i in range(m):
        for j1 in range(1, k + 1):
            h = h_elems[i * k + (j1 - 1 + 3) % k]
            elements.append(h if j1 % 2 == 0 else int(G.table[x, h]))
    pos = {e: i for i, e in enumerate(dd.vertex_elements)}
    try:
        cycle = HamCycle(tuple(pos[e] for e in elements))
        ok = verify_certificate(dd.graph, cycle)
    except KeyError:
        ok = False
    if not ok:
        log.warning("C2 x P gluing failed inside %s; falling back to search", G.name)
        res = hamiltonian(dd.graph, budget)
        if res.status != "yes":
            raise ConstructionError("C2 x P fallback search failed")
        return res.cycle
    return cycle


def _sylow_vertex_order(G: Group, dd: GeneratingGraph) -> list[int]:
    from .groups import sylow_decomposition
    primes, comps = sylow_decomposition(G)
    keys = [tuple(int(comps[dd.vertex_elements[v], j]) for j in range(len(primes)))
            for v in range(dd.graph.n)]
    return sorted(range(dd.graph.n), key=lambda v: (keys[v], v))


def _require(dd: GeneratingGraph, cert, what: str) -> None:
    if not verify_certificate(dd.graph, cert):
        raise ConstructionError(f"{what} failed re-verification on {dd.group.name}")


# ---------------------------------------------------------------------------
# total domination


def _complete_product(parts) -> Graph:
    graph = Graph.complete(parts[0])
    for a in parts[1:]:
        graph = direct_product(graph, Graph.complete(a))
    return graph


@dataclass(frozen=True)
class TDReduction:
    """The reduction data: q_j + 1 part sizes, the chosen enumeration of the
    nontrivial cyclic subgroups of each rank-2 Sylow factor of G/Frat (one
    generator each), and the fixed generators of the cyclic factors."""

    structure: NilpotentStructure
    params: MultipartiteParams
    subgroup_generators: tuple[tuple[int, ...], ...]  # per q_j, in G/Frat
    cyclic_generators: tuple[int, ...]  # per p_i, in G/Frat


def nilpotent_td(G: Group, budget: SearchBudget = DEFAULT_BUDGET
                 ) -> tuple[int, DominatingSet, TDReduction | None, DominationResult | None]:
    """Total domination number of Delta(G) for 2-generated nilpotent G.

    Cyclic groups return 1 with a generator witness.  Otherwise the value is
    computed exactly on K_{q_1+1} x ... x K_{q_s+1}, pruned by td_bounds, and
    the optimal set is lifted through the subgroup identification to G/Frat
    (cyclic coordinates pinned to fixed generators) and then to G by the
    minimal-index coset section; the lifted set is re-verified on Delta(G).
    Returns (gamma_t, witness over Delta(G) vertices, reduction, solver result).
    The result is cached on G per node budget, so the checks that need γt
    share one search.
    """
    key = f"td{budget.max_nodes}"
    if key not in G._cache:
        G._cache[key] = _nilpotent_td(G, budget)
    return G._cache[key]


def _nilpotent_td(G: Group, budget: SearchBudget
                  ) -> tuple[int, DominatingSet, TDReduction | None, DominationResult | None]:
    st = nilpotent_structure(G)
    if not st.two_generated:
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    dd = delta_of(G)
    if G.is_cyclic:
        gens = np.flatnonzero(G.orders == G.n)
        v = dd.vertex_elements.index(int(gens[0]))
        ds = DominatingSet((v,))
        if not verify_certificate(dd.graph, ds):
            raise ConstructionError("generator witness failed re-verification")
        return 1, ds, None, None
    qs = [q for q, _ in st.noncyclic_sylow]
    params = MultipartiteParams(tuple(q + 1 for q in qs))
    lower, upper, _ = td_bounds(params)
    kprod = _complete_product(params.parts)
    res = total_domination(kprod, budget, lower_hint=lower)
    if res.size is None:
        return None, None, None, res
    Q, cmap, _ = quotient_mod_frattini(G)
    sec = coset_section(G, cmap)
    # enumerate the nontrivial cyclic subgroups of each rank-2 Sylow of Q
    sub_gens: list[tuple[int, ...]] = []
    ids, sets, reps = Q._cyclic_data()
    for q in qs:
        members = np.flatnonzero(Q.orders == q)
        seen: dict[int, int] = {}
        gens_q: list[int] = []
        for g in sorted(int(x) for x in members):
            sid = int(ids[g])
            if sid not in seen:
                seen[sid] = g
                gens_q.append(g)
        if len(gens_q) != q + 1:
            raise ConstructionError(
                f"expected {q + 1} cyclic subgroups at prime {q}, found {len(gens_q)}")
        sub_gens.append(tuple(gens_q))
    cyc_gens = []
    for p, _ in st.cyclic_sylow:
        members = np.flatnonzero(Q.orders == p)
        cyc_gens.append(int(members.min()))
    reduction = TDReduction(st, params, tuple(sub_gens), tuple(cyc_gens))
    # lift each tuple to a quotient element, then to G via the section
    lifted = []
    for tup_index in res.witness.vertices:
        qelem = 0
        for j, coord in enumerate(np.unravel_index(tup_index, params.parts)):
            qelem = Q.mul(qelem, sub_gens[j][coord])
        for gq in cyc_gens:
            qelem = Q.mul(qelem, gq)
        lifted.append(int(sec[qelem]))
    pos = {e: i for i, e in enumerate(dd.vertex_elements)}
    ds = DominatingSet(tuple(sorted(pos[e] for e in lifted)))
    if not verify_certificate(dd.graph, ds):
        raise ConstructionError("lifted dominating set failed re-verification")
    return res.size, ds, reduction, res
