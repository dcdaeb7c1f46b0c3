"""Certified witnesses on Delta(G) of a nilpotent group: Hamiltonian cycles
for every 2-generated nilpotent group, built without search, chord
certificates for the product Hamiltonicity criterion, and the total
domination number, by exact search on Delta(G) itself.

A nilpotent group is the product of its Sylow subgroups, and Delta of a
coprime product is the Kronecker product of its factors' generation
relations; nilpotent_hamiltonian folds the Sylow cycles by explicit 2-opt
merges (Weichsel 1962, *The Kronecker product of graphs*, made explicit).

Every reported witness is re-verified in one place, `verify.run_check` (the
CLI checks what it prints), so nilpotent_hamiltonian returns its cycle
unverified; nilpotent_td verifies its set before it memoises it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError, NotTwoGeneratedError
from .generating import delta_of
from .graphs import (
    Graph,
    HamCycle,
    HChords,
    td_bounds,
    verify_certificate,
)
from .groups import (
    Group,
    _closure_members,
    frattini,
    is_two_generated,
    nilpotent_structure,
    radical,
    sylow_masks,
)
from .memo import cached
from .search import (
    DEFAULT_BUDGET,
    DominationResult,
    HamiltonianResult,
    total_domination,
)


# ---------------------------------------------------------------------------
# Hamiltonian cycles


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


def nilpotent_hamiltonian(G: Group) -> HamiltonianResult:
    """Hamiltonian cycle on Delta(G) for a 2-generated nilpotent group.

    A cyclic group is one factor, its power cycle.  Every other group folds
    the cycles of its Sylow subgroups (`_sylow_cycle`), the 2-part first and
    then the odd primes in ascending order; a p-group is one factor.

    For A and B of coprime orders, Delta(A x B) is the Kronecker product of
    the generation relations of A and B, in which (a, b) has a loop when a
    and b generate their factors alone.  So for cycles x of Delta(A) and y
    of Delta(B), (x_t, y_j) ~ (x_{t+1}, y_{j+1}).  With m = |x|, k = |y|
    and d = gcd(m, k), the diagonals D_s = ((x_t, y_{t+s}))_t, s mod d,
    cover the product with d cycles.  D_s and D_{s+2} merge by one 2-opt
    on cycle edges of x and y: remove (x_0 y_{s+2}, x_1 y_{s+3}) and
    (x_1 y_{s+1}, x_2 y_{s+2}), add (x_0 y_{s+2}, x_1 y_{s+1}) and
    (x_1 y_{s+3}, x_2 y_{s+2}).  For odd d the chain s = 0, 2, 4, ...
    reaches every diagonal.  For even d the chains from 0 and from 1 leave
    one cycle per parity of s, and y's chords y_0 y_2 and y_1 y_3 cross
    them: remove (x_t y_0, x_{t+1} y_1) and (x_{t+1} y_2, x_{t+2} y_3), add
    (x_t y_0, x_{t+1} y_2) and (x_{t+1} y_1, x_{t+2} y_3), with t = 2 when
    m >= 4, clear of the chains' edges at t = 0 and 1, and t = 0 when
    m = 2, where there is no chain.  A crossing always exists: by the fold
    order every y is an odd-prime Sylow, so a cyclic y has odd length and
    makes d odd, and a noncyclic y is `_sylow_cycle`'s concatenation, whose
    chords sit at positions (0, 2) and (1, 3).  C2 enters as the closed
    walk (1, x), the one factor of length 2.

    Nothing is searched, and the cycle is returned unverified: its
    callers verify it on Delta(G).
    """
    nilpotent_structure(G)  # raises NotNilpotentError
    if not is_two_generated(G):
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    dd = delta_of(G)
    if G.n < 3:
        return HamiltonianResult("no", None, "group of order < 3", 0)
    if G.is_cyclic:
        factors, phi = [np.arange(G.n)], frozenset()
    else:
        factors = [np.flatnonzero(mask) for _, mask in sorted(sylow_masks(G).items())]
        phi = frattini(G)
    walk: list[int] = []
    for members in factors:
        cycle = _sylow_cycle(G, members, phi)
        walk = _fold(G.table, walk, cycle) if walk else cycle
    pos = {e: i for i, e in enumerate(dd.vertex_elements)}
    try:
        cycle = HamCycle(tuple(pos[e] for e in walk))
    except KeyError as e:
        raise ConstructionError(f"Sylow product meets an isolated vertex: {e}") from e
    return HamiltonianResult("yes", cycle, None, 0)


def _sylow_cycle(G: Group, members: np.ndarray, phi: frozenset[int]) -> list[int]:
    """The subgroup P of G on `members`, cyclic or a p-group, as G's
    elements along a Hamiltonian cycle of Delta(P); phi is Φ(G).

    A cyclic P gives the power orbit (1, g, g^2, ...) of its least
    generator g.  A noncyclic P gives, over its Frattini elements
    f_1 = 1 < f_2 < ..., the concatenation of the paths
    (b f, a f, a b f, ..., a b^{p-1} f, b^2 f, a^2 f, ..., a^{p-1} b^{p-1} f),
    with (a, b) the least pair of P that generates it.

    The concatenation is a cycle of Delta(P) for every p, p = 2 included.
    A pair generates P exactly when its images generate P/Φ(P) = C_p^2, and
    two nontrivial elements of C_p^2 generate it exactly when they lie on
    distinct lines, of the p + 1 subgroups of order p.  So Delta(P) is the
    complete (p+1)-partite blow-up of Delta(P/Φ(P)), one part per line.
    Write a^j b^l f as (j, l): the walk meets every element of P outside
    Φ(P) once, and consecutive entries, (0, j) then (j, 0), (j, l) then
    (j, l+1) for j != 0, (j, p-1) then (0, j+1), and (p-1, p-1) then
    (0, 1), always lie on distinct lines.  For odd p the chords b ~ ab and
    a ~ ab^2 sit at positions (0, 2) and (1, 3).

    Φ(P) = Φ(G) ∩ P: G is the direct product of P and its Hall
    p'-subgroup, and Φ of a direct product is the product of the factors'
    Φ.  Elements of Φ(P) lie in no generating pair, so the pair search
    skips them.
    """
    gens = members[G.orders[members] == members.size]
    if gens.size:
        return G.powers()[:members.size, gens[0]].tolist()
    t = G.table
    rest = [g for g in members.tolist() if g not in phi]
    a, b = next((a, b) for i, a in enumerate(rest) for b in rest[i + 1:]
                if len(_closure_members(t, (a, b))) == members.size)
    p = radical(members.size)
    walk: list[int] = []
    for f in sorted(phi.intersection(members.tolist())):
        aj = bj = 0
        for _ in range(1, p):
            aj, bj = int(t[aj, a]), int(t[bj, b])
            cur = aj
            walk += [int(t[bj, f]), int(t[cur, f])]
            for _ in range(1, p):
                cur = int(t[cur, b])
                walk.append(int(t[cur, f]))
    return walk


def _fold(table: np.ndarray, x: list[int], y: list[int]) -> list[int]:
    """The cycle of Delta(A x B) that nilpotent_hamiltonian describes, from
    the cycles x of Delta(A) and y of Delta(B), as the products x_t y_j."""
    m, k = len(x), len(y)
    d = math.gcd(m, k)

    def cell(i: int, j: int) -> int:
        return i % m * k + j % k

    nbr = [[cell(i + 1, j + 1), cell(i - 1, j - 1)] for i in range(m) for j in range(k)]

    def two_opt(a: int, b: int, c: int, e: int) -> None:
        """Replace the edges a-b and c-e by a-c and b-e."""
        for u, old, new in ((a, b, c), (b, a, e), (c, e, a), (e, c, b)):
            nbr[u][nbr[u].index(old)] = new

    for s in range(0, 2 * d - 2, 2) if d % 2 else range(d - 2):
        two_opt(cell(0, s + 2), cell(1, s + 3), cell(1, s + 1), cell(2, s + 2))
    if d % 2 == 0:
        t = 2 if m >= 4 else 0
        two_opt(cell(t, 0), cell(t + 1, 1), cell(t + 1, 2), cell(t + 2, 3))
    walk, prev, cur = [0], 0, nbr[0][0]
    while cur != 0:
        walk.append(cur)
        a, b = nbr[cur]
        prev, cur = cur, b if a == prev else a
    return [int(table[x[c // k], y[c % k]]) for c in walk]


# ---------------------------------------------------------------------------
# total domination


@cached
def nilpotent_td(G: Group, budget: int = DEFAULT_BUDGET) -> DominationResult:
    """Total domination number of Delta(G) for 2-generated nilpotent G, by
    `total_domination` on Delta(G) itself, started at 1 for cyclic G and at
    td_bounds' lower bound otherwise.  The result is kept on G per node
    budget, so the checks that need γt share one search; two of them use
    only the size, so the set is verified on Delta(G) before it is kept.
    """
    st = nilpotent_structure(G)
    if not is_two_generated(G):
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    dd = delta_of(G)
    lower = 1
    if not G.is_cyclic:
        lower = td_bounds(tuple(q + 1 for q in st.noncyclic_primes))[0]
    res = total_domination(dd.graph, budget, lower_hint=lower)
    if res.witness is not None and not verify_certificate(dd.graph, res.witness):
        raise ConstructionError(f"total dominating set failed re-verification on {G.name}")
    return res
