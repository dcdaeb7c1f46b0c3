"""Finite groups as validated Cayley tables, plus subgroup machinery.

Elements are integers 0..n-1 with the identity pinned at index 0.  All
higher-level adjacency questions reduce to `closure`, i.e. to subgroup
generation computed by product saturation; per-group caches only memoise
closures of pairs of cyclic subgroups, never replace them with formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GroupLawError,
    NotNilpotentError,
    OrderGuardError,
)

DEFAULT_MAX_ORDER = 200


# ---------------------------------------------------------------------------
# element sets


@dataclass(frozen=True)
class ElementSet:
    """A subset of group elements; `subgroup` is set only after verification."""

    indices: frozenset[int]
    subgroup: bool = False

    @property
    def size(self) -> int:
        return len(self.indices)

    def mask(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[list(self.indices)] = True
        return out

    def __contains__(self, idx: int) -> bool:
        return idx in self.indices

    def __iter__(self):
        return iter(sorted(self.indices))


# ---------------------------------------------------------------------------
# the Group type


class Group:
    """Immutable finite group on indices 0..n-1 with identity 0.

    `table[i, j]` is the product of elements i and j.  The three group laws
    (identity, inverses, associativity) are asserted exactly on every
    construction; an invalid table raises GroupLawError.  Associativity is
    checked by Light's test: the elements s with (xs)y = x(sy) for all x, y
    are closed under products, so it suffices to check them on a set S whose
    right products from the identity reach every element, in O(n^2 |S|).
    """

    __slots__ = ("n", "table", "inverses", "orders", "labels", "name", "_cache")

    def __init__(self, table: np.ndarray, labels: tuple[str, ...] | None = None,
                 name: str = "G"):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        n = table.shape[0]
        if table.shape != (n, n):
            raise GroupLawError("multiplication table must be square")
        if n == 0:
            raise GroupLawError("empty table")
        if table.min() < 0 or table.max() >= n:
            raise GroupLawError("table entries out of range")
        self.n = n
        self.table = table
        self._validate()
        inv = np.argmin(table != 0, axis=1).astype(np.int32)
        self.inverses = inv
        self.orders = _element_orders(table)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise GroupLawError("label count mismatch")
        self.labels = tuple(labels)
        self.name = name
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)
        self.orders.setflags(write=False)
        self._cache: dict[str, object] = {}

    # -- group laws ---------------------------------------------------------

    def _validate(self) -> None:
        n, t = self.n, self.table
        ar = np.arange(n)
        if not (np.array_equal(t[0], ar) and np.array_equal(t[:, 0], ar)):
            raise GroupLawError("index 0 is not a two-sided identity")
        if not np.all(np.any(t == 0, axis=1)):
            raise GroupLawError("some element has no inverse")
        # Light's test; greedy S: add the least unreached element until the
        # right-saturation of S from the identity covers the table
        basis: list[int] = []
        reached = {0}
        while len(reached) < n:
            basis.append(next(g for g in range(n) if g not in reached))
            reached = _closure_members(t, basis)
        for s in basis:
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise GroupLawError(f"associativity fails for element {s}")

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def power(self, a: int, k: int) -> int:
        k %= int(self.orders[a])
        acc, cur = 0, a
        while k:
            if k & 1:
                acc = int(self.table[acc, cur])
            cur = int(self.table[cur, cur])
            k >>= 1
        return acc

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    @property
    def is_cyclic(self) -> bool:
        return int(self.orders.max()) == self.n

    @property
    def is_abelian(self) -> bool:
        key = "abelian"
        if key not in self._cache:
            self._cache[key] = bool(np.array_equal(self.table, self.table.T))
        return bool(self._cache[key])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.n})"

    # -- cached derived data --------------------------------------------------

    def _cyclic_data(self):
        """(cyc_id per element, list of subgroup frozensets, least generator per id)."""
        key = "cyclic"
        if key not in self._cache:
            ids = np.empty(self.n, dtype=np.int64)
            subs: dict[frozenset[int], int] = {}
            reps: list[int] = []
            sets: list[frozenset[int]] = []
            for g in range(self.n):
                cyc = frozenset(_power_orbit(self.table, g))
                sid = subs.get(cyc)
                if sid is None:
                    sid = len(sets)
                    subs[cyc] = sid
                    sets.append(cyc)
                    reps.append(g)
                ids[g] = sid
            self._cache[key] = (ids, sets, reps)
        return self._cache[key]

    def _pair_gen_matrix(self) -> np.ndarray:
        """Boolean k*k matrix over cyclic-subgroup ids: does the join generate G."""
        key = "pairgen"
        if key not in self._cache:
            ids, sets, reps = self._cyclic_data()
            k = len(sets)
            gen = np.zeros((k, k), dtype=bool)
            for i in range(k):
                for j in range(i, k):
                    size = len(_closure_members(self.table, (reps[i], reps[j])))
                    gen[i, j] = gen[j, i] = size == self.n
            self._cache[key] = gen
        return self._cache[key]

    def generating_pair_matrix(self) -> np.ndarray:
        """n*n boolean matrix: ⟨g,h⟩ = G (diagonal = single-element generation)."""
        key = "genmat"
        if key not in self._cache:
            ids, _, _ = self._cyclic_data()
            m = self._pair_gen_matrix()[np.ix_(ids, ids)]
            m.setflags(write=False)
            self._cache[key] = m
        return self._cache[key]


def _element_orders(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int32)
    cur = np.arange(n)
    alive = np.ones(n, dtype=bool)
    k = 1
    while alive.any():
        done = alive & (cur == 0)
        orders[done] = k
        alive &= ~done
        idx = np.flatnonzero(alive)
        if idx.size:
            cur[idx] = table[cur[idx], idx]
        k += 1
        if k > n + 1:
            raise GroupLawError("element powers never reach the identity")
    return orders


def _power_orbit(table: np.ndarray, g: int) -> list[int]:
    out = [0]
    cur = g
    while cur != 0:
        out.append(cur)
        cur = int(table[cur, g])
    return out


# ---------------------------------------------------------------------------
# closure by product saturation


def _closure_members(table: np.ndarray, seeds) -> set[int]:
    """The elements reached from the identity by right products with `seeds`.

    Breadth-first search over a zero-copy view of the C-contiguous int32
    table, reading x*g at flat index x*n + g.  In a group the result is
    the subgroup ⟨seeds⟩.  No group law is assumed, so table validation
    uses it on unchecked tables too.
    """
    n = table.shape[0]
    flat = memoryview(table).cast("B").cast("i")
    gens = sorted({int(s) for s in seeds})
    seen = {0}
    order = [0]
    for x in order:
        base = x * n
        for g in gens:
            y = flat[base + g]
            if y not in seen:
                seen.add(y)
                order.append(y)
    return seen


def closure(G: Group, seeds) -> ElementSet:
    """Least subgroup of G containing `seeds`, via product saturation."""
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < G.n:
            raise ValueError(f"seed {s} out of range")
    return ElementSet(frozenset(_closure_members(G.table, seeds)), subgroup=True)


def is_generating_pair(G: Group, g: int, h: int) -> bool:
    """True iff ⟨g,h⟩ = G.  g = h is allowed (single-element generation)."""
    ids, _, _ = G._cyclic_data()
    return bool(G._pair_gen_matrix()[ids[g], ids[h]])


# ---------------------------------------------------------------------------
# number theory


def totient_profile(n: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """(prime factorization, Euler phi, count of distinct prime divisors)."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    phi = 1
    for p, e in factors:
        phi *= (p - 1) * p ** (e - 1)
    return tuple(factors), phi, len(factors)


def radical(n: int) -> int:
    return math.prod(p for p, _ in totient_profile(n)[0])


# ---------------------------------------------------------------------------
# Sylow / nilpotency structure


@dataclass(frozen=True)
class NilpotentStructure:
    """Prime data of a nilpotent group, split by cyclic/noncyclic Sylows.

    cyclic_sylow lists (p_i, a_i) for primes with cyclic Sylow subgroup,
    noncyclic_sylow lists (q_j, b_j), both in increasing prime order.
    """

    order: int
    cyclic_sylow: tuple[tuple[int, int], ...]
    noncyclic_sylow: tuple[tuple[int, int], ...]
    two_generated: bool

    @property
    def r(self) -> int:
        return len(self.cyclic_sylow)

    @property
    def s(self) -> int:
        return len(self.noncyclic_sylow)

    @property
    def is_cyclic(self) -> bool:
        return self.s == 0

    @property
    def cyclic_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.cyclic_sylow)

    @property
    def noncyclic_primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.noncyclic_sylow)


def sylow_masks(G: Group) -> dict[int, np.ndarray] | None:
    """For each prime p | |G|, the set of p-power-order elements, provided
    each such set is product-closed; else None.  A closed set of p-elements
    is a p-subgroup containing a Sylow p-subgroup, so it is the unique
    Sylow p-subgroup; G is nilpotent exactly when the result is not None."""
    key = "sylow"
    if key not in G._cache:
        masks: dict[int, np.ndarray] | None = {}
        for p, e in totient_profile(G.n)[0]:
            pm = p ** e % G.orders == 0  # element orders divide |G|
            idx = np.flatnonzero(pm)
            if not pm[G.table[np.ix_(idx, idx)]].all():
                masks = None
                break
            masks[p] = pm
        G._cache[key] = masks
    return G._cache[key]


def is_nilpotent(G: Group) -> bool:
    return sylow_masks(G) is not None


def nilpotent_structure(G: Group) -> NilpotentStructure:
    """Sylow cyclic/noncyclic split and 2-generation flag; raises if not nilpotent."""
    masks = sylow_masks(G)
    if masks is None:
        raise NotNilpotentError(f"{G.name} is not nilpotent")
    cyclic, noncyclic = [], []
    for p, a in totient_profile(G.n)[0]:  # each Sylow p-subgroup has order p^a
        has_full = bool((G.orders[masks[p]] == p ** a).any())
        (cyclic if has_full else noncyclic).append((p, a))
    return NilpotentStructure(G.n, tuple(cyclic), tuple(noncyclic), is_two_generated(G))


def is_two_generated(G: Group) -> bool:
    return G.is_cyclic or bool(G.generating_pair_matrix().any())


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
    return G.power(g, e)


def sylow_decomposition(G: Group) -> tuple[tuple[int, ...], np.ndarray]:
    """(sorted primes, n*t array of per-prime component elements) for nilpotent G."""
    masks = sylow_masks(G)
    if masks is None:
        raise NotNilpotentError(f"{G.name} is not nilpotent")
    primes = tuple(sorted(masks))
    comps = np.zeros((G.n, len(primes)), dtype=np.int64)
    for j, p in enumerate(primes):
        for g in range(G.n):
            comps[g, j] = p_part(G, g, p)
    return primes, comps


# ---------------------------------------------------------------------------
# subgroup lattice and Frattini subgroup


def subgroup_lattice(G: Group, max_order: int = DEFAULT_MAX_ORDER) -> list[frozenset[int]]:
    """All subgroups, by saturating pairwise joins of the cyclic subgroups."""
    if G.n > max_order:
        raise OrderGuardError(
            f"subgroup lattice guard: |G| = {G.n} exceeds {max_order}")
    key = "lattice"
    if key in G._cache:
        return G._cache[key]
    _, sets, reps = G._cyclic_data()
    gens: dict[frozenset[int], tuple[int, ...]] = {}
    for s, rep in zip(sets, reps):
        gens.setdefault(s, (rep,))
    work = list(gens)
    known = set(gens)
    joined: set[tuple[int, ...]] = set()  # generator tuples already closed
    while work:
        new_work = []
        current = list(known)
        for a in work:
            for b in current:
                if a <= b or b <= a:
                    continue
                gen = tuple(sorted(set(gens[a]) | set(gens[b])))
                if gen in joined:
                    continue
                joined.add(gen)
                sub = frozenset(_closure_members(G.table, gen))
                if sub not in known:
                    known.add(sub)
                    gens[sub] = gen
                    new_work.append(sub)
        work = new_work
    result = sorted(known, key=lambda s: (len(s), sorted(s)))
    G._cache[key] = result
    return result


def maximal_subgroups(G: Group, max_order: int = DEFAULT_MAX_ORDER) -> list[frozenset[int]]:
    subs = [s for s in subgroup_lattice(G, max_order) if len(s) < G.n]
    out = []
    for s in subs:
        if not any(s < t for t in subs):
            out.append(s)
    return out


def frattini(G: Group, method: str = "auto",
             max_order: int = DEFAULT_MAX_ORDER) -> ElementSet:
    """Frattini subgroup Φ(G).

    method "lattice": intersection of all maximal subgroups over the full
    subgroup lattice (guarded by max_order).  method "nilpotentFormula":
    closure of all commutators and all rad-th powers, rad the product of the
    distinct primes dividing |G|; valid for nilpotent groups only.  "auto"
    picks the formula for nilpotent groups and the lattice otherwise.
    """
    if method == "auto":
        method = "nilpotentFormula" if is_nilpotent(G) else "lattice"
    if method == "lattice":
        maxs = maximal_subgroups(G, max_order)
        if not maxs:
            return ElementSet(frozenset({0}), subgroup=True)
        inter = frozenset.intersection(*maxs)
        return ElementSet(inter, subgroup=True)
    if method != "nilpotentFormula":
        raise ValueError(f"unknown method {method!r}")
    if not is_nilpotent(G):
        raise NotNilpotentError("nilpotentFormula requires a nilpotent group")
    seeds = _commutator_elements(G)
    rad = radical(G.n)
    powers = np.zeros(G.n, dtype=np.int64)
    base = np.arange(G.n)
    for _ in range(rad):
        powers = G.table[powers, base]
    seeds = np.union1d(seeds, powers)
    return ElementSet(frozenset(_closure_members(G.table, seeds.tolist())), subgroup=True)


def _commutator_elements(G: Group) -> np.ndarray:
    t, inv = G.table, G.inverses
    left = t[np.ix_(inv, inv)]
    comm = t[left, t]
    return np.unique(comm)


def derived_subgroup(G: Group) -> ElementSet:
    members = _closure_members(G.table, _commutator_elements(G).tolist())
    return ElementSet(frozenset(members), subgroup=True)


# ---------------------------------------------------------------------------
# quotients and subgroups as groups


def subgroup_as_group(G: Group, members) -> tuple[Group, np.ndarray]:
    """The subgroup on `members` as a Group; returns (H, element map H -> G)."""
    idx = np.array(sorted(int(m) for m in members), dtype=np.int64)
    if idx[0] != 0:
        raise ValueError("subgroup must contain the identity")
    pos = -np.ones(G.n, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    sub = G.table[np.ix_(idx, idx)]
    if (pos[sub] < 0).any():
        raise ValueError("member set is not product-closed")
    H = Group(pos[sub], labels=tuple(G.labels[i] for i in idx),
              name=f"{G.name}|sub{idx.size}")
    return H, idx


def quotient_mod_frattini(G: Group, max_order: int = DEFAULT_MAX_ORDER
                          ) -> tuple[Group, np.ndarray, ElementSet]:
    """(G/Φ(G), coset map element -> quotient index, Φ(G)).

    Quotient indices are ordered by the least element index of each coset, so
    the identity coset is index 0 and the minimal-index representative per
    coset is the canonical section.  When Φ(G) = 1 the quotient is G itself,
    with the identity coset map, so G's caches serve both.
    """
    key = "fratquot"
    if key not in G._cache:
        phi = frattini(G, "auto", max_order)
        if phi.size == 1:
            G._cache[key] = (G, np.arange(G.n, dtype=np.int64), phi)
            return G._cache[key]
        phi_idx = np.array(sorted(phi.indices), dtype=np.int64)
        # coset of g is the set table[g, phi]; canonical rep = min index
        cosets = G.table[:, phi_idx]
        rep = cosets.min(axis=1)
        reps = np.unique(rep)
        qindex = {int(rv): qi for qi, rv in enumerate(reps)}
        cmap = np.array([qindex[int(rep[g])] for g in range(G.n)], dtype=np.int64)
        qn = reps.size
        qtable = np.empty((qn, qn), dtype=np.int32)
        for i, ri in enumerate(reps):
            qtable[i] = cmap[G.table[ri, reps]]
        Q = Group(qtable, labels=tuple(G.labels[int(rv)] for rv in reps),
                  name=f"{G.name}/Frat")
        G._cache[key] = (Q, cmap, phi)
    Q, cmap, phi = G._cache[key]
    return Q, cmap, phi


def coset_section(G: Group, cmap: np.ndarray) -> np.ndarray:
    """Minimal-index representative for each quotient index."""
    qn = int(cmap.max()) + 1
    sec = np.full(qn, G.n, dtype=np.int64)
    for g in range(G.n - 1, -1, -1):
        sec[cmap[g]] = g
    return sec


# ---------------------------------------------------------------------------
# isomorphisms of squarefree-exponent abelian groups (for graph bijections)


def elementary_basis(G: Group, members: np.ndarray, p: int) -> list[int]:
    """Greedy basis of an elementary abelian p-subgroup given as element array."""
    basis: list[int] = []
    span = {0}
    for g in sorted(int(x) for x in members):
        if g == 0 or g in span:
            continue
        basis.append(g)
        new_span = set(span)
        for h in span:
            cur = h
            for _ in range(p - 1):
                cur = G.mul(cur, g)
                new_span.add(cur)
        span = new_span
    return basis


def abelian_squarefree_iso(G: Group, H: Group) -> np.ndarray:
    """An isomorphism G -> H for abelian groups of squarefree exponent.

    Each Sylow subgroup must be elementary abelian with matching ranks.
    Returns the image array; raises ValueError when no isomorphism exists.
    """
    if G.n != H.n or not (G.is_abelian and H.is_abelian):
        raise ValueError("groups not abelian of equal order")
    if radical(G.n) != G.exponent or radical(H.n) != H.exponent:
        raise ValueError("exponent not squarefree")
    factors, _, _ = totient_profile(G.n)
    iso = np.zeros(G.n, dtype=np.int64)
    # build per-prime coordinate tables, then combine by CRT products
    prime_maps = []
    for p, _ in factors:
        gm = np.flatnonzero(sylow_masks(G)[p])
        hm = np.flatnonzero(sylow_masks(H)[p])
        gb = elementary_basis(G, gm, p)
        hb = elementary_basis(H, hm, p)
        if len(gb) != len(hb):
            raise ValueError(f"rank mismatch at prime {p}")
        span_map = {0: 0}
        for bg, bh in zip(gb, hb):
            for eg, eh in list(span_map.items()):
                cg, ch = eg, eh
                for _ in range(p - 1):
                    cg, ch = G.mul(cg, bg), H.mul(ch, bh)
                    span_map[cg] = ch
        prime_maps.append(span_map)
    for g in range(G.n):
        img = 0
        for (p, _), pm in zip(factors, prime_maps):
            img = H.mul(img, pm[p_part(G, g, p)])
        iso[g] = img
    if sorted(iso.tolist()) != list(range(G.n)):
        raise ValueError("constructed map is not a bijection")
    # homomorphism re-check
    if not np.array_equal(iso[G.table], H.table[np.ix_(iso, iso)]):
        raise ValueError("constructed map is not a homomorphism")
    return iso
