"""Finite groups as validated Cayley tables, plus subgroup machinery.

Elements are integers 0..n-1 with the identity pinned at index 0.  All
higher-level adjacency questions reduce to `_closure_members`, the one
subgroup-closure kernel: the pair-generation matrix, the subgroup lattice,
Φ(G) and G' all call it.  What is derived from a group is computed once
and kept in the group's memo (`memo.cached`), never replaced with the
formulas that the checks test.  No function here takes an order guard:
the build guard (`DEFAULT_MAX_ORDER`, the command line's `--max-order`)
bounds every group, and with it the subgroup lattice.  The kernel assumes
the group laws, which every `Group` has passed: it grows ⟨seeds⟩ by whole
cosets (Dimino's method) and returns all of G as soon as more than n/p
elements are known, p the least prime dividing n, because by Lagrange no
proper subgroup is that large.  Table validation cannot assume what it is
checking, so Light's test saturates with its own law-free search,
`_right_saturation`.  The pair-generation matrix closes a pair of cyclic
subgroups A and B only when neither of two arguments decides it.  If both
lie in a proper subgroup already found, a cyclic subgroup or an earlier
closure smaller than G, their join lies in that subgroup and is not G.  If
|A||B| > (n/p)·|A∩B|, their join holds the product set AB, which has
|A||B|/|A∩B| > n/p elements, so by the kernel's Lagrange argument it is G.
A third argument spreads each answer over its pair's orbit under
conjugation, as ⟨A, B⟩^g = ⟨A^g, B^g⟩, so one pair per orbit is closed.
The table of those orbits is built before the first closure; on abelian G
it is one identity row.  The pair matrix never reads the subgroup lattice.
The lattice is Neubüser's cyclic extension, pruned twice by conjugation:
one subgroup H per conjugacy class is joined with one cyclic subgroup ⟨c⟩
of prime-power order per orbit of its normaliser N_G(H), because
⟨H, c^h⟩ = ⟨H, c⟩^h for h in N_G(H) and every join brings in its whole
class.  Each subgroup is still a closure result.
The maximal subgroups come from one pass over the proper subgroups,
largest first, that keeps each one no kept subgroup contains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupLawError, NotNilpotentError, NotTwoGeneratedError
from .graphs import _row_classes
from .memo import cached

DEFAULT_MAX_ORDER = 200
BLOCK_ENTRIES = 1 << 16  # entries of a block of rows formed at a time


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
    Inverses need no scan: in a finite associative table with an identity,
    g has an inverse exactly when a power of g is 1, which `powers()` checks.
    """

    __slots__ = ("n", "table", "inverses", "orders", "labels", "name", "_cache")

    def __init__(self, table: np.ndarray, labels: tuple[str, ...] | None = None,
                 name: str = "G"):
        table = np.asarray(table)
        n = table.shape[0] if table.ndim else 0
        if table.shape != (n, n):
            raise GroupLawError("multiplication table must be square")
        if n == 0:
            raise GroupLawError("empty table")
        # checked before the int32 cast, which would wrap or truncate
        if not np.issubdtype(table.dtype, np.integer):
            raise GroupLawError("table entries must be integers")
        if table.min() < 0 or table.max() >= n:
            raise GroupLawError("table entries out of range")
        self.n = n
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self._validate()
        # the order of g is the first k >= 1 with g^k = 1; its inverse is g^(|g|-1)
        self.orders = (np.argmax(self.powers()[1:] == 0, axis=0) + 1).astype(np.int32)
        self.inverses = self.powers()[self.orders - 1, np.arange(n)]
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise GroupLawError("label count mismatch")
        self.labels = tuple(labels)
        self.name = name
        for arr in (self.table, self.inverses, self.orders):
            arr.setflags(write=False)

    # -- group laws ---------------------------------------------------------

    def _validate(self) -> None:
        n, t = self.n, self.table
        ar = np.arange(n)
        if not (np.array_equal(t[0], ar) and np.array_equal(t[:, 0], ar)):
            raise GroupLawError("index 0 is not a two-sided identity")
        # Light's test; greedy S: add the least unreached element until the
        # right-saturation of S from the identity covers the table.  The
        # saturation assumes no group law: `_closure_members` assumes
        # associativity, and its Lagrange stop would cut S short on a table
        # that is not a group
        basis: list[int] = []
        reached = {0}
        while len(reached) < n:
            basis.append(next(g for g in range(n) if g not in reached))
            reached = _right_saturation(t, basis)
        # (xs)y = x(sy) compared on a block of rows x at a time, at most
        # BLOCK_ENTRIES entries a block (one row at least): the blocks cover
        # every row, so the test stays exact, and no n x n buffer is held.
        # The two block buffers are reused over the basis and the blocks
        rows = min(n, max(1, BLOCK_ENTRIES // n))
        left, right = np.empty((rows, n), t.dtype), np.empty((rows, n), t.dtype)
        for s in basis:
            for lo in range(0, n, rows):
                x = t[lo:lo + rows]
                xs_y, x_sy = left[:len(x)], right[:len(x)]
                # "clip" clips no range-checked entry; "raise" would buffer `out`
                np.take(t, x[:, s], axis=0, out=xs_y, mode="clip")
                np.take(x, t[s], axis=1, out=x_sy, mode="clip")
                if not np.array_equal(xs_y, x_sy):
                    raise GroupLawError(f"associativity fails for element {s}")

    # -- basic arithmetic ----------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return int(self.orders.max()) == self.n

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.n})"

    # -- cached derived data --------------------------------------------------

    @cached
    def powers(self) -> np.ndarray:
        """(e + 1) x n array, e the exponent of G: row k holds every
        element's k-th power, so rows 0 and e are all identity."""
        ar = np.arange(self.n, dtype=np.int32)
        rows = [np.zeros_like(ar), ar]
        while rows[-1].any():
            if len(rows) > self.n:
                raise GroupLawError("no inverse: some element's powers never reach the identity")
            rows.append(self.table[rows[-1], ar])
        out = np.stack(rows)
        out.setflags(write=False)
        return out

    @cached
    def _cyclic_data(self):
        """(cyc_id per element, list of subgroup frozensets, least generator per id).

        ⟨g⟩ is named by its least generator, the least g^j with gcd(j, |g|) = 1,
        so ascending names follow the order of first occurrence, and ⟨g⟩ is
        its least generator's column of `powers`."""
        powers = self.powers()
        least = powers[1]
        for j in range(2, len(powers) - 1):
            least = np.minimum(least, np.where(np.gcd(j, self.orders) == 1, powers[j], self.n))
        reps, ids = np.unique(least, return_inverse=True)
        sets = [frozenset(col) for col in powers[:, reps].T.tolist()]
        return ids.astype(np.int64), sets, reps.tolist()

    @cached
    def generating_pair_matrix(self) -> np.ndarray:
        """Boolean k*k matrix over cyclic-subgroup ids: does the join generate G.

        Entry [ids[g], ids[h]], ids = `_cyclic_data()[0]`, says whether ⟨g, h⟩ = G;
        `generating.generating_graph` expands it to the one n x n Γ(G).

        A pair of cyclic subgroups A, B is closed only if none of the three
        rules below decides it.  All three are sound for any A and B, so the
        matrix is the one that closing every pair gives.

        - A known proper subgroup K: when A and B both lie in K, their join
          lies in K and is not G.  The known proper subgroups are the cyclic
          subgroups of order below n, every closure that comes back smaller
          than G, and every conjugate of such a closure (the conjugation
          rule below), so each pair skipped lies inside a subgroup that a
          power orbit or a closure produced, or a conjugate of one.
        - Counting: ⟨A, B⟩ contains the product set AB, and
          |AB| = |A||B|/|A∩B|.  If |A||B| > (n/p)·|A∩B|, p the least prime
          dividing n, then ⟨A, B⟩ has more than n/p elements; its index in
          G is then less than p and so 1, and it is G.  This is the
          kernel's own Lagrange stop, applied before any enumeration.  It
          decides every pair with a cyclic subgroup A = G, as
          n·|B| > (n/p)·|B|.  The inequality must be strict: in Heis3 two
          commuting cyclic subgroups of order 3 have |AB| = 9 = n/p and
          join to a subgroup of order 9.
        - Conjugation: ⟨A, B⟩^g = ⟨A^g, B^g⟩, so a pair generates G exactly
          when each of its conjugate pairs does, and a proper closure K
          makes every K^g a known proper subgroup.  So a generating pair
          marks its whole orbit under conjugation, and only one pair of
          each orbit is closed.  The orbits are read off
          `_cyclic_conjugates`, the distinct permutations of the cyclic ids
          by conjugation, which is built before the first closure.  On an
          abelian G it is the identity alone, so each orbit is one pair.

        Pairs are visited largest cyclic subgroups first, whose non-generating
        closures are the largest subgroups and decide the most pairs.
        """
        ids, sets, reps = self._cyclic_data()
        n, k = self.n, len(sets)
        bound = _lagrange_stop(n)[0]
        gen = np.zeros((k, k), dtype=bool)
        known = np.zeros((k, k), dtype=bool)
        images = _cyclic_conjugates(self)

        def mark(members) -> None:
            # the cyclic subgroups inside K are those its elements generate;
            # mark the pairs of them, inside K and inside each conjugate of K
            sub = _present(k, ids[np.fromiter(members, dtype=np.int64, count=len(members))])
            img = images[:, sub]
            known[img[:, :, None], img[:, None, :]] = True

        for cyc in sets:
            if len(cyc) < n:
                mark(cyc)
        order = sorted(range(k), key=lambda i: -len(sets[i]))
        for pos, i in enumerate(order):
            for j in order[pos:]:
                if known[i, j] or gen[i, j]:
                    continue
                a, b = sets[i], sets[j]
                if len(a) * len(b) <= bound * len(a & b):
                    members = _closure_members(self.table, (reps[i], reps[j]))
                    if len(members) < n:
                        mark(members)
                        continue
                orbit = (images[:, i], images[:, j])
                gen[orbit] = gen[orbit[::-1]] = True
        gen.setflags(write=False)
        return gen


# ---------------------------------------------------------------------------
# subgroup closure


def _right_saturation(table: np.ndarray, seeds) -> set[int]:
    """The elements reached from the identity by right products with `seeds`.

    Breadth-first search over a zero-copy view of the C-contiguous int32
    table, reading x*g at flat index x*n + g.  No group law is assumed, so
    table validation uses it on unchecked tables; on a group the result is
    ⟨seeds⟩, but `_closure_members` computes that faster.
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


@functools.lru_cache(maxsize=None)
def _lagrange_stop(n: int) -> tuple[int, frozenset[int]]:
    """(n/p, all of G) for a group of order n, p the least prime dividing n:
    by Lagrange, no proper subgroup has more than n/p elements."""
    factors = totient_profile(n)[0]
    return n // factors[0][0] if factors else n, frozenset(range(n))


def _closure_members(table: np.ndarray, seeds) -> frozenset[int]:
    """The subgroup ⟨seeds⟩ of the group with Cayley table `table`.

    The table must satisfy the group laws (a validated `Group.table`); on
    any other table the result is meaningless.  Dimino's method (Butler,
    *Fundamental Algorithms for Permutation Groups*, 1991, §6) adds the
    seeds one at a time.  With K the subgroup built so far and s a seed not
    in it, ⟨K, s⟩ is grown by whole right cosets K·x: starting from x = s,
    each product r·g of a coset representative r with a generator g used so
    far that is not yet known starts a new coset.  Known elements are always
    a union of right cosets of K, so a known r·g needs no new coset, and the
    search ends with a set closed under right products by the generators,
    which is ⟨K, s⟩.

    Once more than n/p elements are known, p the least prime dividing n,
    the whole group is returned: every element found lies in ⟨seeds⟩, whose
    order divides n, so its index in G is less than p and hence 1.  n/p and
    the whole group are cached per n.  Reads x*g at flat index x*n + g of a
    zero-copy view of the C-contiguous int32 table.
    """
    n = table.shape[0]
    bound, whole = _lagrange_stop(n)
    flat = memoryview(table).cast("B").cast("i")
    seen = {0}
    elems = [0]
    gens: list[int] = []
    for s in sorted({int(s) for s in seeds}):
        if s in seen:
            continue
        gens.append(s)
        rows = [k * n for k in elems]  # K, the subgroup before s, as row offsets
        reps = [s]
        coset = [flat[k + s] for k in rows]
        seen.update(coset)
        elems += coset
        if len(elems) > bound:
            return whole
        for r in reps:
            base = r * n
            for g in gens:
                x = flat[base + g]
                if x not in seen:
                    reps.append(x)
                    coset = [flat[k + x] for k in rows]
                    seen.update(coset)
                    elems += coset
                    if len(elems) > bound:
                        return whole
    return frozenset(seen)


def least_generating_pair(G: Group) -> tuple[int, int]:
    """Lexicographically least (a, b) with a < b and ⟨a,b⟩ = G."""
    gen, ids = G.generating_pair_matrix(), G._cyclic_data()[0]
    for a in range(G.n):
        row = np.flatnonzero(gen[ids[a], ids[a + 1:]])
        if row.size:
            return a, int(row[0]) + a + 1
    raise NotTwoGeneratedError(f"{G.name} has no generating pair")


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


@cached
def sylow_masks(G: Group) -> dict[int, np.ndarray] | None:
    """For each prime p | |G|, the set of p-power-order elements, provided
    each such set is product-closed; else None.  A closed set of p-elements
    is a p-subgroup containing a Sylow p-subgroup, so it is the unique
    Sylow p-subgroup; G is nilpotent exactly when the result is not None."""
    masks = {}
    for p, e in totient_profile(G.n)[0]:
        pm = p ** e % G.orders == 0  # element orders divide |G|
        idx = np.flatnonzero(pm)
        if not pm[G.table[np.ix_(idx, idx)]].all():
            return None
        masks[p] = pm
    return masks


def is_nilpotent(G: Group) -> bool:
    return sylow_masks(G) is not None


def nilpotent_structure(G: Group) -> NilpotentStructure:
    """Sylow cyclic/noncyclic split, read off `sylow_masks`; raises if not nilpotent."""
    masks = sylow_masks(G)
    if masks is None:
        raise NotNilpotentError(f"{G.name} is not nilpotent")
    cyclic, noncyclic = [], []
    for p, a in totient_profile(G.n)[0]:  # each Sylow p-subgroup has order p^a
        has_full = bool((G.orders[masks[p]] == p ** a).any())
        (cyclic if has_full else noncyclic).append((p, a))
    return NilpotentStructure(G.n, tuple(cyclic), tuple(noncyclic))


def is_two_generated(G: Group) -> bool:
    return bool(G.generating_pair_matrix().any())


# ---------------------------------------------------------------------------
# subgroup lattice and Frattini subgroup


@cached
def subgroup_lattice(G: Group) -> list[frozenset[int]]:
    """All subgroups, by cyclic extension (Neubüser 1960) over conjugacy
    classes and normaliser orbits, sorted by (order, sorted elements).

    Every subgroup is generated by its elements of prime-power order: each
    element is the product of its p-parts, and those are powers of it.  So
    a family of subgroups that holds the cyclic subgroups of prime-power
    order and is closed under joining with each of them holds every
    subgroup.  Only one representative H per conjugacy class is joined, and
    only with one ⟨c⟩ per orbit of the normaliser N_G(H) on the cyclic
    subgroups of prime-power order that H does not contain; each new
    subgroup found brings its whole conjugacy class in, so the family stays
    closed under conjugation.  That suffices.  For h in N_G(H),
    ⟨H, c^h⟩ = ⟨H^h, c^h⟩ = ⟨H, c⟩^h, so the join with any ⟨c⟩ in the orbit
    lies in the class of the join with the orbit's representative, the
    ⟨c⟩ of least cyclic id.  For a conjugate H^g, ⟨H^g, c⟩ = ⟨H, c'⟩^g with
    c' = g c g⁻¹, and ⟨c'⟩ is again a cyclic subgroup of prime-power
    order, so the class of ⟨H, c'⟩, which holds ⟨H^g, c⟩, was added.
    """
    ids, sets, reps = G._cyclic_data()
    prime_power = [i for i, s in enumerate(sets) if len(totient_profile(len(s))[0]) == 1]
    cyc_ids = np.array(prime_power, dtype=np.int64)
    cyc_reps = np.array([reps[i] for i in prime_power], dtype=np.int64)
    conj = _conjugation(G)
    known = {frozenset({0})}
    work: list[tuple[frozenset[int], tuple[int, ...], np.ndarray]] = []

    def add(sub: frozenset[int], gen: tuple[int, ...]) -> None:
        cls, norm = _class_and_normaliser(conj, sub)
        known.update(cls)
        work.append((sub, gen, norm))

    for i in prime_power:
        if sets[i] not in known:
            add(sets[i], (reps[i],))
    for sub, gen, norm in work:
        # column j: the cyclic ids of the N_G(sub)-conjugates of ⟨cyc_reps[j]⟩
        least = ids[conj[np.ix_(norm, cyc_reps)]].min(axis=0)
        for c in cyc_reps[least == cyc_ids].tolist():
            if c not in sub:
                joined = _closure_members(G.table, gen + (c,))
                if joined not in known:
                    add(joined, gen + (c,))
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def _conjugation(G: Group, xs: np.ndarray | None = None) -> np.ndarray:
    """The n x len(xs) array whose entry [g, c] is g⁻¹·x·g for x = xs[c],
    xs all of G by default."""
    t, ar = G.table, np.arange(G.n)
    xs = ar if xs is None else xs
    return t[t[G.inverses[:, None], xs], ar[:, None]]


def _cyclic_conjugates(G: Group) -> np.ndarray:
    """The distinct permutations of G's cyclic-subgroup ids by conjugation,
    one row each: row π maps cyclic id i to π[i], the id of ⟨reps[i]⟩^g.

    The distinct rows of ids[g⁻¹·reps·g] over all g, an n x k gather.  On
    abelian G every row is the identity, so one row is left."""
    ids, _, reps = G._cyclic_data()
    perms = ids[_conjugation(G, np.array(reps, dtype=np.int64))]
    return perms[_row_classes(perms)[0]]


def _class_and_normaliser(conj: np.ndarray, sub: frozenset[int]
                          ) -> tuple[set[frozenset[int]], np.ndarray]:
    """(the conjugacy class of the subgroup `sub`, its normaliser N_G(sub)
    as an index array), from `_conjugation`'s array: row g of conj[:, sub]
    is g⁻¹·sub·g, and g normalises sub when that row is sub itself."""
    m = np.fromiter(sorted(sub), dtype=np.int64, count=len(sub))
    rows = np.sort(conj[:, m], axis=1)
    norm = np.flatnonzero((rows == m).all(axis=1))
    return {frozenset(rows[i].tolist()) for i in _row_classes(rows)[0]}, norm


@cached
def maximal_subgroups(G: Group) -> tuple[frozenset[int], ...]:
    """The maximal subgroups of G, in lattice order.

    One pass over the proper subgroups from the largest to the smallest
    keeps each one that no subgroup kept so far contains.  A proper subgroup
    that is not maximal lies in a larger maximal subgroup, which the pass
    has already kept; a maximal one lies in no larger proper subgroup."""
    kept: list[frozenset[int]] = []
    for s in reversed(subgroup_lattice(G)):
        if len(s) < G.n and not any(s < m for m in kept):
            kept.append(s)
    return tuple(reversed(kept))


@cached
def frattini(G: Group) -> frozenset[int]:
    """Frattini subgroup Φ(G), as the frozenset of its element indices.

    For nilpotent G, the closure of all commutators and all rad-th powers,
    rad the product of the distinct primes dividing |G|; otherwise the
    intersection of all maximal subgroups over the full subgroup lattice.
    Computed once per group.
    """
    if not is_nilpotent(G):
        maxs = maximal_subgroups(G)
        return frozenset.intersection(*maxs) if maxs else frozenset({0})
    powers = G.powers()[radical(G.n) % G.orders, np.arange(G.n)]
    seeds = _present(G.n, _commutator_elements(G), powers)
    return _closure_members(G.table, seeds.tolist())


def _commutator_elements(G: Group) -> np.ndarray:
    """The sorted distinct commutators g⁻¹h⁻¹gh, formed for a block of rows
    g at a time, at most BLOCK_ENTRIES entries a block (one row at
    least), so that no n x n array is built."""
    t, inv = G.table, G.inverses
    seen = np.zeros(G.n, dtype=bool)
    rows = max(1, BLOCK_ENTRIES // G.n)
    for lo in range(0, G.n, rows):
        seen[t[t[inv[lo:lo + rows]][:, inv], t[lo:lo + rows]]] = True
    return np.flatnonzero(seen)


def _present(n: int, *indices: np.ndarray) -> np.ndarray:
    """The sorted distinct values in the index arrays, all in range(n)."""
    seen = np.zeros(n, dtype=bool)
    for idx in indices:
        seen[idx] = True
    return np.flatnonzero(seen)


def derived_subgroup(G: Group) -> frozenset[int]:
    """The commutator subgroup G', as the frozenset of its element indices."""
    return _closure_members(G.table, _commutator_elements(G).tolist())


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


@cached
def quotient_mod_frattini(G: Group) -> tuple[Group, np.ndarray, frozenset[int]]:
    """(G/Φ(G), coset map element -> quotient index, Φ(G) as a frozenset).

    Quotient indices are ordered by the least element index of each coset, so
    the identity coset is index 0 and the minimal-index representative per
    coset is the canonical section.  When Φ(G) = 1 the quotient is G itself,
    with the identity coset map, so G's memo serves both.  Computed once
    per group.
    """
    phi = frattini(G)
    if len(phi) == 1:
        return G, np.arange(G.n, dtype=np.int64), phi
    # the coset of g is table[g, phi]; its least element represents it
    rep = G.table[:, sorted(phi)].min(axis=1)
    is_rep = rep == np.arange(G.n)
    reps, cmap = np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[rep]
    Q = Group(cmap[G.table[np.ix_(reps, reps)]],
              labels=tuple(G.labels[int(rv)] for rv in reps),
              name=f"{G.name}/Frat")
    return Q, cmap, phi


# ---------------------------------------------------------------------------
# isomorphisms of 2-generated groups (for graph bijections)


def isomorphism(G: Group, H: Group) -> np.ndarray:
    """An isomorphism G -> H of 2-generated groups, as the image array.

    G's least generating pair (a, b) is sent to each generating pair
    (a', b') of H with |a'| = |a| and |b'| = |b| in turn, and the map is
    extended along G's right Cayley graph from 1 -> 1 by x·a -> x'·a' and
    x·b -> x'·b'.  The first extension that is a bijection keeping all 2n
    edges, iso(x·a) = iso(x)·a' and iso(x·b) = iso(x)·b', is returned;
    raises ValueError when none is.  That suffices: every y in G is a word
    in a and b, so iso(x·y) = iso(x)·iso(y) by induction on the word.
    """
    if G.n != H.n:
        raise ValueError("groups of different orders")
    a, b = least_generating_pair(G)
    gen, ids = H.generating_pair_matrix(), H._cyclic_data()[0]
    for a2 in np.flatnonzero(H.orders == G.orders[a]).tolist():
        for b2 in np.flatnonzero(gen[ids[a2], ids] & (H.orders == G.orders[b])).tolist():
            iso = np.full(G.n, -1, dtype=np.int64)
            iso[0] = 0
            reached = [0]
            for x in reached:
                for g, h in ((a, a2), (b, b2)):
                    y = int(G.table[x, g])
                    if iso[y] < 0:
                        iso[y] = H.table[iso[x], h]
                        reached.append(y)
            if np.array_equal(np.sort(iso), np.arange(G.n)) and all(
                    np.array_equal(iso[G.table[:, g]], H.table[iso, h])
                    for g, h in ((a, a2), (b, b2))):
                return iso
    raise ValueError(f"no isomorphism {G.name} -> {H.name}")
