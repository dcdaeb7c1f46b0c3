"""Group-theoretic machinery: closure, generation, Frattini, structure."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_pairs_gen_matrix,
    brute_associative,
    brute_closure,
    brute_cyclic_data,
    brute_subgroups,
    extension_lattice,
    lattice_test_groups,
    p_part,
    permutation_table,
    relabelled,
)
from gengraph.build import build_cached, build_group
from gengraph.errors import GroupLawError, NotNilpotentError, NotTwoGeneratedError
from gengraph.generating import generating_graph
from gengraph.groups import (
    DEFAULT_MAX_ORDER,
    Group,
    _class_and_normaliser,
    _closure_members,
    _commutator_elements,
    _conjugation,
    derived_subgroup,
    frattini,
    is_nilpotent,
    is_two_generated,
    isomorphism,
    least_generating_pair,
    maximal_subgroups,
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    subgroup_lattice,
    totient_profile,
)


def test_closure_examples(group):
    c12 = group("C12")
    assert len(_closure_members(c12.table, [4, 6])) == 6  # gcd(4,6,12) = 2, so <g^2>
    c2sq = group("C2^2")
    assert len(_closure_members(c2sq.table, [1, 2])) == 4
    assert _closure_members(c2sq.table, [0]) == {0}
    assert _closure_members(c2sq.table, []) == {0}


def test_closure_matches_brute_force(group):
    from gengraph.verify import default_catalog

    # every default-catalog group, up to n = 900; includes C12, C2^2 x C3,
    # Heis3; and the non-nilpotent S4, A5, S5, PSL(2,7) and AGL(1,p), with
    # 1 to 4 seeds that may repeat or include the identity
    groups = [group(e.spec) for e in default_catalog()]
    groups += lattice_test_groups().values()
    for g in groups:
        table = g.table.tolist()
        rng = np.random.default_rng(7)
        for size in (2,) * 10 + (1, 3, 4) * 4:
            seeds = rng.integers(0, g.n, size=size).tolist()
            assert _closure_members(g.table, seeds) == brute_closure(table, seeds), g.name
        for seeds in ([0], [0, 0], [g.n - 1, g.n - 1, 0], [0, 1, 1, g.n - 1]):
            assert _closure_members(g.table, seeds) == brute_closure(table, seeds), g.name


def test_closure_of_generating_seeds_is_the_group(group):
    from gengraph.verify import default_catalog

    # greedy generating sets found by `brute_closure`, also with the identity
    # and a repeated seed added, and every element at once
    groups = [group(e.spec) for e in default_catalog()]
    groups += lattice_test_groups().values()
    for g in groups:
        table = g.table.tolist()
        whole = set(range(g.n))
        seeds: list[int] = []
        while (reached := brute_closure(table, seeds)) != whole:
            seeds.append(max(whole - reached))
        assert _closure_members(g.table, seeds) == whole, g.name
        assert _closure_members(g.table, [0, *seeds, *seeds[:1]]) == whole, g.name
        assert _closure_members(g.table, range(g.n)) == whole, g.name


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 24), data=st.data())
def test_closure_monotone_idempotent(n, data):
    g = build_group(f"C{n}")
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=3))
    first = _closure_members(g.table, seeds)
    again = _closure_members(g.table, sorted(first))
    assert set(seeds) <= first
    assert again == first


def test_generating_pairs(group):
    c6 = generating_graph(group("C6")).graph
    assert c6.adj[1, 5]
    assert not c6.adj[2, 4]
    assert c6.marks == {1, 5}  # the single generators
    c2sq = generating_graph(group("C2^2")).graph
    assert not c2sq.marks
    assert c2sq.adj[1, 2]


def test_least_generating_pair_matches_all_pairs(group):
    """The least a < b with ⟨a, b⟩ = G, against `all_pairs_gen_matrix`
    expanded to the elements through `brute_cyclic_data`'s ids, on every
    catalog entry that is not formula-only; NotTwoGeneratedError where
    there is no such pair, as in C1 and C2^3."""
    from gengraph.verify import default_catalog

    for spec in [e.spec for e in default_catalog() if not e.formula_only] + ["C1", "C2^3"]:
        g = group(spec)
        ids = brute_cyclic_data(g)[0]
        pairs = np.argwhere(np.triu(all_pairs_gen_matrix(g)[np.ix_(ids, ids)], 1))
        if len(pairs):
            assert least_generating_pair(g) == tuple(pairs[0].tolist()), spec
        else:
            with pytest.raises(NotTwoGeneratedError):
                least_generating_pair(g)


def _maximal_intersection(g: Group) -> frozenset[int]:
    return frozenset.intersection(*maximal_subgroups(g))


def test_frattini_c12_both_methods(group):
    c12 = group("C12")
    assert sorted(frattini(c12)) == sorted(_maximal_intersection(c12)) == [0, 6]


def test_frattini_elementary_abelian_trivial(group):
    assert frattini(group("C2^2")) == _maximal_intersection(group("C2^2")) == frozenset({0})


def test_frattini_heisenberg_is_centre(group):
    h = group("Heis3")
    lat = _maximal_intersection(h)
    assert frattini(h) == lat
    centre = {z for z in range(27)
              if all(int(h.table[z, x]) == int(h.table[x, z]) for x in range(27))}
    assert lat == frozenset(centre)
    assert len(lat) == 3


def test_frattini_methods_agree_on_catalog(group):
    for spec in ["C4", "C8", "C9", "C12", "C16", "C18", "C2^2", "C3^2",
                 "C2^2 x C3", "C2^2 x C9", "C4 x C3^2", "Heis3"]:
        g = group(spec)
        assert frattini(g) == _maximal_intersection(g), spec


def test_frattini_formula_requires_nilpotent(group):
    # the formula's seeds include every commutator, which in Ex(1) close to
    # the normal C_3^3, while Φ(Ex(1)) = 1: a non-nilpotent group takes the
    # lattice route
    ex = group("Ex(1)")
    assert not is_nilpotent(ex)
    assert len(derived_subgroup(ex)) == 27
    assert frattini(ex) == frozenset({0})


def test_frattini_and_quotient_computed_once_per_group(monkeypatch):
    # Φ(G) and G/Φ(G) are computed once per group, on the lattice route and
    # on the nilpotent one, whichever of the two is asked for first
    import gengraph.groups as groups

    lattices, closures, built = [], [], []
    lattice, closure, init = (groups.maximal_subgroups, groups._closure_members,
                              Group.__init__)
    monkeypatch.setattr(groups, "maximal_subgroups",
                        lambda G: lattices.append(G) or lattice(G))
    monkeypatch.setattr(groups, "_closure_members",
                        lambda t, seeds: closures.append(seeds) or closure(t, seeds))
    monkeypatch.setattr(Group, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    s4 = Group(lattice_test_groups()["S4"].table)
    heis = build_group("C2^2 x Heis3")  # uncached; Φ is the centre of Heis3
    built.clear()
    phi = frattini(s4)
    assert phi == frozenset({0}) and len(lattices) == 1
    assert quotient_mod_frattini(s4)[0] is s4 and quotient_mod_frattini(s4)[2] is phi
    assert frattini(s4) is phi and len(lattices) == 1 and not built
    closures.clear()
    Q, _, phi = quotient_mod_frattini(heis)
    assert len(phi) == 3 and Q.n == 36 and len(closures) == 1 and len(built) == 1
    assert frattini(heis) is phi and quotient_mod_frattini(heis)[0] is Q
    assert len(closures) == 1 and len(built) == 1 and len(lattices) == 1


def test_quotient_maps_match_np_unique(group):
    from gengraph.verify import default_catalog

    # the coset map numbers cosets by their least elements, as np.unique
    # would, and the quotient is labelled by those elements
    groups = [group(e.spec) for e in default_catalog()]
    groups += lattice_test_groups().values()
    for g in groups:
        Q, cmap, phi = quotient_mod_frattini(g)
        reps, inverse = np.unique(g.table[:, sorted(phi)].min(axis=1), return_inverse=True)
        assert np.array_equal(cmap, inverse), g.name
        assert Q.labels == tuple(g.labels[r] for r in reps.tolist()), g.name


def test_frattini_example_family_trivial(group):
    # maximal subgroups N:<h_j> and (coordinate hyperplane):H intersect trivially
    assert _maximal_intersection(group("Ex(1)")) == frozenset({0})


def test_subgroup_lattice_c12(group):
    subs = subgroup_lattice(group("C12"))
    assert sorted(len(s) for s in subs) == [1, 2, 3, 4, 6, 12]
    maxs = maximal_subgroups(group("C12"))
    assert sorted(len(s) for s in maxs) == [4, 6]


def test_nilpotent_structure_examples(group):
    st_ = nilpotent_structure(group("C2^2 x C9"))
    assert st_.cyclic_sylow == ((3, 2),)
    assert st_.noncyclic_sylow == ((2, 2),)
    assert st_.r == 1 and st_.s == 1 and is_two_generated(group("C2^2 x C9"))

    st12 = nilpotent_structure(group("C12"))
    assert st12.r == 2 and st12.s == 0
    assert st12.cyclic_primes == (2, 3)

    with pytest.raises(NotNilpotentError):
        nilpotent_structure(group("Ex(1)"))


def test_nilpotent_structure_trivial(group):
    st1 = nilpotent_structure(group("C1"))
    assert st1.r == 0 and st1.s == 0 and st1.is_cyclic and is_two_generated(group("C1"))


def test_not_two_generated(group):
    assert not is_two_generated(group("C2^3"))


def test_nilpotent_structure_builds_no_pair_matrix(monkeypatch):
    """The Sylow split is read off `sylow_masks` alone: on freshly built
    groups it needs no pair-generation matrix."""
    def unavailable(G):
        raise AssertionError(f"the pair matrix of {G.name} asked for")

    fresh = [build_group("C2^2 x C3"), build_group("Heis3")]
    monkeypatch.setattr(Group, "generating_pair_matrix", unavailable)
    split = [(s.cyclic_sylow, s.noncyclic_sylow) for s in map(nilpotent_structure, fresh)]
    assert split == [(((3, 1),), ((2, 2),)), ((), ((3, 3),))]


def _peak_bytes(fn) -> int:
    """The tracemalloc peak of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orders_and_inverses_form_no_square_array(monkeypatch):
    """Past Light's test, a Group reads its orders and inverses off the
    power table: with the validation stubbed out, building the n = 900
    product from its table peaks at no more than n²/2 bytes."""
    g = build_group("C2^2 x C3^2 x C5^2", max_order=1000)
    monkeypatch.setattr(Group, "_validate", lambda self: None)
    Group(build_group("C2 x C3").table)  # first calls, outside the measure
    assert _peak_bytes(lambda: Group(g.table)) <= g.n * g.n / 2


def test_validation_forms_no_square_array():
    """Table validation scans for no inverses and buffers no `np.take`
    output: on the n = 900 product, `_validate` peaks at no more than
    0.9 n² bytes."""
    build_group("C2 x C3")._validate()  # first calls, outside the measure
    g = build_group("C2^2 x C3^2 x C5^2", max_order=1000)
    assert _peak_bytes(g._validate) <= 0.9 * g.n * g.n


def test_gamma_is_the_only_square_pair_matrix():
    """The group keeps the pair matrix over its k cyclic subgroups, and
    `generating_graph` forms the one n x n Γ(G): on a fresh n = 900
    product, Γ(G) and what it memoises retain at most 2 n² bytes."""
    generating_graph(build_group("C2 x C3"))  # first calls, outside the measure
    g = build_group("C2^2 x C3^2 x C5^2", max_order=1000)
    tracemalloc.start()
    try:
        generating_graph(g)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    k = len(g._cyclic_data()[1])
    assert g.generating_pair_matrix().shape == (k, k)
    assert retained <= 2 * g.n * g.n


def test_cyclic_data_forms_no_square_array():
    """`_cyclic_data` reads each ⟨g⟩ off the power table: on the n = 900
    product, tracemalloc peaks at no more than n²/2 bytes."""
    build_group("C2 x C3")._cyclic_data()  # first calls, outside the measure
    g = build_group("C2^2 x C3^2 x C5^2", max_order=1000)
    assert _peak_bytes(g._cyclic_data) <= g.n * g.n / 2


def test_quotient_mod_frattini(group):
    c12 = group("C12")
    Q, cmap, phi = quotient_mod_frattini(c12)
    assert Q.n == 6 and Q.is_cyclic
    assert len(phi) == 2
    assert cmap[0] == 0

    c2sq = group("C2^2")
    Q2, cmap2, phi2 = quotient_mod_frattini(c2sq)
    assert Q2.n == 4 and len(phi2) == 1
    assert cmap2.tolist() == [0, 1, 2, 3]

    h = group("Heis3")
    Q3, _, phi3 = quotient_mod_frattini(h)
    assert Q3.n == 9 and len(phi3) == 3
    assert np.array_equal(Q3.table, Q3.table.T) and np.lcm.reduce(Q3.orders) == 3


def test_quotient_structure_is_squarefree(group):
    # nilpotent 2-generated: G/Frat = prod C_p x prod C_q^2, so every cyclic
    # Sylow is C_p and every noncyclic Sylow is elementary abelian C_q^2
    for spec in ["C12", "C2^2 x C9", "Heis3", "C4 x C3^2"]:
        g = group(spec)
        Q, _, _ = quotient_mod_frattini(g)
        stq = nilpotent_structure(Q)
        st_g = nilpotent_structure(g)
        assert stq.cyclic_primes == st_g.cyclic_primes, spec
        assert stq.noncyclic_primes == st_g.noncyclic_primes, spec
        assert all(a == 1 for _, a in stq.cyclic_sylow), spec
        assert all(b == 2 for _, b in stq.noncyclic_sylow), spec
        from gengraph.groups import radical
        assert np.lcm.reduce(Q.orders) == radical(Q.n), spec


def test_generation_descends_to_quotient(group):
    # G = <g,h> iff the Frattini cosets generate G/Frat
    for spec in ["C12", "C2^2 x C9", "Heis3"]:
        g = group(spec)
        Q, cmap, _ = quotient_mod_frattini(g)
        rng = np.random.default_rng(11)
        gen, ids = g.generating_pair_matrix(), g._cyclic_data()[0]
        qgen, qids = Q.generating_pair_matrix(), Q._cyclic_data()[0]
        for _ in range(40):
            a, b = rng.integers(0, g.n, size=2)
            lhs = gen[ids[a], ids[b]]
            rhs = qgen[qids[cmap[a]], qids[cmap[b]]]
            assert lhs == rhs, (spec, a, b)


def test_totient_profile():
    assert totient_profile(12) == (((2, 2), (3, 1)), 4, 2)
    assert totient_profile(1) == ((), 1, 0)
    factors, phi, pi = totient_profile(108)
    assert factors == ((2, 2), (3, 3)) and phi == 36 and pi == 2
    # brute-force unit count oracle
    assert phi == sum(1 for k in range(1, 108) if np.gcd(k, 108) == 1)


def test_p_part(group):
    c12 = group("C12")
    g = 1  # generator of C12
    g3 = p_part(c12, g, 3)
    g2 = p_part(c12, g, 2)
    assert c12.orders[g3] == 3 and c12.orders[g2] == 4
    assert int(c12.table[g3, g2]) == g or int(c12.table[g2, g3]) == g


@pytest.mark.parametrize("spec", ["C1", "C2", "C12", "C2^2 x C9", "Heis3", "Ex(1)"])
def test_powers_by_repeated_products(group, spec):
    G = group(spec)
    P = G.powers()
    exponent = int(np.lcm.reduce(G.orders))
    assert P.shape == (exponent + 1, G.n)
    assert not P[0].any() and not P[-1].any()
    for g in range(G.n):
        x, order = 0, None
        for k in range(exponent + 1):
            assert P[k, g] == x
            if k and x == 0 and order is None:
                order = k
            x = int(G.table[x, g])
        assert G.orders[g] == order


def _is_isomorphism(iso: np.ndarray, g: Group, h: Group) -> bool:
    return (sorted(iso.tolist()) == list(range(g.n))
            and np.array_equal(iso[g.table], h.table[np.ix_(iso, iso)]))


def test_isomorphism_of_frattini_quotients(group):
    QG, _, _ = quotient_mod_frattini(group("C2^2 x C9 x C3"))
    QH, _, _ = quotient_mod_frattini(group("C2^2 x Heis3"))
    assert _is_isomorphism(isomorphism(QG, QH), QG, QH)


def test_isomorphism_refuses_non_isomorphic_groups(group):
    from sympy.combinatorics.named_groups import DihedralGroup

    with pytest.raises(ValueError):
        isomorphism(group("C4"), group("C2^2"))
    with pytest.raises(ValueError):
        isomorphism(group("C6"), group("C4"))
    # one candidate C2 x C4 -> D8 is a bijection that keeps every b-edge of
    # the Cayley graph and breaks an a-edge
    with pytest.raises(ValueError):
        isomorphism(group("C2 x C4"), Group(permutation_table(DihedralGroup(4)), name="D8"))


def test_isomorphism_of_relabelled_heisenberg(group):
    h = group("Heis3")
    copy, _ = relabelled(h, 5)
    assert _is_isomorphism(isomorphism(h, copy), h, copy)
    assert _is_isomorphism(isomorphism(copy, h), copy, h)


def test_derived_subgroup(group):
    assert len(derived_subgroup(group("C12"))) == 1
    h = group("Heis3")
    der = derived_subgroup(h)
    assert len(der) == 3
    ex = group("Ex(1)")
    assert len(derived_subgroup(ex)) == 27  # the normal C_3^3


@pytest.mark.parametrize("spec, block", [
    ("C12", 1 << 16), ("Heis3", 1 << 16), ("Ex(1)", 1 << 16), ("Ex(1)", 1000),
    ("Ex(1)", 1), ("Heis7", 1 << 16)])
def test_commutators_match_all_pairs(group, monkeypatch, spec, block):
    """The commutators, formed in blocks of rows, against all n² at once:
    Ex(1) (n = 54) in one block, in blocks of 18 rows and of one row, and
    Heis7 (n = 343) in two blocks, the second one short."""
    import gengraph.groups as GR

    monkeypatch.setattr(GR, "BLOCK_ENTRIES", block)
    G = group(spec)
    t, inv = G.table, G.inverses
    every = t[t[np.ix_(inv, inv)], t]
    assert _commutator_elements(G).tolist() == np.unique(every).tolist()


def test_subgroup_as_group(group):
    h = group("Heis3")
    der = derived_subgroup(h)
    D, emap = subgroup_as_group(h, sorted(der))
    assert D.n == 3 and D.is_cyclic
    assert emap.tolist() == sorted(der)


def test_group_laws_validated():
    with pytest.raises(GroupLawError):
        Group(np.array([[0, 1], [1, 1]]))  # no inverse for element 1
    with pytest.raises(GroupLawError):
        Group(np.array([[1, 0], [0, 1]]))  # index 0 not the identity


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 2**32]],  # 2**32 wraps to 0 in int32
    [[0, 1], [1, 0.5]],  # 0.5 truncates to 0
])
def test_group_rejects_table_before_int32_cast(table):
    with pytest.raises(GroupLawError):
        Group(np.array(table))


# a loop of order 5 (a Latin square with identity 0) that is not a group
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_validation_rejects_order5_loop():
    loop = np.array(LOOP5)
    # C2 x loop, element 2l + h for (l, h): element 1 lies in the C2 factor and
    # satisfies (xs)y = x(sy) for all x, y, so the check must go past it
    c2 = np.array([[0, 1], [1, 0]])
    product = (2 * loop[:, None, :, None] + c2[None, :, None, :]).reshape(10, 10)
    for t in (loop, product):
        assert not brute_associative(t)
        with pytest.raises(GroupLawError, match="associativity"):
            Group(t)


# identity and inverses hold and element 1 passes Light's test, but its
# right-saturation has three of the four elements: a closure that returned
# the whole table past n/2 elements, as the group-law kernel does, would
# make S = {1} and accept the table
NONASSOCIATIVE4 = ([[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3], [3, 3, 3, 0]],
                   [[0, 1, 2, 3], [1, 3, 2, 0], [2, 2, 0, 2], [3, 0, 2, 1]])


@pytest.mark.parametrize("table", NONASSOCIATIVE4)
def test_validation_does_not_assume_the_group_laws(table):
    t = np.array(table)
    assert not brute_associative(t)
    with pytest.raises(GroupLawError, match="associativity"):
        Group(t)


SMALL_SPECS = ["C2", "C5", "C6", "C8", "C2^2", "C2 x C4", "C2^3", "C3^2",
               "C2^2 x C3", "Heis3"]


def test_validation_across_row_blocks(monkeypatch):
    """Light's test compares a block of rows at a time.  With blocks of
    40 // n rows (one at least), every small group still validates, and a
    table whose only failing rows lie in the last, partial block is
    refused."""
    import gengraph.groups as GR

    monkeypatch.setattr(GR, "BLOCK_ENTRIES", 40)
    for spec in SMALL_SPECS:
        Group(build_cached(spec).table)
    # C10 with the entries 9·2 and 9·4 swapped: its right products with 1
    # still reach every element, so S = {1}, and (x·1)y = x(1·y) fails only
    # on rows 8 and 9, the last block of 10 rows taken 40 // 10 = 4 at a
    # time.  Every element's powers still reach 0, so a Group that wrongly
    # accepts the table finishes its construction
    t = np.add.outer(np.arange(10), np.arange(10)) % 10
    t[9, [2, 4]] = t[9, [4, 2]]
    assert not brute_associative(t)
    assert brute_closure(t, [1]) == set(range(10))
    assert np.flatnonzero((t[t[:, 1]] != t[:, t[1]]).any(axis=1)).tolist() == [8, 9]
    with pytest.raises(GroupLawError, match="associativity fails for element 1"):
        Group(t)


def test_powers_refuse_a_table_whose_powers_never_reach_the_identity(monkeypatch):
    """With validation switched off, C10 with 9·1 and 9·2 swapped: element
    1's powers run 1, 2, ..., 9, 1, ... and never reach 0, so the power
    table stops after n + 1 rows and the construction raises, not hangs."""
    monkeypatch.setattr(Group, "_validate", lambda self: None)
    t = np.add.outer(np.arange(10), np.arange(10)) % 10
    t[9, [1, 2]] = t[9, [2, 1]]
    with pytest.raises(GroupLawError, match="powers never reach the identity"):
        Group(t)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validation_matches_cubic_oracle(data):
    # relabel a small group table, then overwrite one entry off the identity
    # row and column; the table is accepted iff it has inverses and the
    # all-triples oracle finds it associative
    base = build_cached(data.draw(st.sampled_from(SMALL_SPECS)))
    n = base.n
    perm = np.array([0] + data.draw(st.permutations(range(1, n))))
    t = np.empty_like(base.table)
    t[np.ix_(perm, perm)] = perm[base.table]
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, n - 1))
    t[i, j] = data.draw(st.integers(0, n - 1))
    expected = bool(np.all(np.any(t == 0, axis=1))) and brute_associative(t)
    try:
        Group(t)
        accepted = True
    except GroupLawError:
        accepted = False
    assert accepted == expected


def test_subgroup_lattice_ex1(group):
    assert len(subgroup_lattice(group("Ex(1)"))) == 224


def _lattice_order(subs) -> list[frozenset[int]]:
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def test_subgroup_lattice_matches_brute_force(group):
    from gengraph.verify import default_catalog

    small = [g for g in (group(e.spec) for e in default_catalog()) if g.n <= 12]
    assert small
    for g in small:
        assert subgroup_lattice(g) == _lattice_order(brute_subgroups(g.table)), g.name


def test_subgroup_lattice_of_permutation_groups():
    from sympy.combinatorics.named_groups import (
        AlternatingGroup,
        DihedralGroup,
        SymmetricGroup,
    )

    # S3, D4, A4, D6: against every product-closed subset
    for pg in (SymmetricGroup(3), DihedralGroup(4), AlternatingGroup(4), DihedralGroup(6)):
        g = Group(permutation_table(pg))
        assert subgroup_lattice(g) == _lattice_order(brute_subgroups(g.table))
    # known orders and subgroup counts
    counts = {"S4": (24, 30), "A5": (60, 59), "S5": (120, 156), "PSL(2,7)": (168, 179),
              "AGL(1,7)": (42, 26), "AGL(1,11)": (110, 38), "AGL(1,13)": (156, 72)}
    for name, g in lattice_test_groups().items():
        assert (g.n, len(subgroup_lattice(g))) == counts[name], name


def test_subgroup_lattice_matches_extension_oracle(group):
    from gengraph.verify import default_catalog

    catalog = [group(e.spec) for e in default_catalog()]
    catalog = [g for g in catalog if g.n <= DEFAULT_MAX_ORDER]
    assert len(catalog) == 54  # all but C2^2 x C3^2 x C5^2 and Heis7
    for g in catalog:
        assert subgroup_lattice(g) == extension_lattice(g), g.name
    for name, g in lattice_test_groups().items():
        assert subgroup_lattice(g) == extension_lattice(g), name


def test_subgroup_lattice_matches_extension_oracle_under_relabelling():
    """S4, A5, S5, PSL(2,7) and AGL(1,13), each under three fixed
    relabellings, and C2^3 x S3.  The relabellings move the least cyclic id
    of each normaliser orbit, and so the ⟨c⟩ that `subgroup_lattice` joins.
    `extension_lattice` runs once per group: renumbering maps subgroups to
    subgroups, so a relabelled group's subgroups are the images of the
    original's."""
    from sympy.combinatorics.group_constructs import DirectProduct
    from sympy.combinatorics.named_groups import CyclicGroup, SymmetricGroup

    cases = []
    for name in ("S4", "A5", "S5", "PSL(2,7)", "AGL(1,13)"):
        g = lattice_test_groups()[name]
        oracle = extension_lattice(g)
        for seed in (0, 1, 2):
            copy, relabel = relabelled(g, seed)
            cases.append((copy, _lattice_order(frozenset(relabel[sorted(s)].tolist())
                                               for s in oracle)))
    c2 = CyclicGroup(2)
    g = Group(permutation_table(DirectProduct(c2, c2, c2, SymmetricGroup(3))), name="C2^3 x S3")
    cases.append((g, extension_lattice(g)))
    assert [len(subs) for _, subs in cases[-2:]] == [72, 236]  # AGL(1,13), C2^3 x S3
    for g, subs in cases:
        assert subgroup_lattice(g) == subs, g.name
        proper = [s for s in subs if len(s) < g.n]
        by_containment = tuple(s for s in proper if not any(s < t for t in proper))
        assert maximal_subgroups(g) == by_containment, g.name


def test_normaliser_matches_brute_force():
    for name in ("S4", "A5"):
        g = lattice_test_groups()[name]
        t, inv, conj = g.table.tolist(), g.inverses.tolist(), _conjugation(g)
        for sub in subgroup_lattice(g):
            conjugates = [frozenset(t[t[inv[x]][h]][x] for h in sub) for x in range(g.n)]
            cls, norm = _class_and_normaliser(conj, sub)
            assert cls == set(conjugates), name
            assert norm.tolist() == [x for x in range(g.n) if conjugates[x] == sub], name


def test_subgroup_lattice_of_trivial_group():
    g = build_group("C1")
    assert subgroup_lattice(g) == [frozenset({0})]
    assert maximal_subgroups(g) == ()


def test_subgroup_lattice_closures(monkeypatch):
    from gengraph import groups

    calls = []
    real = groups._closure_members

    def counting(table, seeds):
        calls.append(seeds)
        return real(table, seeds)

    fresh = {name: Group(lattice_test_groups()[name].table) for name in ("S5", "PSL(2,7)")}
    monkeypatch.setattr(groups, "_closure_members", counting)
    # one representative per conjugacy class is joined with one cyclic
    # subgroup per orbit of its normaliser.  Joining it with every cyclic
    # subgroup it misses made 845 and 939 closures, and extending every
    # subgroup found (`extension_lattice`) makes 7,975 and 13,041
    for name, closures in (("S5", 161), ("PSL(2,7)", 144)):
        calls.clear()
        subgroup_lattice(fresh[name])
        assert len(calls) == closures, name


def test_subgroup_lattice_closed_under_conjugation(group):
    for g in [group("Ex(1)"), group("Heis3"), *lattice_test_groups().values()]:
        lattice = set(subgroup_lattice(g))
        t, ar = g.table, np.arange(g.n)
        for sub in lattice:
            m = np.array(sorted(sub))
            for row in t[t[g.inverses[:, None], m[None, :]], ar[:, None]].tolist():
                assert frozenset(row) in lattice, g.name


def test_pair_matrix_matches_all_pairs_closure(group):
    from gengraph.verify import default_catalog

    # every default-catalog group, up to n = 900, cyclic ones included
    for spec in [e.spec for e in default_catalog()]:
        g = group(spec)
        assert np.array_equal(g.generating_pair_matrix(), all_pairs_gen_matrix(g)), spec


def test_cyclic_data_matches_power_orbits(group):
    """Cyclic ids, subgroups and least generators against `brute_cyclic_data`,
    on every catalog entry that is not formula-only, the lattice test groups,
    and three relabellings each of Heis3, Ex(1) and S5."""
    from gengraph.verify import default_catalog

    cases = [group(e.spec) for e in default_catalog() if not e.formula_only]
    cases += lattice_test_groups().values()
    for g in (group("Heis3"), group("Ex(1)"), lattice_test_groups()["S5"]):
        cases += [relabelled(g, seed)[0] for seed in (1, 2, 3)]
    assert len(cases) == 53 + 7 + 9
    for g in cases:
        ids, sets, reps = g._cyclic_data()
        want_ids, want_sets, want_reps = brute_cyclic_data(g)
        assert np.array_equal(ids, want_ids), g.name
        assert sets == want_sets and reps == want_reps, g.name


def test_pair_matrix_closures(monkeypatch):
    from gengraph import groups
    from gengraph.verify import default_catalog

    calls = []
    real = groups._closure_members

    def counting(table, seeds):
        calls.append(seeds)
        return real(table, seeds)

    entries = default_catalog()
    fresh = [build_group(e.spec, max(DEFAULT_MAX_ORDER, e.max_order)) for e in entries]
    monkeypatch.setattr(groups, "_closure_members", counting)
    # the 53 entries that are not formula-only close 109 pairs; the
    # formula-only C2^2 x C3^2 x C5, C2^2 x C3^2 x C5^2 and Heis7 the other 60
    per_entry = []
    for g in fresh:
        calls.clear()
        g.generating_pair_matrix()
        per_entry.append(len(calls))
    assert sum(per_entry) == 169
    assert sum(c for c, e in zip(per_entry, entries) if not e.formula_only) == 109


def test_pair_matrix_matches_all_pairs_closure_under_relabelling(group):
    """The lattice test groups, Ex(1), the abelian C2^2 x C9 x C3 and the
    non-abelian nilpotent Heis3, Heis5 and C2^2 x Heis3, which close pairs
    by conjugation orbits, each as built and under three fixed
    relabellings.  The relabellings reorder the cyclic ids, and so which
    pair of each orbit is closed and which pairs its orbit marks."""
    cases = dict(lattice_test_groups())
    for spec in ("Heis3", "Heis5", "C2^2 x Heis3", "Ex(1)", "C2^2 x C9 x C3"):
        cases[spec] = group(spec)
    for name, g in cases.items():
        for copy in [Group(g.table, name=name)] + [relabelled(g, seed)[0] for seed in (1, 2, 3)]:
            assert np.array_equal(copy.generating_pair_matrix(), all_pairs_gen_matrix(copy)), copy.name


def _counted_pairs(g: Group) -> np.ndarray:
    """The pairs of cyclic subgroups A, B with |A||B| > (n/p)·|A∩B|, p the
    least prime dividing n: those the pair matrix decides by counting."""
    _, sets, _ = g._cyclic_data()
    bound = g.n // totient_profile(g.n)[0][0][0]
    return np.array([[len(a) * len(b) > bound * len(a & b) for b in sets]
                     for a in sets])


def test_pair_matrix_counting_is_strict(group):
    # in Heis3 (n/p = 9) two distinct commuting subgroups of order 3 meet
    # trivially, so |AB| = 9 = n/p, yet they join to a subgroup of order 9
    h = group("Heis3")
    _, sets, reps = h._cyclic_data()
    gen, oracle = h.generating_pair_matrix(), all_pairs_gen_matrix(h)
    pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
             if len(sets[i]) == len(sets[j]) == 3
             and int(h.table[reps[i], reps[j]]) == int(h.table[reps[j], reps[i]])]
    assert pairs
    for i, j in pairs:
        assert len(sets[i]) * len(sets[j]) == 9 * len(sets[i] & sets[j])
        assert not gen[i, j] and not oracle[i, j]


def test_pair_matrix_of_permutation_groups():
    from sympy.combinatorics.named_groups import DihedralGroup

    # the nilpotent D8; the non-nilpotent S3, A4, S4, A5 and S5 are in
    # test_pair_matrix_read_off_matches_all_pairs_closure
    g = Group(permutation_table(DihedralGroup(4)))
    assert np.array_equal(g.generating_pair_matrix(), all_pairs_gen_matrix(g))
    # non-nilpotent groups with Φ(G) ≠ 1: counting decides some generating
    # pairs but not all of them, so closures decide the rest
    for g in (_dihedral(9), _dihedral(12)):
        assert len(frattini(g)) > 1, g.name
        oracle = all_pairs_gen_matrix(g)
        counted = _counted_pairs(g)
        assert counted.any() and (oracle & ~counted).any(), g.name
        assert not (counted & ~oracle).any(), g.name
        assert np.array_equal(g.generating_pair_matrix(), oracle), g.name


def _dihedral(m: int) -> Group:
    from sympy.combinatorics.named_groups import DihedralGroup

    return Group(permutation_table(DihedralGroup(m)), name=f"D{2 * m}")


def _without_lattice(monkeypatch) -> None:
    """Make the subgroup lattice, the maximal subgroups and Φ(G) raise."""
    from gengraph import groups

    def unavailable(G):
        raise AssertionError(f"the lattice or Φ of {G.name} asked for")

    for name in ("subgroup_lattice", "maximal_subgroups", "frattini"):
        monkeypatch.setattr(groups, name, unavailable)


def test_pair_matrix_read_off_matches_all_pairs_closure(group, monkeypatch):
    """Builds the pair matrix with subgroup_lattice, maximal_subgroups and frattini unavailable."""
    # every group here is non-nilpotent and 2-generated, and each pair
    # matrix equals closing every pair.  The dihedral groups are D_2m
    # for every m from 9 to 15, the orders the non-nilpotent benchmark's
    # seed picks from
    from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

    cases = [Group(permutation_table(SymmetricGroup(3)), name="S3"),
             Group(permutation_table(AlternatingGroup(4)), name="A4"),
             Group(group("Ex(1)").table, name="Ex(1)")]
    cases += [Group(g.table, name=name) for name, g in lattice_test_groups().items()]
    cases += [_dihedral(m) for m in range(9, 16)]
    oracles = [all_pairs_gen_matrix(g) for g in cases]
    _without_lattice(monkeypatch)
    for g, oracle in zip(cases, oracles):
        assert np.array_equal(g.generating_pair_matrix(), oracle), g.name


def test_pair_matrix_reads_no_maximal_subgroups_off_its_route(group, monkeypatch):
    """Builds the pair matrix with subgroup_lattice, maximal_subgroups and frattini unavailable."""
    # on the nilpotent catalog groups and on a group with no generating
    # pair: C2^3 x S3 has Φ = 1 but is not 2-generated, so its matrix is
    # all False
    from sympy.combinatorics import Permutation, PermutationGroup

    from gengraph.verify import default_catalog

    nilpotent = [Group(g.table, name=g.name)
                 for g in (group(e.spec) for e in default_catalog()) if is_nilpotent(g)]
    cycles = ([0, 1], [0, 1, 2], [3, 4], [5, 6], [7, 8])
    s3_c2cubed = Group(permutation_table(PermutationGroup(
        [Permutation([c], size=9) for c in cycles])), name="C2^3 x S3")
    assert s3_c2cubed.n == 48 and not is_nilpotent(s3_c2cubed)
    _without_lattice(monkeypatch)
    for g in nilpotent:
        g.generating_pair_matrix()
    assert not s3_c2cubed.generating_pair_matrix().any()
