"""Committed mutants: small edits to the package, each of which one named
test must catch.

Run from the repository root, outside the test suite:

    python tests/mutants.py

The runner copies src/ to a temporary directory and runs every named test
against that copy, which must pass.  Then, for each mutant, it applies the
edit to a fresh copy (the old text must occur exactly once in the file) and
runs the named test with that copy first on PYTHONPATH.  A mutant is killed
when its test fails, or when its run outlasts TIMEOUT_S seconds, which is
reported as a timeout; the run on the unmodified copy must pass within it.
The last line of output is `killed K of M`, followed by the stale mutants,
whose old text was not found once, and the survivors, if there are any.
The exit status is 0 only when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; all named tests together take about 30 s


@dataclass(frozen=True)
class Mutant:
    what: str
    file: str  # under src/gengraph
    old: str
    new: str
    test: str  # pytest node id, relative to the repository root


MUTANTS = (
    Mutant("a power factor's order taken as n·k",
           "build.py",
           'return Factor(f"C{n}^{k}", n ** k,',
           'return Factor(f"C{n}^{k}", n * k,',
           "tests/test_build.py::test_parse_single_factors"),
    Mutant("the parity crossing of the Sylow fold skipped",
           "constructions.py",
           "        two_opt(cell(t, 0), cell(t + 1, 1), cell(t + 1, 2), cell(t + 2, 3))\n",
           "        pass\n",
           "tests/test_constructions.py::test_sylow_fold[C4 x C3^2-d4]"),
    Mutant("the Sylow fold merging D_s with D_{s+1}",
           "constructions.py",
           "two_opt(cell(0, s + 2), cell(1, s + 3), cell(1, s + 1), cell(2, s + 2))",
           "two_opt(cell(0, s + 1), cell(1, s + 2), cell(1, s + 1), cell(2, s + 2))",
           "tests/test_constructions.py::test_sylow_fold[C2^2 x Heis3-d3]"),
    Mutant("Φ(P) taken as all of Φ(G) in a Sylow cycle",
           "constructions.py",
           "    for f in sorted(phi.intersection(members.tolist())):\n",
           "    for f in sorted(phi):\n",
           "tests/test_constructions.py::test_sylow_fold[C2^2 x Heis3-d3]"),
    Mutant("a Sylow cycle built on a pair that does not generate P",
           "constructions.py",
           "if len(_closure_members(t, (a, b))) == members.size)",
           "if len(_closure_members(t, (a, b))) > 1)",
           "tests/test_constructions.py::test_pgroup_c3sq_exact_cycle"),
    Mutant("a Sylow cycle that skips the a^j f entries",
           "constructions.py",
           "            walk += [int(t[bj, f]), int(t[cur, f])]\n",
           "            walk.append(int(t[bj, f]))\n",
           "tests/test_constructions.py::test_nonabelian_2groups_from_permutations"),
    Mutant("the product fold taking the first factor as the least significant digit",
           "build.py",
           "    for t in tables:\n",
           "    for t in reversed(tables):\n",
           "tests/test_build.py::test_direct_product_table_matches_mixed_radix_oracle"),
    Mutant("Light's test skipping the last partial block of rows",
           "groups.py",
           "            for lo in range(0, n, rows):\n",
           "            for lo in range(0, n - n % rows, rows):\n",
           "tests/test_groups.py::test_validation_across_row_blocks"),
    Mutant("the closure kernel stopping at exactly n/p elements",
           "groups.py",
           "                    if len(elems) > bound:\n",
           "                    if len(elems) >= bound:\n",
           "tests/test_groups.py::test_closure_matches_brute_force"),
    Mutant("the closure kernel multiplying only the newest generator",
           "groups.py",
           "            for g in gens:\n",
           "            for g in gens[-1:]:\n",
           "tests/test_groups.py::test_closure_matches_brute_force"),
    Mutant("cyclic subgroups read off each element's first two powers only",
           "groups.py",
           "        powers = self.powers()\n",
           "        powers = self.powers()[:2]\n",
           "tests/test_groups.py::test_cyclic_data_matches_power_orbits"),
    Mutant("an inverse read as g^|g|",
           "groups.py",
           "self.inverses = self.powers()[self.orders - 1, np.arange(n)]",
           "self.inverses = self.powers()[self.orders, np.arange(n)]",
           "tests/test_groups.py::test_generating_pairs"),
    Mutant("isomorphism checking the b-edges only",
           "groups.py",
           "for g, h in ((a, a2), (b, b2))):",
           "for g, h in ((b, b2),)):",
           "tests/test_groups.py::test_isomorphism_refuses_non_isomorphic_groups"),
    Mutant("the least generating pair read one column late",
           "groups.py",
           "gen[ids[a], ids[a + 1:]]",
           "gen[ids[a], ids[a:-1]]",
           "tests/test_groups.py::test_least_generating_pair_matches_all_pairs"),
    Mutant("2-generation read off the diagonal only",
           "groups.py",
           "return bool(G.generating_pair_matrix().any())",
           "return bool(G.generating_pair_matrix().diagonal().any())",
           "tests/test_groups.py::test_nilpotent_structure_examples"),
    Mutant("the pair matrix deciding a pair by counting at exactly n/p",
           "groups.py",
           "if len(a) * len(b) <= bound * len(a & b):",
           "if len(a) * len(b) < bound * len(a & b):",
           "tests/test_groups.py::test_pair_matrix_matches_all_pairs_closure"),
    Mutant("a generating pair's orbit pairing A's and B's conjugates by different elements",
           "groups.py",
           "orbit = (images[:, i], images[:, j])",
           "orbit = (images[:, i], images[::-1, j])",
           "tests/test_groups.py::test_pair_matrix_matches_all_pairs_closure_under_relabelling"),
    Mutant("a proper closure marking A^g with B^h",
           "groups.py",
           "known[img[:, :, None], img[:, None, :]] = True",
           "known[img[:, :, None], img[::-1, None, :]] = True",
           "tests/test_groups.py::test_pair_matrix_matches_all_pairs_closure_under_relabelling"),
    Mutant("the pair matrix calling subgroup_lattice, which its test makes unavailable",
           "groups.py",
           "        images = _cyclic_conjugates(self)\n",
           "        subgroup_lattice(self)\n"
           "        images = _cyclic_conjugates(self)\n",
           "tests/test_groups.py::test_pair_matrix_read_off_matches_all_pairs_closure"),
    Mutant("the lattice joining one cyclic subgroup per G-class, not per normaliser orbit",
           "groups.py",
           "    norm = np.flatnonzero((rows == m).all(axis=1))\n",
           "    norm = np.arange(len(rows))\n",
           "tests/test_groups.py::test_subgroup_lattice_matches_extension_oracle_under_relabelling"),
    Mutant("the lattice taking each normaliser as the trivial subgroup",
           "groups.py",
           "    norm = np.flatnonzero((rows == m).all(axis=1))\n",
           "    norm = np.zeros(1, dtype=np.int64)\n",
           "tests/test_groups.py::test_subgroup_lattice_closures"),
    Mutant("the γt coverage bound cutting a node that can just be covered",
           "search.py",
           "if uncovered.bit_count() > left * gain:",
           "if uncovered.bit_count() >= left * gain:",
           "tests/test_search.py::test_domination_matches_milp_on_products"),
    Mutant("γt counting the last choice's failed leaves but not the one that succeeds",
           "search.py",
           "            for _ in range((dominators[target] & ((1 << u) - 1)).bit_count() + 1):\n",
           "            for _ in range((dominators[target] & ((1 << u) - 1)).bit_count()):\n",
           "tests/test_search.py::test_domination_coverage_bound_keeps_the_witness"),
    Mutant("γt branching on the target with the most dominators",
           "search.py",
           'reduced = reduced[:, np.argsort(reduced.sum(axis=0), kind="stable")]',
           'reduced = reduced[:, np.argsort(-reduced.sum(axis=0), kind="stable")]',
           "tests/test_search.py::test_domination_matches_the_plain_search"),
    Mutant("γt targets taken from the candidates' rows, not their columns",
           "search.py",
           "    cols, _ = _row_classes(covers[rows].T)\n",
           "    cols, _ = _row_classes(covers[rows])\n",
           "tests/test_search.py::test_domination_with_twins_and_marks_matches_brute_force"),
    Mutant("γt targets grouped before the marks are set",
           "search.py",
           "    cols, _ = _row_classes(covers[rows].T)\n",
           "    cols, _ = _row_classes(graph.adj[rows].T)\n",
           "tests/test_search.py::test_domination_with_twins_and_marks_matches_brute_force"),
    Mutant("the colouring search given the whole budget, not what the clique search left",
           "search.py",
           "    counter = _Counter(max(0, budget - cl.nodes))\n",
           "    counter = _Counter(budget)\n",
           "tests/test_search.py::test_colouring_search_is_charged_for_the_clique_search"),
    Mutant("twin classes keyed by degree instead of by row",
           "graphs.py",
           "    return _row_classes(graph.adj)\n",
           "    return _row_classes(np.sort(graph.adj, axis=1))\n",
           "tests/test_search.py::test_clique_and_coloring_with_planted_twins"),
    Mutant("κ's twin orbits keyed by degree instead of by twin class",
           "graphs.py",
           "bits[s].bit_count(), bits[s],\n                           twin_classes(graph)[1])",
           "bits[s].bit_count(), bits[s],\n                           graph.degrees.tolist())",
           "tests/test_graphs.py::test_twin_orbits_keep_connectivity_and_cuts"),
    Mutant("the colouring search starting one colour above ω",
           "search.py",
           "    k = cl.size\n",
           "    k = cl.size + 1\n",
           "tests/test_search.py::test_chromatic_examples"),
    Mutant("the clique witness returned in quotient indices",
           "search.py",
           "Clique(tuple(sorted(reps[v] for v in best)))",
           "Clique(tuple(sorted(best)))",
           "tests/test_search.py::test_clique_and_coloring_with_planted_twins"),
    Mutant("γt reporting the size k it searched, not its witness's",
           "search.py",
           "len(witness), DominatingSet(tuple(witness))",
           "k, DominatingSet(tuple(witness))",
           "tests/test_search.py::test_domination_reports_the_witness_size"),
    Mutant("the Frattini lift without the blocks over self-generating cosets",
           "generating.py",
           "    lift |= (cmap[:, None] == cmap) & np.isin(cmap, list(gq.marks))[:, None]\n",
           "",
           "tests/test_generating.py::test_lex_decomposition_c8_block_structure"),
    Mutant("the coprime product's factor indices taken modulo |A|",
           "verify.py",
           "    ia, ib = divmod(where, B.n)\n",
           "    ia, ib = divmod(where, A.n)\n",
           "tests/test_generating.py::test_identity_counts_match_the_edge_set_oracle"),
    Mutant("Γ(G) expanded through sorted cyclic ids",
           "generating.py",
           "G.generating_pair_matrix()[np.ix_(ids, ids)]",
           "G.generating_pair_matrix()[np.ix_(np.sort(ids), np.sort(ids))]",
           "tests/test_generating.py::test_gamma_matches_brute_force"),
    Mutant("the Euler walk marking an edge at its near end only",
           "graphs.py",
           "                walked[w * n + v] = 1\n",
           "                walked[v * n + w] = 1\n",
           "tests/test_graphs.py::test_euler_k3"),
    Mutant("the minimum-cut loop's pair bound loosened by one",
           "graphs.py",
           "if (bits[a] & bits[b]).bit_count() + (bits[a] >> b & 1) >= best:",
           "if (bits[a] & bits[b]).bit_count() + (bits[a] >> b & 1) + 1 >= best:",
           "tests/test_graphs.py::test_connectivity_found_by_a_source_pair"),
    Mutant("the diameter of a disconnected graph reported as a number",
           "graphs.py",
           "            return None\n        d += 1\n",
           "            return d\n        d += 1\n",
           "tests/test_graphs.py::test_diameter_matches_scipy"),
    Mutant("a chord on a cycle edge accepted: the parity read off one end only",
           "graphs.py",
           "r % 2 == parity == s % 2",
           "r % 2 == parity",
           "tests/test_graphs.py::test_verify_hchords_negatives"),
    Mutant("a colouring of the wrong length accepted",
           "graphs.py",
           "if len(self.colors) != graph.n or min(",
           "if min(",
           "tests/test_graphs.py::test_verify_certificate_negatives"),
    Mutant("an Euler walk narrowed to int32 before its range check",
           "graphs.py",
           "steps = np.fromiter(walk, dtype=np.int64, count=len(walk))",
           "steps = np.fromiter(walk, dtype=np.int64, count=len(walk)).astype(np.int32)",
           "tests/test_graphs.py::test_verify_certificate_negatives"),
    Mutant("a two-vertex Hamiltonian cycle accepted",
           "graphs.py",
           "if graph.n < 3 or sorted(cyc)",
           "if sorted(cyc)",
           "tests/test_graphs.py::test_verify_certificate_negatives"),
    Mutant("run_check reporting a certificate without re-verifying it",
           "verify.py",
           "        if cert is not None and not verify_certificate(\n",
           "        if False and not verify_certificate(\n",
           "tests/test_verify.py::test_broken_certificate_is_a_fail"),
    Mutant("_reach ignoring its within mask",
           "graphs.py",
           "        frontier = nxt & within & ~seen\n",
           "        frontier = nxt & ~seen\n",
           "tests/test_graphs.py::test_cut_verifiers_match_networkx"),
    Mutant("td_bounds reading its parts unsorted",
           "graphs.py",
           "    parts = sorted(parts)\n",
           "    parts = list(parts)\n",
           "tests/test_graphs.py::test_td_bounds_examples"),
    Mutant("the memo keyed by the function name alone",
           "memo.py",
           "        key = (name, *args)\n",
           "        key = name\n",
           "tests/test_constructions.py::test_nilpotent_td_one_search_per_budget"),
    Mutant("the power table stopping before its identity row",
           "groups.py",
           "        out = np.stack(rows)\n",
           "        out = np.stack(rows[:-1])\n",
           "tests/test_groups.py::test_powers_by_repeated_products"),
    Mutant("a build failure reported for the first check only",
           "verify.py",
           "                        for check in checks]\n",
           "                        for check in checks[:1]]\n",
           "tests/test_verify.py::test_catalog_build_failure_recorded"),
    Mutant("the memo never storing",
           "memo.py",
           "value = memo[key] = fn(obj, *args)",
           "value = fn(obj, *args)",
           "tests/test_constructions.py::test_nilpotent_td_one_search_per_budget"),
    Mutant("the Frattini quotient built from its table with sorted rows",
           "groups.py",
           "    Q = Group(cmap[G.table[np.ix_(reps, reps)]],\n",
           "    Q = Group(np.sort(cmap[G.table[np.ix_(reps, reps)]], axis=1),\n",
           "tests/test_verify.py::test_broken_frattini_quotient_is_a_fail"),
    Mutant("PROP_2_9 finding its partner by the group's name",
           "verify.py",
           "    pair = _prop_2_9_pair(G)\n",
           "    pair = PROP_2_9_PAIRS.get(G.name)\n",
           "tests/test_verify.py::test_prop_2_9_partner_found_by_isomorphism"),
    Mutant("REMARK_FACTS holding whatever its census observes",
           "verify.py",
           "    return Outcome(prof.holds,\n",
           "    return Outcome(True,\n",
           "tests/test_verify.py::test_census_mismatch_is_a_fail"),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _outcome(src: Path, tests: list[str]) -> str:
    """"pass", "fail" or "timeout" for one pytest run of `tests` on `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if run.returncode == 0 else "fail"


def main() -> int:
    tests = sorted({m.test for m in MUTANTS})
    with tempfile.TemporaryDirectory() as tmp:
        clean = _outcome(_copy_src(Path(tmp) / "clean"), tests)
        if clean != "pass":
            print(f"the named tests give {clean} on the unmodified package")
            return 1
        stale, survived = [], []
        for i, m in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / f"m{i}")
            path = src / "gengraph" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE   {m.what}: old text found {text.count(m.old)} times in {m.file}")
                stale.append(m.what)
                continue
            path.write_text(text.replace(m.old, m.new))
            outcome = _outcome(src, [m.test])
            if outcome == "pass":
                survived.append(m.what)
            word = {"fail": "killed", "timeout": "timeout", "pass": "SURVIVED"}[outcome]
            print(f"{word} {m.what} ({m.test})")
    killed = len(MUTANTS) - len(stale) - len(survived)
    print(f"killed {killed} of {len(MUTANTS)}"
          + "".join(f"; {kind}: {', '.join(whats)}"
                    for kind, whats in (("stale", stale), ("survived", survived)) if whats))
    return 1 if stale or survived else 0


if __name__ == "__main__":
    sys.exit(main())
