"""Theorem checks, scans, catalog runs, and report determinism."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    lattice_test_groups,
    permutation_table,
    reference_clique_search,
    relabelled,
    save_cayley_file,
)
from gengraph.graphs import (
    Clique,
    Coloring,
    DominatingSet,
    EdgeCut,
    EulerCircuit,
    HamCycle,
    VertexCut,
)
from gengraph.verify import (
    CHECK_IDS,
    REGISTRY,
    CatalogEntry,
    Report,
    default_catalog,
    load_catalog_file,
    run_catalog,
    run_check,
    scan_question,
    summarize,
)

BUDGET = 10_000_000


def test_run_check_examples(group):
    r = run_check(group("C6"), "THM_1_3_EULER", BUDGET, name="C6")
    assert r.status == "pass"
    assert r.expected == {"eulerian": False}

    r = run_check(group("C2^2 x C9"), "THM_1_1", BUDGET, name="C2^2 x C9")
    assert r.status == "pass"
    assert r.observed["kappa"] == 12 and r.observed["delta"] == 12

    r = run_check(group("C12"), "THM_1_5", BUDGET, name="C12")
    assert r.status == "pass"
    assert r.observed == {"omega": 6, "chi": 6}


@pytest.mark.parametrize("key,spelling", [("C2^2 x C9", "C2 x C18"),
                                          ("C2^2 x C9 x C3", "C6 x C18")])
def test_prop_2_9_partner_found_by_isomorphism(group, key, spelling):
    # PROP_2_9 compares any spelling of a listed group with its partner
    named, other = (run_check(group(s), "PROP_2_9", BUDGET, name="G") for s in (key, spelling))
    assert named.status == other.status == "pass"
    assert "partner" in named.observed
    assert (named.expected, named.observed) == (other.expected, other.observed)


def _verdicts(G, name: str) -> list:
    """Status, expected, observed and reason of every check and question on
    G, less the Euler check's reason, which names a vertex."""
    out = []
    for check in REGISTRY:
        r = run_check(G, check, BUDGET, name=name)
        observed = r.observed
        if check == "THM_1_3_EULER" and observed is not None:
            observed = {k: v for k, v in observed.items() if k != "reason"}
        out.append((check, r.status, r.expected, observed, r.reason))
    return out


def test_verdicts_do_not_depend_on_labels_or_spelling(group):
    # every check and question gives the same verdict on two relabellings
    # of each default-catalog group as on the group as built, and on both
    # spellings of each of three isomorphic pairs; certificates and node
    # counts may follow the labels, and are not compared
    for e in default_catalog():
        if e.formula_only:
            continue
        G = group(e.spec)
        want = _verdicts(G, e.spec)
        for seed in (1, 2):
            assert _verdicts(relabelled(G, seed)[0], e.spec) == want, (e.spec, seed)
    for a, b in (("C2 x C6", "C2^2 x C3"), ("C4 x C3", "C12"), ("C2^2 x C9", "C2 x C18")):
        assert _verdicts(group(a), "G") == _verdicts(group(b), "G"), (a, b)


def test_prop_2_9_no_partner_without_isomorphism(group):
    # C2^2 x M27, M27 = <a, b | a^9 = b^3 = 1, b a b^-1 = a^4> acting on
    # Z/9, has the order and element orders of C2^2 x C9 x C3 but is not
    # isomorphic to it, so it gets no partner comparison
    from sympy.combinatorics import Permutation, PermutationGroup

    from gengraph.groups import Group

    fixed = [9, 10, 11, 12]
    gens = [Permutation([(x + 1) % 9 for x in range(9)] + fixed),
            Permutation([4 * x % 9 for x in range(9)] + fixed),
            Permutation([[9, 10]], size=13), Permutation([[11, 12]], size=13)]
    g = Group(permutation_table(PermutationGroup(gens)), name="C2^2 x M27")
    assert np.array_equal(np.sort(g.orders), np.sort(group("C2^2 x C9 x C3").orders))
    r = run_check(g, "PROP_2_9", BUDGET)
    assert r.status == "pass" and "partner" not in r.observed


def test_run_check_skips(group):
    r = run_check(group("Ex(1)"), "THM_1_1", BUDGET, name="Ex(1)")
    assert r.status == "skipped" and "nilpotent" in r.reason
    r = run_check(group("C1"), "THM_1_3_HAM", BUDGET, name="C1")
    assert r.status == "skipped" and "trivial" in r.reason
    r = run_check(group("C2^3"), "THM_1_1", BUDGET, name="C2^3")
    assert r.status == "skipped" and "TwoGenerated" in r.reason
    r = run_check(group("C12"), "LEM_2_2_DEG", BUDGET, name="C12")
    assert r.status == "skipped"  # lemma assumes noncyclic


def test_run_check_unknown_id(group):
    with pytest.raises(ValueError):
        run_check(group("C6"), "NO_SUCH_CHECK", BUDGET)


def test_every_check_covers_three_catalog_groups():
    report = run_catalog(default_catalog(), CHECK_IDS, budget=BUDGET,
                         catalog_name="default")
    applicable: dict[str, int] = {c: 0 for c in CHECK_IDS}
    for r in report.results:
        if r.status != "skipped":
            applicable[r.check] += 1
    for check, count in applicable.items():
        assert count >= 3, check


def test_catalog_all_pass_cached_report(catalog_report):
    assert catalog_report.summary["fail"] == 0
    assert catalog_report.summary["counterexample"] == 0
    assert catalog_report.summary["budget"] == 0
    assert catalog_report.summary["pass"] > 500


def test_scan_examples(group):
    r = scan_question(group("Ex(1)"), "Q_CONN", BUDGET, name="Ex(1)")
    assert r.status == "pass"
    assert r.observed == {"kappa": 24, "delta": 24}
    r = scan_question(group("C2^2"), "Q_HAM", BUDGET, name="C2^2")
    assert r.status == "pass"
    r = scan_question(group("C2"), "Q_HAM", BUDGET, name="C2")
    assert r.status == "pass"  # C2 is excluded from the question
    r = scan_question(group("Heis3"), "Q_CHROM", BUDGET, name="Heis3")
    assert r.status == "pass"
    assert r.observed["omega"] == r.observed["chi"] == 4


def test_scan_non_2gen_skipped(group):
    r = scan_question(group("C2^3"), "Q_CONN", BUDGET, name="C2^3")
    assert r.status == "skipped"


def test_empty_catalog():
    report = run_catalog((), CHECK_IDS, budget=BUDGET)
    assert report.results == ()
    assert report.summary == {"pass": 0, "fail": 0, "skipped": 0,
                              "budget": 0, "counterexample": 0, "error": 0}


def test_catalog_with_non_2gen_cayley_file(tmp_path, group):
    path = tmp_path / "c2cubed.cayley"
    save_cayley_file(group("C2^3"), path)
    entries = (CatalogEntry(f"file:{path}"),)
    report = run_catalog(entries, ("THM_1_1",), budget=BUDGET)
    assert report.results[0].status == "skipped"
    assert "TwoGenerated" in report.results[0].reason


def test_catalog_build_failure_recorded(tmp_path):
    entries = (CatalogEntry("file:/nonexistent/nothing.cayley"),
               CatalogEntry("C6"))
    report = run_catalog(entries, ("THM_1_3_EULER", "LEM_2_1"), budget=BUDGET)
    # one skipped row per check of the failed entry
    for r in report.results[:2]:
        assert r.status == "skipped"
        assert r.reason.startswith("build failed: CayleyFileError: ")
    assert [r.status for r in report.results[2:]] == ["pass", "pass"]


def test_catalog_oversized_cayley_entry_recorded(tmp_path):
    path = tmp_path / "big.cayley"
    path.write_text("cayley 1\n2\n0 1\n1 99999999999999999999\n")
    report = run_catalog((CatalogEntry(f"file:{path}"),), ("THM_1_1",),
                         budget=BUDGET)
    assert report.results[0].status == "skipped"
    assert "build failed" in report.results[0].reason
    assert "table entry out of range" in report.results[0].reason


def test_catalog_file_loader(tmp_path, group):
    table = tmp_path / "c#6.cayley"
    save_cayley_file(group("C6"), table)
    path = tmp_path / "groups.txt"
    path.write_text("# a comment\nC6\nC2^2 x C9  # inline comment\n"
                    "C2^2 x C3^2 x C5 !formula-only\nC6#note\n"
                    f"C2 x file:{table}  # a '#' inside a path is the path's\n\n")
    entries = load_catalog_file(str(path))
    assert [e.spec for e in entries] == ["C6", "C2^2 x C9", "C2^2 x C3^2 x C5", "C6",
                                         f"C2 x file:{table}"]
    assert [e.formula_only for e in entries] == [False, False, True, False, False]
    report = run_catalog(entries[-1:], ("LEM_2_1",), budget=BUDGET)
    assert report.results[0].status == "pass", report.results[0]


def test_report_json_schema(catalog_report):
    doc = json.loads(catalog_report.to_json())
    assert set(doc) == {"version", "catalog", "results", "summary"}
    assert doc["version"] == "0.1.0"
    row = doc["results"][0]
    assert {"group", "check", "status", "expected", "observed", "nodes"} <= set(row)
    table = catalog_report.to_table()
    assert table.endswith("\n") and "summary:" in table


def _reference_json(report: Report) -> str:
    doc = {"version": report.tool_version, "catalog": report.catalog,
           "results": [r.to_dict() for r in report.results],
           "summary": report.summary}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_report_json_is_json_dumps(catalog_report):
    """`to_json` writes the document's head and tail itself and encodes one
    result at a time; its text is json's own encoding of the whole report."""
    empty = run_catalog((), CHECK_IDS, budget=BUDGET)
    results = catalog_report.results[:20]
    quoted = Report("0.1.0", 'a "quoted"\nname, Φ(G) ≠ 1 \\ über', results,
                    summarize(results))
    assert any(r.certificate is not None for r in catalog_report.results)
    for report in (empty, quoted, catalog_report):
        assert report.to_json() == _reference_json(report)


def test_report_json_peak_memory(catalog_report):
    """Encoding the default-catalog report holds no whole-report chunk list:
    tracemalloc peaks at no more than 4 times the text's length."""
    catalog_report.to_json()  # first calls, outside the measure
    tracemalloc.start()
    try:
        text = catalog_report.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_formula_only_entries_skip_heavy_checks(catalog_report):
    rows = [r for r in catalog_report.results if r.group == "C2^2 x C3^2 x C5"]
    by_check = {r.check: r for r in rows}
    assert by_check["THM_1_1"].status == "skipped"
    assert by_check["REMARK_FACTS"].status == "pass"
    assert by_check["THM_1_3_EULER"].status == "pass"
    assert by_check["SANDWICH_5_5_5_6"].status == "pass"


def test_fail_paths_are_values(group, monkeypatch):
    # force a miscomputed expected value to confirm the fail path carries both sides
    import gengraph.verify as V

    real = V.formula_min_degree
    monkeypatch.setattr(V, "formula_min_degree", lambda st: real(st) + 1)
    r = run_check(group("C2^2"), "THM_1_1", BUDGET, name="C2^2")
    assert r.status == "fail"
    assert r.expected is not None and r.observed is not None


def test_failed_reverification_is_a_fail(monkeypatch, capsys, tmp_path):
    import gengraph.constructions as C
    from gengraph.build import build_cached, build_group
    from gengraph.cli import main

    monkeypatch.setattr(C, "verify_certificate", lambda *args, **kwargs: False)
    # fresh groups: a group whose γt is already cached would not re-verify
    r = run_check(build_group("C2^2 x C3"), "THM_1_4_TDN", BUDGET, name="C2^2 x C3")
    assert r.status == "fail" and r.reason.startswith("ConstructionError")
    build_cached.cache_clear()
    cat = tmp_path / "cat.txt"
    cat.write_text("C2^2 x C3\n")
    code = main(["verify", "--catalog", str(cat), "--checks", "THM_1_4_TDN",
                 "--no-header"])
    assert code == 1
    assert "fail=1" in capsys.readouterr().out


# a certificate of the same type that its graph rejects: a minimum cut less
# one entry, a walk that is no longer closed, a cycle or clique that repeats
# a vertex, a colouring with one colour, an empty dominating set
_BROKEN = {
    VertexCut: lambda c: VertexCut(c.vertices[1:]),
    EdgeCut: lambda c: EdgeCut(c.edges[1:]),
    EulerCircuit: lambda c: EulerCircuit(c.vertices[1:]),
    HamCycle: lambda c: HamCycle(c.vertices[:-1] + c.vertices[:1]),
    Clique: lambda c: Clique(c.vertices + c.vertices[:1]),
    Coloring: lambda c: Coloring((0,) * len(c.colors)),
    DominatingSet: lambda c: DominatingSet(()),
}


@pytest.mark.parametrize("check_id, spec, cert_type", [
    ("THM_1_1", "C2^2 x C3", VertexCut),
    ("Q_CONN", "C2^2 x C3", VertexCut),
    ("REM_3_5", "C2^2 x C3", EdgeCut),
    ("THM_1_5", "C6", Clique),
    ("Q_CHROM", "A5", Coloring),
    ("THM_1_3_EULER", "C9", EulerCircuit),
    ("THM_1_3_HAM", "C2^2 x C3", HamCycle),
    ("THM_1_4_TDN", "C2^2 x C3", DominatingSet),
    ("Q_HAM", "S4", HamCycle),
])
def test_broken_certificate_is_a_fail(group, monkeypatch, check_id, spec, cert_type):
    """Each check that reports a certificate, its certificate swapped for a
    broken one of the same type: run_check re-verifies it and fails, with
    both sides kept and the certificate left out.  A5 and S4 are sympy's,
    so Q_CHROM is the counterexample ω < χ and Q_HAM runs the search."""
    import dataclasses

    import gengraph.verify as V

    G = lattice_test_groups()[spec] if spec in ("A5", "S4") else group(spec)
    check = V.REGISTRY[check_id]
    good = run_check(G, check_id, BUDGET)
    assert good.status == ("counterexample" if spec == "A5" else "pass")
    assert type(good.certificate) is cert_type

    def broken(G, budget):
        out = check.compute(G, budget)
        return dataclasses.replace(out, certificate=_BROKEN[cert_type](out.certificate))

    monkeypatch.setitem(V.REGISTRY, check_id, dataclasses.replace(check, compute=broken))
    r = run_check(G, check_id, BUDGET)
    assert (r.status, r.reason) == ("fail", "certificate failed re-verification")
    assert (r.expected, r.observed, r.certificate) == (good.expected, good.observed, None)


@pytest.mark.parametrize("error, status", [
    ("ConstructionError", "fail"),
    ("NotNilpotentError", "fail"),
    ("NotTwoGeneratedError", "fail"),
    ("OrderGuardError", "fail"),
    ("GroupLawError", "fail"),
    ("NonIntegralRatioError", "fail"),
    ("DominationUndefinedError", "fail"),
])
def test_error_status_mapping(group, monkeypatch, error, status):
    """A package error raised inside a check that passed its gate is a fail,
    on a theorem check and on an open question alike: never a skip, and
    never a counterexample."""
    import dataclasses

    import gengraph.errors as E
    import gengraph.verify as V

    def broken(G, budget):
        raise getattr(E, error)("injected")
    for check in ("THM_1_1", "Q_CONN"):
        record = dataclasses.replace(V.REGISTRY[check], compute=broken)
        monkeypatch.setitem(V.REGISTRY, check, record)
        r = run_check(group("C6"), check, BUDGET, name="C6")
        assert r.status == status
        assert r.reason == f"{error}: injected"
        assert r.reason in Report("v", "c", (r,), summarize((r,))).to_table()


@pytest.mark.parametrize("jobs", [1, 2])
def test_unexpected_exception_is_an_error(monkeypatch, tmp_path, capsys, jobs):
    import dataclasses

    import gengraph.verify as V
    from gengraph.cli import main

    entries = (CatalogEntry("C5"), CatalogEntry("C6"), CatalogEntry("C2^2"))
    clean = run_catalog(entries, budget=BUDGET)
    real = V.REGISTRY["THM_1_1"].compute

    def broken(G, budget):
        if G.n == 6:
            raise RuntimeError("injected")
        return real(G, budget)
    record = dataclasses.replace(V.REGISTRY["THM_1_1"], compute=broken)
    monkeypatch.setitem(V.REGISTRY, "THM_1_1", record)
    report = run_catalog(entries, budget=BUDGET)
    assert len(report.results) == len(clean.results)
    for got, want in zip(report.results, clean.results):
        if (got.group, got.check) == ("C6", "THM_1_1"):
            assert got.status == "error" and got.reason == "RuntimeError: injected"
        else:
            assert got == want
    assert report.summary["error"] == 1
    path = tmp_path / "catalog.txt"
    path.write_text("C5\nC6\nC2^2\n")
    code = main(["verify", "--catalog", str(path), "--jobs", str(jobs), "--no-header"])
    assert code == 1
    assert "error=1" in capsys.readouterr().out


def test_summarize_counts():
    from gengraph.verify import CheckResult
    rows = [CheckResult("g", "c", "pass"), CheckResult("g", "c", "skipped"),
            CheckResult("g", "c", "fail")]
    s = summarize(rows)
    assert s["pass"] == 1 and s["fail"] == 1 and s["skipped"] == 1


def test_registry_order_and_fields():
    from gengraph.verify import QUESTION_IDS, REGISTRY

    assert CHECK_IDS == (
        "THM_1_1", "THM_1_3_EULER", "THM_1_3_HAM", "THM_1_4_TDN", "THM_1_5",
        "LEM_2_1", "EQ_LEX", "LEM_2_2_DEG", "COR_2_6_PROD", "REMARK_FACTS",
        "PROP_2_9", "LEM_3_1_KAPPA", "REM_3_5", "LEM_5_3_SUB", "SANDWICH_5_5_5_6")
    assert QUESTION_IDS == ("Q_CONN", "Q_HAM", "Q_CHROM")
    assert {c for c in REGISTRY if REGISTRY[c].formula_only} == {
        "REMARK_FACTS", "THM_1_3_EULER", "THM_1_4_TDN", "SANDWICH_5_5_5_6", "PROP_2_9"}
    assert all(REGISTRY[q].false_status == "counterexample" for q in QUESTION_IDS)


def test_scan_question_rejects_theorem_ids(group):
    with pytest.raises(ValueError):
        scan_question(group("C6"), "THM_1_1", BUDGET)


def test_census_mismatch_is_a_fail(group, monkeypatch):
    import gengraph.generating as GEN
    import gengraph.verify as V

    real = GEN.formula_nonisolated
    monkeypatch.setattr(GEN, "formula_nonisolated", lambda st: real(st) + 1)
    r = V.run_check(group("C2^2 x C3"), "REMARK_FACTS", BUDGET, name="C2^2 x C3")
    assert (r.status, r.reason) == ("fail", None)
    assert (r.expected["V_delta"], r.observed["V_delta"]) == (10, 9)


def test_broken_frattini_quotient_is_a_fail(monkeypatch, capsys, tmp_path):
    """The checks on C2^2 x C9 that read its Frattini quotient pass.  With
    the quotient built from its table with sorted rows, which fails the
    group laws, each is a fail with the GroupLawError as its reason, not a
    skip, and `verify` exits 1."""
    import gengraph.groups as GR
    from gengraph.build import build_cached
    from gengraph.cli import main

    checks = ("EQ_LEX", "LEM_2_2_DEG", "REMARK_FACTS", "LEM_3_1_KAPPA")
    cat = tmp_path / "cat.txt"
    cat.write_text("C2^2 x C9\n")
    argv = ["verify", "--catalog", str(cat), "--checks", ",".join(checks),
            "--format", "json", "--no-header"]

    def run() -> tuple[int, list]:
        build_cached.cache_clear()  # a fresh group, whose quotient is not memoised
        code = main(argv)
        results = json.loads(capsys.readouterr().out)["results"]
        return code, [(r["status"], r.get("reason")) for r in results]

    assert run() == (0, [("pass", None)] * len(checks))
    real = GR.Group

    def sorted_rows(table, **kwargs):
        if kwargs["name"].endswith("/Frat"):
            table = np.sort(table, axis=1)
        return real(table, **kwargs)
    monkeypatch.setattr(GR, "Group", sorted_rows)
    reason = "GroupLawError: index 0 is not a two-sided identity"
    assert run() == (1, [("fail", reason)] * len(checks))
    build_cached.cache_clear()


def test_certificate_cap(group, monkeypatch):
    import gengraph.verify as V

    r = run_check(group("C12"), "THM_1_3_HAM", BUDGET, name="C12")
    assert r.status == "pass" and len(r.certificate.vertices) == 12
    monkeypatch.setattr(V, "CERT_SIZE_LIMIT", 11)
    r = run_check(group("C12"), "THM_1_3_HAM", BUDGET, name="C12")
    assert r.status == "pass" and r.certificate is None


def test_budget_status_from_shared_search_step(group):
    for check in ("THM_1_5", "Q_CHROM"):
        r = run_check(group("C2^2 x C3"), check, 1, name="G")
        assert r.status == "budget" and r.reason == "node budget exhausted"
        assert r.nodes >= 1
    # the γt checks share one search and each reports the nodes it spent;
    # LEM_5_3_SUB adds the searches on its two factors
    G = group("C2^2 x C3^2")
    for budget in (1, 3):
        tdn, sandwich, sub = (run_check(G, check, budget, name="G") for check in
                              ("THM_1_4_TDN", "SANDWICH_5_5_5_6", "LEM_5_3_SUB"))
        for r in (tdn, sandwich, sub):
            assert r.status == "budget" and r.reason == "node budget exhausted", r
            assert r.expected is None
        assert tdn.nodes == sandwich.nodes > budget
        assert sub.nodes > tdn.nodes


def test_lem_5_3_pass_reports_its_searches(group):
    # a pass counts the searches on both factors and the shared γt search
    from gengraph.constructions import nilpotent_td
    from gengraph.generating import coprime_noncyclic_split, delta_of
    from gengraph.search import total_domination

    for spec in ("C2^2 x C3^2", "C2^2 x Heis3", "C2^2 x C9 x C3"):
        G = group(spec)
        A, _, B, _ = coprime_noncyclic_split(G)
        spent = nilpotent_td(G, BUDGET).nodes + sum(
            total_domination(delta_of(X).graph, BUDGET).nodes for X in (A, B))
        r = run_check(G, "LEM_5_3_SUB", BUDGET, name=spec)
        assert r.status == "pass" and r.nodes == spent == 14, spec


def test_one_clique_search_per_gamma():
    from gengraph import search
    from gengraph.build import build_group
    from gengraph.generating import generating_graph
    from gengraph.graphs import Graph

    for spec in ("C12", "C2^2 x C3", "C3^2", "Heis3"):
        G = build_group(spec)  # uncached, so no search has run on its Gamma
        results = [run_check(G, check, BUDGET, name=spec) for check in ("THM_1_5", "Q_CHROM")]
        graph = generating_graph(G).graph
        # both checks read one chromatic search, its clique search
        # included, kept in Gamma's memo
        assert [key for key in graph._cache if key[0] == "chromatic_number"] == [
            ("chromatic_number", BUDGET)]
        ch = search.chromatic_number(graph, BUDGET)
        cl = ch.clique
        assert (cl.size, cl.clique.vertices, cl.nodes) == reference_clique_search(graph)
        # the reported count is that of one chromatic search on a fresh
        # graph, which counts the nodes of its own clique search once
        fresh = search.chromatic_number(Graph(graph.adj), BUDGET)
        assert fresh == ch and fresh.nodes >= cl.nodes
        for r in results:
            assert r.status == "pass" and r.nodes == fresh.nodes, r


# sha256 of the default-catalog JSON report; a change that alters the report
# on purpose updates the digest and records why in CHANGES.md
CATALOG_REPORT_SHA256 = "d70fa29fc153860d1e7d259059f8b7bf7a1b197044167b4c6c98ea5fbc744dae"


def test_catalog_report_digest(catalog_report):
    digest = hashlib.sha256(catalog_report.to_json().encode()).hexdigest()
    assert digest == CATALOG_REPORT_SHA256


# sha256 of the `verify`, `scan --question conn`, `ham` and `chrom` JSON
# reports on Cayley files of ten non-nilpotent groups; pinned like the
# catalog digest
NONNILPOTENT_REPORT_SHA256 = {
    "verify": "91f699b26961c8cf1db1d7aeaa1645584339e92b1e086feeef7c1400d89136ed",
    "conn": "03d264a59ed0a9cdad98348b00cf71c1d248427109630ca497d2dd1953997ef4",
    "ham": "12bbec825f24355eea9061ffcd2eb477c574f4c3e8fd52d7a81b0fb5f30bd4cd",
    "chrom": "7958aaee0f058c04fcaa89197a9eac99efd37af217ebc65f61affcc048835ffa",
}


def test_nonnilpotent_report_digests(tmp_path, monkeypatch):
    from sympy.combinatorics.named_groups import (
        AlternatingGroup,
        DihedralGroup,
        SymmetricGroup,
    )

    from gengraph.cli import main
    from gengraph.groups import Group

    groups = [Group(permutation_table(pg))
              for pg in (SymmetricGroup(3), AlternatingGroup(4), DihedralGroup(9))]
    groups += lattice_test_groups().values()
    # relative paths, so that the reports name no temporary directory
    monkeypatch.chdir(tmp_path)
    names = []
    for i, G in enumerate(groups):
        names.append(f"nonnilpotent{i}.cayley")
        save_cayley_file(G, names[-1])
    Path("groups.txt").write_text("".join(f"file:{name}\n" for name in names))
    runs = {"verify": ["verify", "--catalog", "groups.txt"]}
    runs |= {q: ["scan", "--question", q, "--groups", "groups.txt"]
             for q in ("conn", "ham", "chrom")}
    digests = {}
    for key, argv in runs.items():
        main(argv + ["--format", "json", "--no-header", "-o", f"{key}.json"])
        digests[key] = hashlib.sha256(Path(f"{key}.json").read_bytes()).hexdigest()
    assert digests == NONNILPOTENT_REPORT_SHA256


def test_cold_catalog_matches_cached(catalog_report):
    from gengraph.build import build_cached

    build_cached.cache_clear()
    cold = run_catalog(default_catalog(), catalog_name="default")
    assert cold.to_json() == catalog_report.to_json()


def test_verify_starts_no_thread(monkeypatch, capsys):
    import threading

    from gengraph.cli import main

    def refuse(self):
        raise AssertionError("verify started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    outs = []
    for jobs in ("1", "2"):
        assert main(["verify", "--jobs", jobs, "--format", "json", "--no-header"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
