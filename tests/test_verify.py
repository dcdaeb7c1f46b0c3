"""Theorem checks, scans, catalog runs, and report determinism."""

from __future__ import annotations

import json

import pytest

from gengraph.build import save_cayley_file
from gengraph.search import SearchBudget
from gengraph.verify import (
    CHECK_IDS,
    CatalogEntry,
    default_catalog,
    load_catalog_file,
    run_catalog,
    run_check,
    scan_question,
    summarize,
)

BUDGET = SearchBudget(10_000_000)


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
    report = run_catalog(default_catalog(), CHECK_IDS, jobs=1, budget=BUDGET,
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
    report = run_catalog((), CHECK_IDS, jobs=1, budget=BUDGET)
    assert report.results == ()
    assert report.summary == {"pass": 0, "fail": 0, "skipped": 0,
                              "budget": 0, "counterexample": 0}


def test_catalog_with_non_2gen_cayley_file(tmp_path, group):
    path = tmp_path / "c2cubed.cayley"
    save_cayley_file(group("C2^3"), path)
    entries = (CatalogEntry(f"file:{path}"),)
    report = run_catalog(entries, ("THM_1_1",), jobs=1, budget=BUDGET)
    assert report.results[0].status == "skipped"
    assert "TwoGenerated" in report.results[0].reason


def test_catalog_build_failure_recorded(tmp_path):
    entries = (CatalogEntry("file:/nonexistent/nothing.cayley"),
               CatalogEntry("C6"))
    report = run_catalog(entries, ("THM_1_3_EULER",), jobs=1, budget=BUDGET)
    assert report.results[0].status == "skipped"
    assert "build failed" in report.results[0].reason
    assert report.results[1].status == "pass"


def test_catalog_file_loader(tmp_path):
    path = tmp_path / "groups.txt"
    path.write_text("# a comment\nC6\nC2^2 x C9  # inline comment\n"
                    "C2^2 x C3^2 x C5 !formula-only\n\n")
    entries = load_catalog_file(str(path))
    assert [e.spec for e in entries] == ["C6", "C2^2 x C9", "C2^2 x C3^2 x C5"]
    assert [e.formula_only for e in entries] == [False, False, True]


def test_report_json_schema(catalog_report):
    doc = json.loads(catalog_report.to_json())
    assert set(doc) == {"version", "catalog", "results", "summary"}
    assert doc["version"] == "0.1.0"
    row = doc["results"][0]
    assert {"group", "check", "status", "expected", "observed", "nodes"} <= set(row)
    table = catalog_report.to_table()
    assert table.endswith("\n") and "summary:" in table


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


def test_failed_reverification_is_a_fail(group, monkeypatch, capsys, tmp_path):
    import gengraph.constructions as C
    from gengraph.cli import main

    monkeypatch.setattr(C, "verify_certificate", lambda *args, **kwargs: False)
    r = run_check(group("C2^2 x C3"), "THM_1_4_TDN", BUDGET, name="C2^2 x C3")
    assert r.status == "fail" and r.reason.startswith("ConstructionError")
    cat = tmp_path / "cat.txt"
    cat.write_text("C2^2 x C3\n")
    code = main(["verify", "--catalog", str(cat), "--checks", "THM_1_4_TDN",
                 "--no-header"])
    assert code == 1
    assert "fail=1" in capsys.readouterr().out


@pytest.mark.parametrize("error, status", [
    ("InternalMismatchError", "fail"),
    ("ConstructionError", "fail"),
    ("NotNilpotentError", "skipped"),
    ("NotTwoGeneratedError", "skipped"),
    ("OrderGuardError", "skipped"),
])
def test_error_status_mapping(group, monkeypatch, error, status):
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
    assert r.status == "fail"
    assert r.reason.startswith("InternalMismatchError: ")


def test_certificate_cap(group, monkeypatch):
    import gengraph.verify as V

    r = run_check(group("C12"), "THM_1_3_HAM", BUDGET, name="C12")
    assert r.status == "pass" and len(r.certificate.vertices) == 12
    monkeypatch.setattr(V, "CERT_SIZE_LIMIT", 11)
    r = run_check(group("C12"), "THM_1_3_HAM", BUDGET, name="C12")
    assert r.status == "pass" and r.certificate is None


def test_budget_status_from_shared_search_step(group):
    for check in ("THM_1_5", "Q_CHROM"):
        r = run_check(group("C2^2 x C3"), check, SearchBudget(1), name="G")
        assert r.status == "budget" and r.reason == "node budget exhausted"
        assert r.nodes >= 1


def test_cold_parallel_catalog_matches_serial(catalog_report):
    from gengraph.build import build_cached

    build_cached.cache_clear()
    cold = run_catalog(default_catalog(), jobs=2, catalog_name="default")
    assert cold.to_json() == catalog_report.to_json()
