"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from conftest import drop_first_gamma_edge, permutation_table, save_cayley_file
from gengraph.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "C2^2xC9", "--no-header")
    assert code == 0
    assert "order: 36" in out
    assert "nilpotent: yes" in out
    assert "r: 1" in out and "s: 1" in out
    assert "frattini_order: 3" in out
    assert "two_generated: yes" in out


def test_info_bad_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "info", "Heis4")
    assert code == 2
    assert "odd prime" in err


def test_info_oversized_cayley_entry_exit_2(capsys, tmp_path):
    path = tmp_path / "big.cayley"
    path.write_text("cayley 1\n2\n0 1\n1 99999999999999999999\n")
    code, _, err = run_cli(capsys, "info", f"file:{path}")
    assert code == 2
    assert "table entry out of range" in err and "Traceback" not in err


def test_graph_json_and_dot(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "graph", "C6", "--delta", "--format", "json",
                           "--no-header")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6 and len(doc["edges"]) == 11
    assert doc["self_dominating"] == [1, 5]
    code, out, _ = run_cli(capsys, "graph", "C6", "--format", "dot", "--no-header")
    assert code == 0 and out.startswith("graph")


def test_graph_deterministic_bytes(capsys):
    _, a, _ = run_cli(capsys, "graph", "C2^2 x C9", "--delta", "--no-header")
    _, b, _ = run_cli(capsys, "graph", "C2^2 x C9", "--delta", "--no-header")
    assert a == b


def test_header_contains_version(capsys):
    code, out, _ = run_cli(capsys, "info", "C6")
    assert code == 0 and out.startswith("# gengraph 0.1.0 ")


def test_stats(capsys):
    code, out, _ = run_cli(capsys, "stats", "C2^2 x C9", "--no-header")
    assert code == 0
    assert "gen_probability: 1/3" in out
    assert "nonisolated: 27" in out
    assert "min_degree: 12" in out


def test_stats_census_mismatch_exit_1(capsys, monkeypatch):
    import gengraph.generating as GEN

    real = GEN.formula_nonisolated
    monkeypatch.setattr(GEN, "formula_nonisolated", lambda st: real(st) + 1)
    code, out, _ = run_cli(capsys, "stats", "C2^2 x C9", "--no-header")
    assert code == 1
    assert "nonisolated: 28 (observed 27)" in out
    assert "status: the census differs from the closed-form values" in out


def test_stats_prints_a_class_of_mixed_degrees(capsys, monkeypatch):
    """On C2^2 less one edge of Gamma the recovery ratio is 3/2: `stats`
    reports the census and exits 1 without computing it."""
    import gengraph.cli as CLI
    import gengraph.generating as GEN

    drop_first_gamma_edge(monkeypatch)
    monkeypatch.setattr(CLI, "generating_graph", GEN.generating_graph)
    code, out, err = run_cli(capsys, "stats", "C2^2", "--no-header")
    assert (code, err) == (1, "")
    assert "degree=mixed" in out and "radical_statistic" not in out


def test_stats_non_nilpotent_exit_2(capsys):
    code, _, err = run_cli(capsys, "stats", "Ex(1)", "--no-header")
    assert code == 2 and "nilpotent" in err


def test_stats_trivial_group_exit_2(capsys):
    # the trivial group is outside the formulas, not a falsified census
    code, _, err = run_cli(capsys, "stats", "C1", "--no-header")
    assert code == 2 and "trivial group" in err
    assert "observed" not in err and "!=" not in err


def test_verify_small_catalog(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("C6\nC2^2\nHeis3\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(cat),
                           "--checks", "THM_1_1,THM_1_3_EULER,EQ_LEX",
                           "--no-header")
    assert code == 0
    assert "summary:" in out and "fail=0" in out


def test_verify_repeated_check_runs_once(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("C6\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(cat),
                           "--checks", "EQ_LEX,EQ_LEX", "--format", "json",
                           "--no-header")
    assert code == 0
    doc = json.loads(out)
    assert [r["check"] for r in doc["results"]] == ["EQ_LEX"]
    assert doc["summary"]["pass"] == 1


def test_verify_unknown_check_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "BOGUS", "--no-header")
    assert code == 2 and "unknown checks" in err


def test_verify_json_format(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("C6\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(cat),
                           "--checks", "THM_1_5", "--format", "json",
                           "--no-header")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "pass"


def test_scan(capsys, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("C2^2\nEx(1)\n")
    code, out, _ = run_cli(capsys, "scan", "--question", "conn",
                           "--groups", str(groups), "--no-header")
    assert code == 0
    assert "counterexample=0" in out


def test_tdn(capsys):
    code, out, _ = run_cli(capsys, "tdn", "3", "4", "6", "--no-header")
    assert code == 0
    assert "lower: 5" in out
    assert "upper: 6" in out
    assert "exact: 5" in out
    assert "witness:" in out


@pytest.mark.parametrize("argv", [
    ("scan", "--question", "conn", "--groups", "groups.txt", "--budget-nodes", "-1"),
    ("hamcycle", "C6", "--budget-nodes", "-1"),
    ("verify", "--budget-nodes", "-1"),
    ("tdn", "3", "4", "--budget-nodes", "-1"),
    ("tdn", "1", "3"),
    ("tdn", "3", "0"),
    ("verify", "--jobs", "-3"),
    ("verify", "--jobs", "0"),
    ("scan", "--question", "conn", "--groups", "groups.txt", "--jobs", "0"),
    ("info", "C6", "--max-order", "-5"),
    ("verify", "--max-order", "0"),
    ("hamcycle", "C6", "--max-order", "0"),
    ("graph", "C6", "--max-order", "-5"),
    ("scan", "--question", "conn", "--groups", "groups.txt", "--max-order", "0"),
    ("verify", "--checks", ","),
    ("verify", "--checks", " "),
])
def test_out_of_range_input_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be at least" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("info", "C6", "--budget-nodes", "5"),
    ("graph", "C6", "--budget-nodes", "5"),
    ("stats", "C6", "--budget-nodes", "5"),
    ("hamcycle", "C6", "--jobs", "2"),
    ("check-cert", "--graph", "g.json", "--cert", "c.json", "--budget-nodes", "5"),
])
def test_options_only_where_read(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "unrecognized arguments" in err


def test_hamcycle_constructed(capsys):
    code, out, _ = run_cli(capsys, "hamcycle", "C3^2", "--no-header")
    assert code == 0
    assert "status: hamiltonian" in out
    assert "chords:" in out
    code, out, _ = run_cli(capsys, "hamcycle", "C2", "--no-header")
    assert code == 1
    assert "not hamiltonian" in out


def test_hamcycle_refuses_groups_needing_three_generators(capsys, tmp_path):
    from sympy.combinatorics.named_groups import SymmetricGroup

    from gengraph.groups import Group

    # C2^3 is nilpotent; S3 x C2^2 is not, and its Δ has no vertices
    path = tmp_path / "s3.cayley"
    save_cayley_file(Group(permutation_table(SymmetricGroup(3))), path)
    for spec in ("C2^3", f"C2^2 x file:{path}"):
        code, out, err = run_cli(capsys, "hamcycle", spec, "--no-header")
        assert code == 2, spec
        assert out == "" and "needs more than 2 generators" in err, spec
        assert "Traceback" not in err, spec


def test_hamcycle_budget_exit_3(capsys):
    code, out, _ = run_cli(capsys, "hamcycle", "Ex(1)",
                           "--budget-nodes", "1", "--no-header")
    assert code == 3
    assert "budget" in out


def test_check_cert_round_trip(capsys, tmp_path):
    code, gjson, _ = run_cli(capsys, "graph", "C3^2", "--delta", "--no-header")
    gpath = tmp_path / "g.json"
    gpath.write_text(gjson)
    code, hout, _ = run_cli(capsys, "hamcycle", "C3^2", "--no-header")
    cert_line = [ln for ln in hout.splitlines() if ln.startswith("certificate:")][0]
    cpath = tmp_path / "c.json"
    cpath.write_text(cert_line.split(" ", 1)[1])
    code, out, _ = run_cli(capsys, "check-cert", "--graph", str(gpath),
                           "--cert", str(cpath), "--no-header")
    assert code == 0 and "valid" in out


def test_check_cert_rejects_wrong_cert(capsys, tmp_path):
    code, gjson, _ = run_cli(capsys, "graph", "C6", "--delta", "--no-header")
    gpath = tmp_path / "g.json"
    gpath.write_text(gjson)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"type": "ham_cycle", "vertices": [0, 2, 4, 1, 3, 5]}))
    code, out, _ = run_cli(capsys, "check-cert", "--graph", str(gpath),
                           "--cert", str(cpath), "--no-header")
    assert code == 1 and "INVALID" in out


def test_outside_input_order_guard(capsys, tmp_path, monkeypatch):
    import gengraph.cli as cli
    from gengraph.graphs import Graph

    def refuse(*args, **kwargs):
        raise AssertionError("built a graph beyond the order guard")
    monkeypatch.setattr(cli, "complete_product", refuse)
    monkeypatch.setattr(Graph, "from_edges", refuse)
    gpath = tmp_path / "g.json"
    gpath.write_text('{"order": 100000, "edges": []}')
    cpath = tmp_path / "c.json"
    cpath.write_text('{"type": "clique", "vertices": [0]}')
    for argv in (("tdn", "300", "300"),
                 ("check-cert", "--graph", str(gpath), "--cert", str(cpath)),
                 ("tdn", "3", "4", "--max-order", "11")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "exceeds guard" in err and "Traceback" not in err


def test_max_order_guards_every_catalog_entry(capsys, tmp_path):
    catalog = tmp_path / "groups.txt"
    catalog.write_text("C6\nC3\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(catalog), "--checks", "THM_1_1",
                           "--format", "json", "--no-header", "--max-order", "3")
    c6, c3 = json.loads(out)["results"]
    assert c6["status"] == "skipped" and "exceeds guard 3" in c6["reason"]
    assert c3["status"] == "pass" and code == 0


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "info", "C6", "--no-header", "-o", str(path))
    assert code == 0 and out == ""
    assert "order: 6" in path.read_text()


def test_usage_error(capsys):
    code = main(["not-a-command"])
    assert code == 2


def test_scan_jobs_2_matches_jobs_1(capsys, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("C2^2\nC6\nHeis3\nC2^3\nEx(1)\nC2^2 x C9\n")
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "scan", "--question", "chrom", "--groups",
                               str(groups), "--jobs", jobs, "--format", "json",
                               "--no-header")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_scan_construction_error_is_a_fail(capsys, tmp_path, monkeypatch):
    import gengraph.verify as V

    monkeypatch.setattr(V, "verify_certificate", lambda *args, **kwargs: False)
    groups = tmp_path / "groups.txt"
    groups.write_text("C6\n")
    code, out, _ = run_cli(capsys, "scan", "--question", "ham", "--groups",
                           str(groups), "--format", "json", "--no-header")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1
    assert doc["results"][0]["reason"] == "certificate failed re-verification"
    assert "certificate" not in doc["results"][0]


@pytest.mark.parametrize("argv", [("hamcycle", "C6"), ("hamcycle", "C2^2 x C3"),
                                  ("tdn", "2", "3")])
def test_unverified_witness_is_not_printed(capsys, monkeypatch, argv):
    import gengraph.cli as cli

    monkeypatch.setattr(cli, "verify_certificate", lambda *args, **kwargs: False)
    code, out, err = run_cli(capsys, *argv, "--no-header")
    assert code == 1
    assert "status: certificate failed re-verification" in out
    assert "certificate: {" not in out and "cycle:" not in out and "witness:" not in out
    assert "Traceback" not in err


def test_scan_skips_formula_only_and_names_build_errors(capsys, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("C6 !formula-only\nHeis4\n")
    code, out, _ = run_cli(capsys, "scan", "--question", "conn", "--groups",
                           str(groups), "--no-header")
    assert code == 0
    assert "formula-only catalog entry" in out
    assert "build failed: GroupSpecError:" in out


@pytest.mark.parametrize("graph, cert", [
    ('{"order": 3, "edges": [[0, 1]]}', '{"type": "clique"}'),
    ('{"order": 3, "edges": [[0, 1]]}', '[1, 2]'),
    ('{"order": 3, "edges": [[0, 5]]}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [[0, 1]]}', '{"type": "clique", "vertices": [0,'),
    ('{"order": 3, "edges": [[0, -1]]}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [[0, 1.5]]}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [[0, 1]]}', '{"type": "no_such", "vertices": [0]}'),
    ('{"order": 3, "edges": [[0, 1], [1, 2]]}', '{"type": "clique", "vertices": [[0], 1]}'),
    ('{"order": 3, "edges": [[0, 1], [1, 2]]}', '{"type": "coloring", "colors": ["a", 1, 2]}'),
    ('{"order": 3, "edges": [[0, 1], [1, 2]]}', '{"type": "edge_cut", "edges": [[0, 1, 2]]}'),
    ('{"order": 3, "edges": [[0, 1], [1, 2]]}',
     '{"type": "h_chords", "cycle": [0, 1, 2], "chord_odd": [1], "chord_even": null}'),
    ('{"order": 3, "edges": [[0, 1], [1, 2]]}', '{"type": "clique", "vertices": [true]}'),
    # the order guard refuses the order-10^7 matrix before it is allocated
    ('{"order": 10000000, "edges": []}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": true, "edges": []}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 2.7, "edges": []}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": -1, "edges": []}', '{"type": "clique", "vertices": [0]}'),
    ('{"edges": []}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [[0, true]]}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [], "vertices": ["a", "b"]}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [], "vertices": "abc"}', '{"type": "clique", "vertices": [0]}'),
    ('{"order": 3, "edges": [], "self_dominating": [1.5]}', '{"type": "clique", "vertices": [0]}'),
])
def test_check_cert_malformed_input_exit_2(capsys, tmp_path, graph, cert):
    gpath = tmp_path / "g.json"
    gpath.write_text(graph)
    cpath = tmp_path / "c.json"
    cpath.write_text(cert)
    code, _, err = run_cli(capsys, "check-cert", "--graph", str(gpath),
                           "--cert", str(cpath), "--no-header")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
