"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

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


def test_stats_non_nilpotent_exit_2(capsys):
    code, _, err = run_cli(capsys, "stats", "Ex(1)", "--no-header")
    assert code == 2 and "nilpotent" in err


def test_verify_small_catalog(capsys, tmp_path):
    cat = tmp_path / "cat.txt"
    cat.write_text("C6\nC2^2\nHeis3\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(cat),
                           "--checks", "THM_1_1,THM_1_3_EULER,EQ_LEX",
                           "--no-header")
    assert code == 0
    assert "summary:" in out and "fail=0" in out


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


def test_hamcycle_constructed(capsys):
    code, out, _ = run_cli(capsys, "hamcycle", "C3^2", "--no-header")
    assert code == 0
    assert "status: hamiltonian" in out
    assert "chords:" in out
    code, out, _ = run_cli(capsys, "hamcycle", "C2", "--no-header")
    assert code == 1
    assert "not hamiltonian" in out


def test_hamcycle_budget_exit_3(capsys):
    code, out, _ = run_cli(capsys, "hamcycle", "C2^2 x C3^2",
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


def test_max_order_env(capsys, monkeypatch):
    monkeypatch.setenv("GENGRAPH_MAX_ORDER", "10")
    code, _, err = run_cli(capsys, "info", "C12")
    assert code == 2 and "guard" in err
    monkeypatch.setenv("GENGRAPH_MAX_ORDER", "300")
    code, _, _ = run_cli(capsys, "info", "C12")
    assert code == 0


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
    import gengraph.constructions as C

    monkeypatch.setattr(C, "verify_certificate", lambda *args, **kwargs: False)
    groups = tmp_path / "groups.txt"
    groups.write_text("C6\n")
    code, out, _ = run_cli(capsys, "scan", "--question", "ham", "--groups",
                           str(groups), "--format", "json", "--no-header")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 1
    assert doc["results"][0]["reason"].startswith("ConstructionError: ")


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
