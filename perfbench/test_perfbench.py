"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import base64
import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import permgroups  # noqa: E402
import run  # noqa: E402
import xcheck  # noqa: E402
from tracer import Tracer, metric_names, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_nested_spans():
    spans = [
        (0, 100, None),   # 0: root
        (10, 30, 0),      # 1: child of 0
        (12, 20, 1),      # 2: grandchild
        (40, 90, 0),      # 3: child of 0
    ]
    assert self_times(spans) == {0: 100 - 20 - 50, 1: 20 - 8, 2: 8, 3: 50}


def test_self_time_overlapping_children_are_merged_and_clipped():
    # two worker threads' spans overlap each other and one outlives the parent
    spans = [(0, 100, None), (10, 60, 0), (40, 80, 0), (90, 120, 0)]
    assert self_times(spans)[0] == 100 - (80 - 10) - (100 - 90)


def test_tracer_attributes_worker_threads_to_main_span():
    tr = Tracer()
    root = tr._open("cli.main")
    done = threading.Event()

    def work():
        idx = tr._open("verify.THM_1_1")
        tr._close(idx)
        done.set()

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=10)
    assert done.is_set() and not t.is_alive()
    tr._close(root)
    assert tr.spans[1][3] == root


# ---------------------------------------------------------------------------
# the tracer leaves reports unchanged


def _small_run(tmp_path: Path, traced: bool) -> tuple[bytes, dict | None]:
    from gengraph import cli

    tr = None
    if traced:
        tr = Tracer()
        tr.install()
    try:
        paths = permgroups.write_files(3, tmp_path / "g")[:4]
        catalog = tmp_path / "cat.txt"
        catalog.write_text("C6\nC2^2 x C3\nHeis3\n" + "".join(f"file:{p}\n" for p in paths))
        out = tmp_path / "r.json"
        blob = b""
        for argv in (["verify", "--catalog", str(catalog), "--jobs", "2"],
                     ["scan", "--question", "chrom", "--groups", str(catalog)]):
            assert cli.main(argv + ["--format", "json", "--no-header", "-o", str(out)]) == 0
            blob += out.read_bytes()
    finally:
        if tr is not None:
            tr.uninstall()
    return blob, tr.metrics() if tr else None


def test_traced_report_is_byte_identical(tmp_path):
    plain, _ = _small_run(tmp_path, traced=False)
    traced, layers = _small_run(tmp_path, traced=True)
    assert plain == traced
    assert list(layers) == metric_names()
    assert layers["groups.Group.calls"] > 0
    assert layers["groups.closure_calls"] > 0
    assert 0 < layers["groups.closure_distinct_ratio"] <= 1
    assert layers["graphs.maxflow_calls"] > 0
    assert layers["verify.Q_CHROM.incl_s"] > 0


def test_uninstall_restores_every_binding():
    import gengraph.cli
    import gengraph.groups
    import gengraph.verify

    before = (gengraph.verify.vertex_connectivity, gengraph.cli.main,
              gengraph.groups._closure_members, gengraph.groups.Group.__init__)
    tr = Tracer()
    tr.install()
    assert gengraph.verify.vertex_connectivity is not before[0]
    assert gengraph.graphs.vertex_connectivity is gengraph.verify.vertex_connectivity
    tr.uninstall()
    after = (gengraph.verify.vertex_connectivity, gengraph.cli.main,
             gengraph.groups._closure_members, gengraph.groups.Group.__init__)
    assert after == before


# ---------------------------------------------------------------------------
# generated Cayley files


def test_generated_tables_load_and_validate(tmp_path):
    from gengraph.build import load_cayley_file
    from gengraph.groups import is_nilpotent, is_two_generated

    paths = permgroups.write_files(11, tmp_path)
    assert [p.stem for p in paths] == list(permgroups.generators(9))
    for path in paths:
        G = load_cayley_file(path)
        want = permgroups.EXPECTED_ORDERS.get(path.stem, 2 * permgroups.dihedral_m(11))
        assert G.n == want
        assert not is_nilpotent(G)
        assert is_two_generated(G)


def test_seed_fixes_the_files(tmp_path):
    a = [p.read_bytes() for p in permgroups.write_files(5, tmp_path / "a")]
    b = [p.read_bytes() for p in permgroups.write_files(5, tmp_path / "b")]
    c = [p.read_bytes() for p in permgroups.write_files(6, tmp_path / "c")]
    assert a == b
    assert a != c


def test_dihedral_choice_is_never_nilpotent():
    for m in permgroups.DIHEDRAL_M:
        assert m & (m - 1) != 0


def test_relabelling_keeps_identity_at_zero():
    elements = permgroups.perm_closure(permgroups.generators(9)["S4"])
    rows = permgroups.cayley_rows(elements, random.Random(0))
    assert rows[0] == list(range(len(rows)))
    assert [r[0] for r in rows] == list(range(len(rows)))


# ---------------------------------------------------------------------------
# verdict gate and cross-check


def _report(tmp_path: Path, results: list[dict]) -> Path:
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"results": results}))
    return path


def test_gate_counts_mismatches_and_accepts_counterexample_exit(tmp_path):
    rows = [{"group": "file:x/A5.cayley", "check": "Q_CHROM", "status": "counterexample"},
            {"group": "file:x/S3.cayley", "check": "Q_CHROM", "status": "pass"}]
    path = _report(tmp_path, rows)
    plan = {"keys": ["scan chrom"], "reports": [str(path)]}
    expected = {"scan chrom": {"A5": {"Q_CHROM": "counterexample"},
                               "S3": {"Q_CHROM": "pass"}}}
    assert run.gate(plan, expected, {"exit_codes": [1]})[:3] == (2, 0, 2)
    # exit code 0 would hide the counterexample: every pair fails
    assert run.gate(plan, expected, {"exit_codes": [0]})[:2] == (2, 2)
    # a crash fails every pair
    assert run.gate(plan, expected, None)[:2] == (2, 2)
    expected["scan chrom"]["S3"]["Q_CHROM"] = "skipped"
    assert run.gate(plan, expected, {"exit_codes": [1]})[:2] == (2, 1)


def test_expected_tables_match_recorded_counts():
    cat = json.loads((HERE / "expected" / "catalog.json").read_text())["verify"]
    statuses = [s for checks in cat.values() for s in checks.values()]
    assert len(cat) == 56 and len(statuses) == 840
    assert statuses.count("pass") == 588 and statuses.count("skipped") == 252
    nn = json.loads((HERE / "expected" / "nonnilpotent_files.json").read_text())
    assert "fail" not in {s for c in nn["verify"].values() for s in c.values()}
    chrom = nn["scan chrom"]
    assert {g for g, c in chrom.items() if c["Q_CHROM"] == "counterexample"} == {"A5", "S5"}


@pytest.mark.parametrize("kind,value", [("kappa", 2), ("lambda", 2), ("omega", 3)])
def test_crosscheck_solves_a_cycle(tmp_path, kind, value):
    adj = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = True
    adj[0, 2] = adj[2, 0] = True       # one chord: a triangle, still 2-connected
    packed = {"n": 5, "bits": base64.b64encode(np.packbits(adj, axis=None).tobytes()).decode()}
    entry = {"group": "g", "delta": packed, "gamma": packed, kind: [value]}
    cache = tmp_path / "cache.json"
    assert xcheck.crosscheck([entry], cache) == (1, [])
    entry[kind] = [value + 1]
    checked, bad = xcheck.crosscheck([entry], cache)
    assert checked == 1 and len(bad) == 1


# ---------------------------------------------------------------------------
# reference-speed time


def test_reference_seconds_scales_each_stretch_by_its_probes():
    ref = run.PROBE_REF_S
    # launched at 0; warm-up probe 0.1; probes of ref, 2*ref, 2*ref seconds
    # at 1, 2 and 3: the host halves its speed after the first second
    result = {"probe_warmup": 0.1,
              "probe_samples": [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref)]}
    got = run.reference_seconds(0.0, result)
    want = 0.9 + (1.0 - ref) / 1.5 + (1.0 - 2 * ref) / 2
    assert got == pytest.approx(want)
    assert run.reference_seconds(0.0, None) == 0.0


def test_reference_seconds_equals_wall_time_at_reference_speed():
    ref = run.PROBE_REF_S
    samples = [(0.5 + 0.2 * i, ref) for i in range(50)]
    result = {"probe_warmup": ref, "probe_samples": samples, "t_end": samples[-1][0]}
    probe_time = ref + ref * 49                     # warm-up and the timed probes
    assert run.reference_seconds(0.0, result) == pytest.approx(
        run.wall_seconds(0.0, result) - probe_time)


def test_speed_probe_samples_through_the_region_without_bytecode_inside():
    import types

    import child

    probe = child.SpeedProbe()
    # clock, work, clock: all C callables, run from one bytecode, so no
    # other thread can take the GIL between the two clock readings
    assert probe.calls[0] is probe.calls[-1] is child.time.monotonic
    assert not any(isinstance(getattr(c, "func", c), types.FunctionType)
                   for c in probe.calls)
    probe.start()
    deadline = child.time.monotonic() + 1.0
    while child.time.monotonic() < deadline:
        sum(range(1000))
    samples = probe.stop()["probe_samples"]
    assert len(samples) >= 1.0 / child.PROBE_INTERVAL
    assert all(b[0] > a[0] + a[1] for a, b in zip(samples, samples[1:]))


@pytest.mark.parametrize("workload, runs", [("catalog", 1), ("nonnilpotent_files", 2)])
def test_short_runs_time_each_labelling_the_plan_asks_for(monkeypatch, tmp_path,
                                                           workload, runs):
    labellings = []

    def fake_child(plan_path, mode, work):
        if mode == "run":
            files = sorted((work / "groups").glob("*.cayley"))
            labellings.append(tuple(p.read_text() for p in files))
        return 0.0, {"t_end": 1.0, "peak_rss_kb": 1024, "xcheck": []}

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "child", fake_child)
    monkeypatch.setattr(run, "reference_seconds", lambda start, result: 20.0)
    monkeypatch.setattr(run, "gate", lambda plan, expected, result: (1, 0, 1, []))
    monkeypatch.setattr(run.xcheck, "crosscheck", lambda entries, cache: (1, []))
    out = run.measure(workload, 1, 10.0, False)
    assert out["correct"] and out["metrics"]["wall_ref_s"]["value"] == 20.0
    assert len(labellings) == runs == len(set(labellings))
