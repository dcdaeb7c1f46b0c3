"""Every committed BENCH_*.json parses, and every perfbench line it records
comes from a run whose verdicts were correct and whose operations all
succeeded."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_lines_are_correct(path):
    runs = json.loads(path.read_text())["runs"]
    assert runs
    for run in runs:
        line = run["line"]
        assert line["correct"] is True, run
        assert line["failed"] == 0, run
