"""The gengraph benchmark: cold batch verification, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each timed iteration is a fresh
Python process that calls ``gengraph.cli.main`` (the code behind
``gengraph verify`` and ``gengraph scan``) for every command of the
workload.  Iterations repeat until their times at the reference speed (see
below) add up to ``--seconds``, and at least as often as the workload's
plan asks: once, or twice for ``nonnilpotent_files``.  Every report is
checked against the committed expected statuses, and the Delta graphs are
cross-checked with networkx once per invocation, outside the timed
iterations.

``--trace 0`` prints the end-to-end metrics.  Their times are given at a
reference speed: the child samples the host's speed while it is timed, and
the wall time is scaled by it (``reference_seconds``).  ``--trace 1`` runs
one untraced and one traced iteration, neither of them sampled, requires
their reports to be byte-identical, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import permgroups
import tracer
import xcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3     # at least; cheap set-ups repeat until SETUP_SECONDS
SETUP_SECONDS = 4.0
CHILD_TIMEOUT = 150   # seconds; a run must end within 180
PROBE_REF_S = 0.0025  # seconds one child.SpeedProbe sample takes at the reference speed
DECIDED = ("pass", "fail", "counterexample")
QUESTIONS = ("conn", "ham", "chrom")


# ---------------------------------------------------------------------------
# workloads


def _report_args(path: Path) -> list[str]:
    return ["--format", "json", "--no-header", "-o", str(path.relative_to(ROOT))]


def plan_catalog(work: Path, seed: int, iteration: int) -> dict:
    report = work / "verify.json"
    return {"catalog": "default", "reports": [str(report)],
            "keys": ["verify"],
            "commands": [["verify", "--catalog", "default", "--jobs", "1"]
                         + _report_args(report)]}


def plan_catalog_jobs2(work: Path, seed: int, iteration: int) -> dict:
    """The default catalog without its formula-only entries, at --jobs 2."""
    sys.path.insert(0, str(ROOT / "src"))
    from gengraph.verify import default_catalog

    catalog = work / "catalog.txt"
    catalog.write_text("".join(f"{e.spec}\n" for e in default_catalog()
                               if not e.formula_only))
    report = work / "verify.json"
    return {"catalog": str(catalog.relative_to(ROOT)), "reports": [str(report)],
            "keys": ["verify"],
            "commands": [["verify", "--catalog", str(catalog.relative_to(ROOT)),
                          "--jobs", "2"] + _report_args(report)]}


def plan_nonnilpotent_files(work: Path, seed: int, iteration: int) -> dict:
    """Each iteration relabels the groups anew, and a run has at least two.

    How long the clique and colouring searches of ``scan --question chrom``
    take depends on the labelling: over three seeds the clique search took
    from 5,898 to 207,646 nodes, and over ten seeds the whole scan took from
    2.3 to 6.9 s of CPU time.  Two iterations with their own labellings make
    a run's median less hostage to one labelling; a third would not fit the
    time all runs of the benchmark get.
    """
    paths = permgroups.write_files(seed, work / "groups", iteration)
    catalog = work / "catalog.txt"
    catalog.write_text("".join(f"file:{p.relative_to(ROOT)}\n" for p in paths))
    rel = str(catalog.relative_to(ROOT))
    commands = [["verify", "--catalog", rel] + _report_args(work / "verify.json")]
    reports = [str(work / "verify.json")]
    for q in QUESTIONS:
        report = work / f"scan_{q}.json"
        commands.append(["scan", "--question", q, "--groups", rel] + _report_args(report))
        reports.append(str(report))
    return {"catalog": rel, "reports": reports, "min_iterations": 2,
            "keys": ["verify"] + [f"scan {q}" for q in QUESTIONS],
            "commands": commands}


WORKLOADS = {
    "catalog": plan_catalog,
    "catalog_jobs2": plan_catalog_jobs2,
    "nonnilpotent_files": plan_nonnilpotent_files,
}


# ---------------------------------------------------------------------------
# processes


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GENGRAPH_MAX_ORDER", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def child(plan_path: Path, mode: str, work: Path) -> tuple[float, dict | None]:
    """Start one cold child; return (the monotonic clock at its launch, result).

    The result is None for a child that crashed, timed out or wrote none.
    """
    result_path = work / f"result_{mode}.json"
    result_path.unlink(missing_ok=True)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                               mode, str(result_path)], cwd=ROOT, env=_env(),
                              stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return start, None
    if proc.returncode != 0 or not result_path.exists():
        return start, None
    return start, json.loads(result_path.read_text())


def wall_seconds(start: float, result: dict | None) -> float:
    """Launch to the child's clock, in seconds; 0.0 for a failed child."""
    return result["t_end"] - start if result else 0.0


def reference_seconds(start: float, result: dict | None) -> float:
    """Launch to the clock of a ``run`` or ``setup`` child, at the reference speed.

    Each stretch between two speed probes, less the first probe's own time,
    is divided by the mean duration of the two probes; the stretch from launch
    to the first probe, less the warm-up probe, by the first probe's duration.
    The sum, in probe durations, times PROBE_REF_S is the time the child would
    have taken on a host that kept one speed.  0.0 for a failed child.
    """
    if result is None:
        return 0.0
    samples = result["probe_samples"]
    t0, d0 = samples[0]
    units = (t0 - start - result["probe_warmup"]) / d0
    for (ta, da), (tb, db) in zip(samples, samples[1:]):
        units += (tb - ta - da) / ((da + db) / 2)
    return units * PROBE_REF_S


# ---------------------------------------------------------------------------
# verdict gate


def group_key(spec: str) -> str:
    return Path(spec[5:]).stem if spec.startswith("file:") else spec


def statuses(report: dict) -> dict:
    out: dict = {}
    for r in report["results"]:
        out.setdefault(group_key(r["group"]), {})[r["check"]] = r["status"]
    return out


def expected_exit(table: dict) -> int:
    """The exit code the CLI gives for a report with these statuses."""
    found = {s for checks in table.values() for s in checks.values()}
    if found & {"fail", "counterexample"}:
        return 1
    return 3 if "budget" in found else 0


def gate(plan: dict, expected: dict, result: dict | None) -> tuple[int, int, int, list[bytes]]:
    """(attempted, failed, decided) over every expected pair, and the reports.

    A pair fails when its status differs from the expected one; every pair of
    a command that crashed, exited with the wrong code or wrote no report fails.
    """
    attempted = failed = decided = 0
    blobs = []
    for i, key in enumerate(plan["keys"]):
        want = expected[key]
        pairs = sum(len(c) for c in want.values())
        attempted += pairs
        path = Path(plan["reports"][i])
        if result is None or result["exit_codes"][i] != expected_exit(want) \
                or not path.exists():
            failed += pairs
            blobs.append(b"")
            continue
        blob = path.read_bytes()
        blobs.append(blob)
        got = statuses(json.loads(blob))
        for group in set(want) | set(got):
            for check in set(want.get(group, {})) | set(got.get(group, {})):
                status = got.get(group, {}).get(check)
                failed += status != want.get(group, {}).get(check)
                decided += status in DECIDED
    return attempted, failed, decided, blobs


# ---------------------------------------------------------------------------
# main


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    plan_path = work / "plan.json"

    def replan(iteration: int) -> dict:
        plan = WORKLOADS[workload](work, seed, iteration)
        plan_path.write_text(json.dumps(plan))
        return plan

    plan = replan(0)
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())

    attempted = failed = 0
    metrics: dict = {}
    last = None
    if trace:
        plain_start, last = child(plan_path, "plain", work)
        a, f, _, plain_reports = gate(plan, expected, last)
        traced_start, traced = child(plan_path, "traced", work)
        a2, f2, _, traced_reports = gate(plan, expected, traced)
        attempted, failed = a + a2, f + f2
        identical = plain_reports == traced_reports and all(plain_reports)
        if traced is not None:
            for name, value in traced["layers"].items():
                metrics[name] = {"value": value, "unit": tracer.unit(name)}
        overhead = wall_seconds(traced_start, traced) - wall_seconds(plain_start, last)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        identical = True
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            setups.append(reference_seconds(*child(plan_path, "setup", work)))
            if not setups[-1]:
                break
        walls, rss, shares = [], [], []
        while not walls or (walls[-1] and (sum(walls) < seconds or len(walls)
                                             < plan.get("min_iterations", 1))):
            plan = replan(len(walls))
            start, last = child(plan_path, "run", work)
            a, f, decided, _ = gate(plan, expected, last)
            attempted += a
            failed += f
            walls.append(reference_seconds(start, last))
            rss.append(last["peak_rss_kb"] / 1024 if last else 0.0)
            shares.append(decided / a)
        metrics = {
            "wall_ref_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "decided_share": {"value": statistics.median(shares), "unit": "ratio"},
        }
        if not all(setups):
            failed += 1
    checked, disagreed = xcheck.crosscheck(last["xcheck"] if last else [],
                                           WORK / "xcheck_cache.json")
    for line in disagreed:
        print(f"cross-check: {line}", file=sys.stderr)
    attempted += checked
    failed += len(disagreed) + (0 if checked else 1)
    return {"correct": failed == 0 and identical, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gengraph" / "cli.py").is_file():
        print(f"error: no gengraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
