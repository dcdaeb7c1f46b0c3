"""One cold gengraph process, started by run.py.

    python3 perfbench/child.py PLAN.json run|plain|traced|setup RESULT.json

``run`` and ``plain`` call ``gengraph.cli.main`` once per command in the
plan and record the monotonic clock after the last report is written;
``traced`` does the same with the tracer installed.  After the clock is
read, all three export the Delta graphs (and the Gamma graphs behind each
omega verdict) with the program's kappa, lambda and omega for the networkx
cross-check; that work is outside the timed region.  ``setup`` imports gengraph and builds and
validates every group of the plan's catalog, running no check.

``run`` and ``setup`` also sample the host's speed while they are timed
(see ``SpeedProbe``); ``plain`` and ``traced`` do not, so that their wall
times compare and the tracer's spans hold only gengraph's time.
"""

from __future__ import annotations

import base64
import json
import random
import resource
import signal
import sys
import time
from functools import partial
from operator import methodcaller
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PROBE_INTERVAL = 0.2    # seconds of timed region between two speed probes
PROBE_SIZE = 4000       # ints per probe list
PROBE_POOL = 200_000    # ints, about 8 MiB, so part of the probe misses L2
_CALL = methodcaller("__call__")


class SpeedProbe:
    """Times a fixed slice of work every PROBE_INTERVAL seconds of a region.

    The host's CPU speed drifts by up to about 30% within seconds, on each
    vCPU on its own, so a single wall time says as much about the host as
    about gengraph.  The probe runs from a SIGALRM handler in the process it
    measures, between two bytecodes of the program, so its samples follow the
    speed the program sees all through the region; ``run.reference_seconds``
    turns them into the region's time at a fixed reference speed.

    The slice is sorting and hashing lists of ints, about 2.5 ms here.  The
    clock readings and the work are C calls made from one bytecode, so the
    GIL is held from the first reading to the last: a sample measures the
    host, not gengraph's worker threads waiting for the GIL.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        pool = [rng.randrange(1 << 30) for _ in range(PROBE_POOL)]
        a = rng.sample(pool, PROBE_SIZE)        # scattered over the pool
        b = [rng.randrange(1 << 30) for _ in range(PROBE_SIZE)]
        self.calls = (time.monotonic, partial(sorted, a), partial(set, b),
                      partial(dict.fromkeys, a), partial(sorted, b), time.monotonic)
        self.samples: list[tuple[float, float]] = []    # (start, seconds)
        self.warmup = 0.0

    def _sample(self, *signal_args) -> None:
        t0, *_, t1 = map(_CALL, self.calls)
        self.samples.append((t0, t1 - t0))

    def start(self) -> None:
        t0, *_, t1 = map(_CALL, self.calls)
        self.warmup = t1 - t0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self) -> dict:
        """End the region, after its clock was read, with one last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        return {"probe_samples": self.samples, "probe_warmup": self.warmup}


def _entries(plan):
    from gengraph.verify import default_catalog, load_catalog_file

    if plan["catalog"] == "default":
        return default_catalog()
    return load_catalog_file(plan["catalog"])


def _max_order(entry) -> int:
    from gengraph.groups import DEFAULT_MAX_ORDER

    return max(DEFAULT_MAX_ORDER, entry.max_order)


def setup(plan) -> dict:
    probe = SpeedProbe()
    probe.start()
    from gengraph.build import build_group, parse_spec

    for e in _entries(plan):
        build_group(parse_spec(e.spec), _max_order(e))
    t_end = time.monotonic()
    return {"t_end": t_end, **probe.stop()}


def _pack(adj) -> dict:
    import numpy as np

    return {"n": int(adj.shape[0]),
            "bits": base64.b64encode(np.packbits(adj, axis=None).tobytes()).decode()}


def _reported(report_paths) -> dict:
    """spec -> {"kappa"|"lambda"|"omega": set of values the reports give}."""
    out: dict = {}
    for path in report_paths:
        for r in json.loads(Path(path).read_text())["results"]:
            if r["status"] == "skipped" or not isinstance(r["observed"], dict):
                continue
            for key in ("kappa", "lambda", "omega"):
                if key in r["observed"]:
                    out.setdefault(r["group"], {}).setdefault(key, set()).add(
                        r["observed"][key])
    return out


def export(plan) -> list[dict]:
    """Delta of every group within the flow guard, with the program's values.

    A kappa or lambda that no report gives is computed here by the program's
    own connectivity functions, so every exported Delta is covered.
    """
    from gengraph.build import build_cached
    from gengraph.generating import delta_of, generating_graph
    from gengraph.graphs import edge_connectivity, vertex_connectivity
    from gengraph.verify import FLOW_GUARD

    reported = _reported(plan["reports"])
    out = []
    for e in _entries(plan):
        if e.formula_only:
            continue
        G = build_cached(e.spec, _max_order(e))
        dd = delta_of(G)
        if not 0 < dd.graph.n <= FLOW_GUARD:
            continue
        have = reported.get(e.spec, {})
        entry = {"group": e.spec, "delta": _pack(dd.graph.adj),
                 "kappa": sorted(have.get("kappa", ())),
                 "lambda": sorted(have.get("lambda", ()))}
        if not entry["kappa"]:
            entry["kappa"] = [vertex_connectivity(dd.graph).value]
        if not entry["lambda"]:
            entry["lambda"] = [edge_connectivity(dd.graph)[0]]
        if "omega" in have:
            entry["gamma"] = _pack(generating_graph(G).graph.adj)
            entry["omega"] = sorted(have["omega"])
        out.append(entry)
    return out


def run(plan, mode: str) -> dict:
    tracer = probe = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "run":
        probe = SpeedProbe()
        probe.start()
    from gengraph import cli

    codes = [cli.main(argv) for argv in plan["commands"]]
    t_end = time.monotonic()
    speed = probe.stop() if probe is not None else {}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"t_end": t_end, "exit_codes": codes, "peak_rss_kb": own + workers, **speed}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
    out["xcheck"] = export(plan)
    return out


def main() -> None:
    plan_path, mode, result_path = sys.argv[1:4]
    plan = json.loads(Path(plan_path).read_text())
    result = setup(plan) if mode == "setup" else run(plan, mode)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
