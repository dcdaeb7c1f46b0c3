"""Spans and counters around the public functions of each gengraph module.

The tracer patches from outside the package: every function below is
replaced by a wrapper in each ``gengraph.*`` module that binds it, because
the modules import one another with ``from .x import y`` and patching only
the defining module would miss those calls.  Methods are patched on their
class.  Nothing under ``src/`` is edited.

Spans are kept in memory, one stack per thread, and reduced to metrics when
the run ends.  A span's self time is its duration minus the part of its
interval that its child spans cover.  A span that opens with an empty stack
in a worker thread is a child of the innermost span open in the main thread
at that moment (the main thread is the only one that submits work), so in
a ``--jobs 2`` run the main thread's wait for its workers is not counted as
``cli.main`` self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time
from collections import Counter

# (module, attribute, span name); "Class.method" attributes patch the class
SPANS = (
    ("build", "build_group", "build.build_group"),
    ("build", "load_cayley_file", "build.load_cayley_file"),
    ("groups", "Group.__init__", "groups.Group"),
    ("groups", "Group.generating_pair_matrix", "groups.generating_pair_matrix"),
    ("groups", "subgroup_lattice", "groups.subgroup_lattice"),
    ("groups", "frattini", "groups.frattini"),
    ("groups", "quotient_mod_frattini", "groups.quotient_mod_frattini"),
    ("generating", "generating_graph", "generating.generating_graph"),
    ("generating", "degree_profile", "generating.degree_profile"),
    ("generating", "lex_decomposition_check", "generating.lex_decomposition_check"),
    ("generating", "coprime_noncyclic_split", "generating.coprime_noncyclic_split"),
    ("graphs", "vertex_connectivity", "graphs.vertex_connectivity"),
    ("graphs", "edge_connectivity", "graphs.edge_connectivity"),
    ("graphs", "eulerian_circuit", "graphs.eulerian_circuit"),
    ("graphs", "verify_certificate", "graphs.verify_certificate"),
    ("search", "hamiltonian", "search.hamiltonian"),
    ("search", "clique_number", "search.clique_number"),
    ("search", "chromatic_number", "search.chromatic_number"),
    ("search", "total_domination", "search.total_domination"),
    ("constructions", "nilpotent_hamiltonian", "constructions.nilpotent_hamiltonian"),
    ("constructions", "nilpotent_td", "constructions.nilpotent_td"),
    ("verify", "Report.to_json", "verify.Report.to_json"),
    ("cli", "main", "cli.main"),
)

CHECK_IDS = ("THM_1_1", "THM_1_3_EULER", "THM_1_3_HAM", "THM_1_4_TDN", "THM_1_5",
             "LEM_2_1", "EQ_LEX", "LEM_2_2_DEG", "COR_2_6_PROD", "REMARK_FACTS",
             "PROP_2_9", "LEM_3_1_KAPPA", "REM_3_5", "LEM_5_3_SUB", "SANDWICH_5_5_5_6",
             "Q_CONN", "Q_HAM", "Q_CHROM")

SEARCH_FUNCS = ("hamiltonian", "clique_number", "chromatic_number", "total_domination")

# span names whose self time is reported; the verify.<check> spans report
# inclusive time instead
SELF_TIMED = tuple(name for _, _, name in SPANS)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{name}.self_s" for name in SELF_TIMED]
    names += ["groups.Group.calls", "groups.subgroup_lattice.calls",
              "groups.subgroup_lattice.subgroups",
              "groups.closure_calls", "groups.closure_distinct_ratio",
              "graphs.maxflow_calls"]
    names += [f"search.{f}.nodes" for f in SEARCH_FUNCS]
    names += ["search.budget_exhausted", "constructions.fallback_search"]
    names += [f"verify.{c}.incl_s" for c in CHECK_IDS]
    return names


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def self_times(spans) -> dict[int, int]:
    """Self time of each span, given ``(start, end, parent)`` tuples.

    ``parent`` is the index of the parent span or None.  Child intervals are
    clipped to the parent's interval and merged, so overlapping children
    (from several threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[i] = (end - start) - covered
    return out


class Tracer:
    """Installs the wrappers, records spans and counts, and reduces them."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self.spans: list[list] = []        # [name, start_ns, end_ns, parent]
        self.counts: Counter = Counter()
        self._closure_keys: set = set()
        self._table_digests: dict[int, tuple[object, bytes]] = {}
        self._lattice_groups: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counters -------------------------------------------------------------

    def _count_closure(self, table, seeds) -> None:
        key = id(table)
        entry = self._table_digests.get(key)
        if entry is None or entry[0] is not table:
            digest = hashlib.blake2b(table.tobytes(), digest_size=16).digest()
            entry = self._table_digests[key] = (table, digest)
        seeds = tuple(sorted({int(s) for s in seeds})) if seeds is not None else ()
        with self._lock:
            self.counts["closure_calls"] += 1
            self._closure_keys.add((entry[1], table.shape[0], seeds))

    def _count_lattice(self, args, result) -> None:
        G = args[0]
        with self._lock:
            if id(G) not in self._lattice_groups:
                self._lattice_groups[id(G)] = G
                self.counts["lattice_subgroups"] += len(result)

    def _count_search(self, func):
        def after(args, result):
            exhausted = (result.status == "budget" if func == "hamiltonian"
                         else result.exceeded)
            with self._lock:
                self.counts[f"{func}.nodes"] += int(result.nodes)
                self.counts["budget_exhausted"] += int(exhausted)
        return after

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "gengraph" and not modname.startswith("gengraph."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        import gengraph.cli  # noqa: F401  (imports every module)

        for modname, attr, span in SPANS:
            mod = importlib.import_module(f"gengraph.{modname}")
            after = None
            if span == "groups.subgroup_lattice":
                after = self._count_lattice
            elif modname == "search":
                after = self._count_search(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span, after))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(original, span, after))

        verify = importlib.import_module("gengraph.verify")
        self._rebind(verify.run_check, self._wrap(
            verify.run_check, lambda a, k: f"verify.{a[1] if len(a) > 1 else k['check_id']}"))
        self._rebind(verify.scan_question, self._wrap(
            verify.scan_question, lambda a, k: f"verify.{a[1] if len(a) > 1 else k['which']}"))

        groups = importlib.import_module("gengraph.groups")
        closure = groups._closure_members

        def counted_closure(table, seeds):
            self._count_closure(table, seeds)
            return closure(table, seeds)
        self._rebind(closure, counted_closure)

        graphs = importlib.import_module("gengraph.graphs")
        maxflow = graphs.maximum_flow

        def counted_maxflow(*args, **kwargs):
            with self._lock:
                self.counts["maxflow_calls"] += 1
            return maxflow(*args, **kwargs)
        self._rebind(maxflow, counted_maxflow)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = [(s[1], s[2], s[3]) for s in self.spans]
        selfs = self_times(spans)
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        fallback = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] += selfs[i]
            incl_ns[name] += end - start
            calls[name] += 1
            if (name == "search.hamiltonian" and parent is not None
                    and self.spans[parent][0] == "constructions.nilpotent_hamiltonian"):
                fallback += 1
        out: dict[str, float] = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        closures = self.counts["closure_calls"]
        out["groups.Group.calls"] = calls["groups.Group"]
        out["groups.subgroup_lattice.calls"] = calls["groups.subgroup_lattice"]
        out["groups.subgroup_lattice.subgroups"] = self.counts["lattice_subgroups"]
        out["groups.closure_calls"] = closures
        out["groups.closure_distinct_ratio"] = (
            len(self._closure_keys) / closures if closures else 1.0)
        out["graphs.maxflow_calls"] = self.counts["maxflow_calls"]
        for f in SEARCH_FUNCS:
            out[f"search.{f}.nodes"] = self.counts[f"{f}.nodes"]
        out["search.budget_exhausted"] = self.counts["budget_exhausted"]
        out["constructions.fallback_search"] = fallback
        for c in CHECK_IDS:
            out[f"verify.{c}.incl_s"] = incl_ns[f"verify.{c}"] / 1e9
        return out
