"""Command-line front end.

Exit codes: 0 = all requested checks passed / computation succeeded;
1 = at least one Fail (including a conjecture counterexample);
2 = usage or input error; 3 = budget exhausted on a requested exact value.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from . import __version__
from .build import build_group
from .constructions import h_membership, nilpotent_hamiltonian
from .errors import GengraphError
from .generating import (
    degree_profile,
    delta_graph,
    delta_of,
    generating_graph,
    recover_cyclic_radical,
)
from .graphs import (
    MultipartiteParams,
    certificate_from_json,
    certificate_to_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    td_bounds,
    verify_certificate,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    frattini,
    is_nilpotent,
    is_two_generated,
    nilpotent_structure,
)
from .search import SearchBudget, hamiltonian, total_domination
from .verify import CHECK_IDS, Report, default_catalog, load_catalog_file, run_catalog

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-order", type=int, default=None,
                   help="order guard for group construction (default 200; "
                        "env GENGRAPH_MAX_ORDER overrides)")
    p.add_argument("--budget-nodes", type=int, default=10_000_000,
                   help="search-node budget for exact searches")
    p.add_argument("--no-header", action="store_true",
                   help="suppress the timestamped header line")
    p.add_argument("--output", "-o", default=None, help="write output to a file")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gengraph",
        description="generating graphs of finite 2-generated groups: exact "
                    "invariants, certified witnesses, formula verification")
    ap.add_argument("--version", action="version", version=f"gengraph {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="group order, nilpotency data, Frattini order")
    p.add_argument("spec")
    _add_common(p)

    p = sub.add_parser("graph", help="emit Gamma(G) or Delta(G)")
    p.add_argument("spec")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--gamma", action="store_true", help="full generating graph (default)")
    which.add_argument("--delta", action="store_true", help="nonisolated vertices only")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    _add_common(p)

    p = sub.add_parser("stats", help="degree profile vs the closed-form values")
    p.add_argument("spec")
    _add_common(p)

    p = sub.add_parser("verify", help="run theorem checks over a catalog")
    p.add_argument("--catalog", default="default",
                   help="'default' or a file with one group spec per line")
    p.add_argument("--checks", default=None,
                   help="comma-separated list of check ids (default: all)")
    p.add_argument("--jobs", type=int, default=1, help="worker count")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p)

    p = sub.add_parser("scan", help="scan an open question over groups")
    p.add_argument("--question", required=True, choices=("conn", "ham", "chrom"))
    p.add_argument("--groups", required=True,
                   help="file with one group spec per line")
    p.add_argument("--jobs", type=int, default=1, help="worker count")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p)

    p = sub.add_parser("tdn", help="total domination bounds and exact value "
                                   "for a product of complete graphs")
    p.add_argument("parts", nargs="+", type=int)
    _add_common(p)

    p = sub.add_parser("hamcycle", help="Hamiltonian cycle of Delta(G), "
                                        "constructed per group class")
    p.add_argument("spec")
    _add_common(p)

    p = sub.add_parser("check-cert", help="re-verify a certificate against a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    _add_common(p)

    return ap


def _max_order(args) -> int:
    if args.max_order is not None:
        return args.max_order
    env = os.environ.get("GENGRAPH_MAX_ORDER")
    if env:
        try:
            return int(env)
        except ValueError:
            raise GengraphError(f"bad GENGRAPH_MAX_ORDER value {env!r}")
    return DEFAULT_MAX_ORDER


class _Out:
    def __init__(self, args):
        self.path = args.output
        self.lines: list[str] = []
        if not args.no_header:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
            self.lines.append(f"# gengraph {__version__} {stamp}")

    def emit(self, text: str) -> None:
        self.lines.append(text.rstrip("\n"))

    def flush(self) -> None:
        body = "\n".join(self.lines) + "\n" if self.lines else ""
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _cmd_info(args) -> int:
    out = _Out(args)
    G = build_group(args.spec, _max_order(args))
    out.emit(f"group: {G.name}")
    out.emit(f"order: {G.n}")
    nil = is_nilpotent(G)
    out.emit(f"nilpotent: {'yes' if nil else 'no'}")
    if nil:
        st = nilpotent_structure(G)
        cyc = " ".join(f"{p}^{a}" for p, a in st.cyclic_sylow) or "-"
        noncyc = " ".join(f"{q}^{b}" for q, b in st.noncyclic_sylow) or "-"
        out.emit(f"r: {st.r} (cyclic Sylow primes: {cyc})")
        out.emit(f"s: {st.s} (noncyclic Sylow primes: {noncyc})")
        out.emit(f"cyclic: {'yes' if st.is_cyclic else 'no'}")
    phi = frattini(G, "auto", max(_max_order(args), G.n))
    out.emit(f"frattini_order: {phi.size}")
    out.emit(f"two_generated: {'yes' if is_two_generated(G) else 'no'}")
    out.flush()
    return EXIT_OK


def _cmd_graph(args) -> int:
    out = _Out(args)
    G = build_group(args.spec, _max_order(args))
    gg = generating_graph(G)
    if args.delta:
        gg = delta_graph(gg)
    if args.format == "dot":
        out.emit(graph_to_dot(gg.graph, gg.labels, name=G.name))
    else:
        out.emit(graph_to_json(gg.graph, gg.labels))
    out.flush()
    return EXIT_OK


def _cmd_stats(args) -> int:
    out = _Out(args)
    G = build_group(args.spec, _max_order(args))
    prof = degree_profile(G)
    out.emit(f"group: {G.name}  order: {G.n}")
    out.emit(f"gen_probability: {prof.gen_probability} "
             f"(observed {prof.gen_probability_observed})")
    out.emit(f"nonisolated: {prof.nonisolated_count} "
             f"(observed {prof.nonisolated_observed})")
    out.emit(f"min_degree: {prof.min_degree} (observed {prof.min_degree_observed})")
    out.emit("classes (I = primes with cyclic Sylow in the coset order):")
    for c in prof.classes:
        subset = "{" + ",".join(str(p) for p in c.subset) + "}"
        out.emit(f"  I={subset:12s} coset_order={c.coset_order:<4d} "
                 f"count={c.observed_count:<5d} degree={c.observed_degree:<5d} "
                 f"alpha={c.alpha:<5d} beta={c.beta:<5d} eps={c.epsilon}")
    if not G.is_cyclic:
        out.emit(f"radical_statistic: {recover_cyclic_radical(generating_graph(G))}")
    out.flush()
    return EXIT_OK


def _emit_report(args, report: Report) -> int:
    out = _Out(args)
    out.emit(report.to_json() if args.format == "json" else report.to_table())
    out.flush()
    if report.summary["fail"] or report.summary["counterexample"]:
        return EXIT_FAIL
    if report.summary["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.catalog == "default":
        entries = default_catalog()
        catalog_name = "default"
    else:
        entries = load_catalog_file(args.catalog)
        catalog_name = args.catalog
    checks = CHECK_IDS
    if args.checks:
        wanted = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        unknown = [c for c in wanted if c not in CHECK_IDS]
        if unknown:
            raise GengraphError(f"unknown checks: {', '.join(unknown)}")
        checks = wanted
    report = run_catalog(entries, checks, jobs=args.jobs,
                         budget=SearchBudget(args.budget_nodes),
                         max_order=_max_order(args), catalog_name=catalog_name)
    return _emit_report(args, report)


def _cmd_scan(args) -> int:
    question = {"conn": "Q_CONN", "ham": "Q_HAM", "chrom": "Q_CHROM"}[args.question]
    report = run_catalog(load_catalog_file(args.groups), (question,), jobs=args.jobs,
                         budget=SearchBudget(args.budget_nodes),
                         max_order=_max_order(args), catalog_name=args.groups)
    return _emit_report(args, report)


def _cmd_tdn(args) -> int:
    out = _Out(args)
    parts = MultipartiteParams(tuple(sorted(args.parts)))
    lower, upper, t = td_bounds(parts)
    out.emit(f"parts: {' '.join(str(a) for a in parts.parts)}")
    out.emit(f"lower: {lower}")
    out.emit(f"upper: {upper}  (t = {t})")
    from .constructions import _complete_product
    graph = _complete_product(parts.parts)
    res = total_domination(graph, SearchBudget(args.budget_nodes), lower_hint=lower)
    if res.size is None:
        out.emit("exact: budget exhausted")
        out.flush()
        return EXIT_BUDGET
    witness = " ".join(_tuple_label(v, parts.parts) for v in res.witness.vertices)
    out.emit(f"exact: {res.size}")
    out.emit(f"witness: {witness}")
    out.emit(f"certificate: {certificate_to_json(res.witness)}")
    out.flush()
    return EXIT_OK


def _tuple_label(v: int, parts: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c + 1) for c in np.unravel_index(v, parts)) + ")"


def _cmd_hamcycle(args) -> int:
    out = _Out(args)
    G = build_group(args.spec, _max_order(args))
    budget = SearchBudget(args.budget_nodes)
    if is_nilpotent(G):
        res = nilpotent_hamiltonian(G, budget)
    else:
        res = hamiltonian(delta_of(G).graph, budget)
    if res.status == "budget":
        out.emit("status: budget exhausted")
        out.flush()
        return EXIT_BUDGET
    if res.status == "no":
        out.emit(f"status: not hamiltonian ({res.reason})")
        out.flush()
        return EXIT_FAIL
    dd = delta_of(G)
    labels = [dd.group.labels[dd.vertex_elements[v]] for v in res.cycle.vertices]
    out.emit("status: hamiltonian")
    out.emit("cycle: " + " ".join(labels))
    witness = h_membership(dd.graph, res.cycle)
    if witness is not None and witness.chord_odd is not None:
        out.emit(f"chords: odd {witness.chord_odd} even {witness.chord_even}")
    out.emit(f"certificate: {certificate_to_json(res.cycle)}")
    out.flush()
    return EXIT_OK


def _cmd_check_cert(args) -> int:
    out = _Out(args)
    with open(args.graph) as fh:
        graph, _ = graph_from_json(fh.read())
    with open(args.cert) as fh:
        cert = certificate_from_json(fh.read())
    ok = verify_certificate(graph, cert)
    out.emit(f"certificate: {'valid' if ok else 'INVALID'}")
    out.flush()
    return EXIT_OK if ok else EXIT_FAIL


_COMMANDS = {
    "info": _cmd_info,
    "graph": _cmd_graph,
    "stats": _cmd_stats,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "tdn": _cmd_tdn,
    "hamcycle": _cmd_hamcycle,
    "check-cert": _cmd_check_cert,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except GengraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
