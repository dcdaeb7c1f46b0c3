"""Command-line front end.

Exit codes: 0 = all requested checks passed / computation succeeded;
1 = at least one Fail (including a conjecture counterexample) or error,
or a `stats` census that differs from its closed-form values;
2 = usage or input error; 3 = budget exhausted on a requested exact value.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .build import build_group
from .constructions import h_membership, nilpotent_hamiltonian
from .errors import GengraphError, NotTwoGeneratedError, OrderGuardError
from .generating import degree_profile, delta_of, generating_graph, recover_cyclic_radical
from .graphs import (
    certificate_from_json,
    certificate_to_json,
    complete_product,
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
from .search import DEFAULT_BUDGET, hamiltonian, total_domination
from .verify import CHECK_IDS, Report, default_catalog, load_catalog_file, run_catalog

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _int_at_least(text: str, low: int) -> int:
    """An argparse type: the int `text`, rejected below `low`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, budget: bool) -> None:
    """--max-order, --no-header and --output, plus --budget-nodes where the
    command reads it."""
    p.add_argument("--max-order", type=partial(_int_at_least, low=1), default=None,
                   help="the one order guard: no larger group is built, and so "
                        "no larger subgroup lattice computed, graph file read or "
                        "product of complete graphs formed (default: 200, or "
                        "in verify and scan each catalog entry's own guard)")
    if budget:
        p.add_argument("--budget-nodes", type=partial(_int_at_least, low=0),
                       default=DEFAULT_BUDGET,
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
    _add_common(p, budget=False)

    p = sub.add_parser("graph", help="emit Gamma(G) or Delta(G)")
    p.add_argument("spec")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--gamma", action="store_true", help="full generating graph (default)")
    which.add_argument("--delta", action="store_true", help="nonisolated vertices only")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    _add_common(p, budget=False)

    p = sub.add_parser("stats", help="degree profile vs the closed-form values")
    p.add_argument("spec")
    _add_common(p, budget=False)

    p = sub.add_parser("verify", help="run theorem checks over a catalog")
    p.add_argument("--catalog", default="default",
                   help="'default' or a file with one group spec per line")
    p.add_argument("--checks", default=None,
                   help="comma-separated list of check ids (default: all)")
    p.add_argument("--jobs", type=partial(_int_at_least, low=1), default=1,
                   help="accepted for older scripts; every run is serial")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p, budget=True)

    p = sub.add_parser("scan", help="scan an open question over groups")
    p.add_argument("--question", required=True, choices=("conn", "ham", "chrom"))
    p.add_argument("--groups", required=True,
                   help="file with one group spec per line")
    p.add_argument("--jobs", type=partial(_int_at_least, low=1), default=1,
                   help="accepted for older scripts; every run is serial")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p, budget=True)

    p = sub.add_parser("tdn", help="total domination bounds and exact value "
                                   "for a product of complete graphs")
    p.add_argument("parts", nargs="+", type=partial(_int_at_least, low=2),
                   help="part sizes, each at least 2")
    _add_common(p, budget=True)

    p = sub.add_parser("hamcycle", help="Hamiltonian cycle of Delta(G), "
                                        "constructed per group class")
    p.add_argument("spec")
    _add_common(p, budget=True)

    p = sub.add_parser("check-cert", help="re-verify a certificate against a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    _add_common(p, budget=False)

    return ap


def _max_order(args, default: int | None = DEFAULT_MAX_ORDER) -> int | None:
    """--max-order, else `default`."""
    return default if args.max_order is None else args.max_order


def _cmd_info(args, out: list[str]) -> int:
    G = build_group(args.spec, _max_order(args))
    out.append(f"group: {G.name}")
    out.append(f"order: {G.n}")
    nil = is_nilpotent(G)
    out.append(f"nilpotent: {'yes' if nil else 'no'}")
    if nil:
        st = nilpotent_structure(G)
        cyc = " ".join(f"{p}^{a}" for p, a in st.cyclic_sylow) or "-"
        noncyc = " ".join(f"{q}^{b}" for q, b in st.noncyclic_sylow) or "-"
        out.append(f"r: {st.r} (cyclic Sylow primes: {cyc})")
        out.append(f"s: {st.s} (noncyclic Sylow primes: {noncyc})")
        out.append(f"cyclic: {'yes' if st.is_cyclic else 'no'}")
    phi = frattini(G)
    out.append(f"frattini_order: {len(phi)}")
    out.append(f"two_generated: {'yes' if is_two_generated(G) else 'no'}")
    return EXIT_OK


def _cmd_graph(args, out: list[str]) -> int:
    G = build_group(args.spec, _max_order(args))
    gg = delta_of(G) if args.delta else generating_graph(G)
    if args.format == "dot":
        out.append(graph_to_dot(gg.graph, gg.labels, name=G.name))
    else:
        out.append(graph_to_json(gg.graph, gg.labels))
    return EXIT_OK


def _cmd_stats(args, out: list[str]) -> int:
    G = build_group(args.spec, _max_order(args))
    prof = degree_profile(G)
    out.append(f"group: {G.name}  order: {G.n}")
    out.append(f"gen_probability: {prof.gen_probability} "
               f"(observed {prof.gen_probability_observed})")
    out.append(f"nonisolated: {prof.nonisolated_count} "
               f"(observed {prof.nonisolated_observed})")
    out.append(f"min_degree: {prof.min_degree} (observed {prof.min_degree_observed})")
    out.append("classes (I = primes with cyclic Sylow in the coset order):")
    for c in prof.classes:
        subset = "{" + ",".join(str(p) for p in c.subset) + "}"
        degree = "mixed" if c.observed_degree is None else c.observed_degree
        out.append(f"  I={subset:12s} coset_order={c.coset_order:<4d} "
                   f"count={c.observed_count:<5d} degree={degree:<5} "
                   f"alpha={c.alpha:<5d} beta={c.beta:<5d} eps={c.epsilon}")
    if not prof.holds:
        out.append("status: the census differs from the closed-form values")
        return EXIT_FAIL
    if not G.is_cyclic:
        out.append(f"radical_statistic: {recover_cyclic_radical(generating_graph(G))}")
    return EXIT_OK


def _emit_report(args, out: list[str], report: Report) -> int:
    out.append(report.to_json() if args.format == "json" else report.to_table())
    if report.summary["fail"] or report.summary["counterexample"] or report.summary["error"]:
        return EXIT_FAIL
    if report.summary["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args, out: list[str]) -> int:
    if args.catalog == "default":
        entries = default_catalog()
        catalog_name = "default"
    else:
        entries = load_catalog_file(args.catalog)
        catalog_name = args.catalog
    checks = CHECK_IDS
    if args.checks is not None:
        # a repeated id runs once, at its first place
        wanted = tuple(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
        if not wanted:
            raise GengraphError(f"--checks must be at least one check id, got {args.checks!r}")
        unknown = [c for c in wanted if c not in CHECK_IDS]
        if unknown:
            raise GengraphError(f"unknown checks: {', '.join(unknown)}")
        checks = wanted
    report = run_catalog(entries, checks, budget=args.budget_nodes,
                         max_order=_max_order(args, None), catalog_name=catalog_name)
    return _emit_report(args, out, report)


def _cmd_scan(args, out: list[str]) -> int:
    question = {"conn": "Q_CONN", "ham": "Q_HAM", "chrom": "Q_CHROM"}[args.question]
    report = run_catalog(load_catalog_file(args.groups), (question,),
                         budget=args.budget_nodes,
                         max_order=_max_order(args, None), catalog_name=args.groups)
    return _emit_report(args, out, report)


def _cmd_tdn(args, out: list[str]) -> int:
    order, guard = math.prod(args.parts), _max_order(args)
    if order > guard:
        raise OrderGuardError(f"product order {order} exceeds guard {guard}")
    parts = tuple(sorted(args.parts))
    lower, upper, t = td_bounds(parts)
    out.append(f"parts: {' '.join(str(a) for a in parts)}")
    out.append(f"lower: {lower}")
    out.append(f"upper: {upper}  (t = {t})")
    graph = complete_product(parts)
    res = total_domination(graph, args.budget_nodes, lower_hint=lower)
    if res.size is None:
        out.append("exact: budget exhausted")
        return EXIT_BUDGET
    if not verify_certificate(graph, res.witness):
        out.append("status: certificate failed re-verification")
        return EXIT_FAIL
    witness = " ".join(_tuple_label(v, parts) for v in res.witness.vertices)
    out.append(f"exact: {res.size}")
    out.append(f"witness: {witness}")
    out.append(f"certificate: {certificate_to_json(res.witness)}")
    return EXIT_OK


def _tuple_label(v: int, parts: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c + 1) for c in np.unravel_index(v, parts)) + ")"


def _cmd_hamcycle(args, out: list[str]) -> int:
    G = build_group(args.spec, _max_order(args))
    if not is_two_generated(G):
        raise NotTwoGeneratedError(f"{G.name} needs more than 2 generators")
    if is_nilpotent(G):
        res = nilpotent_hamiltonian(G)
    else:
        res = hamiltonian(delta_of(G).graph, args.budget_nodes)
    if res.status == "budget":
        out.append("status: budget exhausted")
        return EXIT_BUDGET
    if res.status == "no":
        out.append(f"status: not hamiltonian ({res.reason})")
        return EXIT_FAIL
    dd = delta_of(G)
    if not verify_certificate(dd.graph, res.cycle):
        out.append("status: certificate failed re-verification")
        return EXIT_FAIL
    labels = dd.labels
    out.append("status: hamiltonian")
    out.append("cycle: " + " ".join(labels[v] for v in res.cycle.vertices))
    witness = h_membership(dd.graph, res.cycle)
    if witness is not None and witness.chord_odd is not None:
        out.append(f"chords: odd {witness.chord_odd} even {witness.chord_even}")
    out.append(f"certificate: {certificate_to_json(res.cycle)}")
    return EXIT_OK


def _cmd_check_cert(args, out: list[str]) -> int:
    with open(args.graph) as fh:
        graph, _ = graph_from_json(fh.read(), _max_order(args))
    with open(args.cert) as fh:
        cert = certificate_from_json(fh.read())
    ok = verify_certificate(graph, cert)
    out.append(f"certificate: {'valid' if ok else 'INVALID'}")
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
    out: list[str] = []  # a command appends its lines; one that raises writes none
    try:
        code = _COMMANDS[args.command](args, out)
        if not args.no_header:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
            out.insert(0, f"# gengraph {__version__} {stamp}")
        body = "".join(line.rstrip("\n") + "\n" for line in out)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return code
    except (GengraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
