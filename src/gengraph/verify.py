"""Theorem checks and conjecture scans over a catalog of groups.

Every check computes an expected value from a closed-form criterion and an
observed value from the independent exact algorithms on the realised graph,
and passes only when they agree (or when the inequality holds, for bound
checks).  All failures are values, never exceptions.

Theorem checks and open-question scans are records of one registry, run by
one driver, `run_check`, which gives each result its status:

- `skipped`: the record's gate, or a guard of the check raising `_Skip`,
  declines the group;
- `fail`: a theorem check computes a false outcome, a reported witness
  fails re-verification by `verify_certificate`, or the check raises a
  package error (`GengraphError`), which on a gated group means the
  implementation is at fault;
- `budget`: a search ran out of nodes (`_Budget`);
- `counterexample`: an open question computes a false outcome;
- `error`: any other exception, a defect reported so that the run goes on.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from .build import build_cached
from .constructions import nilpotent_hamiltonian, nilpotent_td
from .errors import GengraphError
from .generating import (
    coprime_noncyclic_split,
    degree_profile,
    delta_of,
    edge_count,
    formula_min_degree,
    gamma_coset_bijection,
    generating_graph,
    lex_decomposition_check,
    recover_cyclic_radical,
)
from .graphs import (
    Certificate,
    Graph,
    certificate_to_dict,
    diameter,
    edge_connectivity,
    eulerian_circuit,
    td_bounds,
    vertex_connectivity,
    verify_certificate,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    Group,
    derived_subgroup,
    is_nilpotent,
    is_two_generated,
    isomorphism,
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    totient_profile,
)
from .search import (
    DEFAULT_BUDGET,
    chromatic_number,
    hamiltonian,
    total_domination,
)

FLOW_GUARD = 150          # |V(Delta)| cap for max-flow checks
SEARCH_GROUP_GUARD = 130  # |G| cap for exact clique/chromatic checks
HAM_SEARCH_GUARD = 100    # |V(Delta)| cap for Q_HAM's search on non-nilpotent groups
CERT_SIZE_LIMIT = 2000    # certificates longer than this stay out of reports

log = logging.getLogger(__name__)

# PROP_2_9's partner comparisons: a group isomorphic to a key, under any
# spelling or labelling, is compared with the key's partner spec
PROP_2_9_PAIRS = {
    "C2^2 x C9 x C3": ("C2^2 x Heis3", True),
    "C2^2 x C9": ("C2^2 x C3^2", False),
}


@dataclass(frozen=True)
class CheckResult:
    group: str
    check: str
    status: str  # "pass" | "fail" | "skipped" | "budget" | "counterexample" | "error"
    expected: object = None
    observed: object = None
    reason: str | None = None
    certificate: Certificate | None = None
    nodes: int = 0

    def to_dict(self) -> dict:
        out = {
            "group": self.group,
            "check": self.check,
            "status": self.status,
            "expected": self.expected,
            "observed": self.observed,
            "nodes": self.nodes,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.certificate is not None:
            out["certificate"] = certificate_to_dict(self.certificate)
        return out


@dataclass(frozen=True)
class Report:
    tool_version: str
    catalog: str
    results: tuple[CheckResult, ...]
    summary: dict

    def to_json(self) -> str:
        """`json.dumps(doc, indent=2, sort_keys=True) + "\\n"` of the report,
        with the document's keys written in sorted order and each result
        encoded on its own and moved to its depth, so that no encoder chunk
        list for the whole report is built."""
        enc = _ENCODER.encode
        parts = ['{\n  "catalog": ', enc(self.catalog), ',\n  "results": [']
        sep = "\n    "
        for r in self.results:
            parts += [sep, _indented(enc(r.to_dict()), 4)]
            sep = ",\n    "
        parts += ["\n  ]" if self.results else "]",
                  ',\n  "summary": ', _indented(enc(self.summary), 2),
                  ',\n  "version": ', enc(self.tool_version), "\n}\n"]
        return "".join(parts)

    def to_table(self) -> str:
        width = max((len(r.group) for r in self.results), default=5)
        lines = [f"{'group':<{width}}  {'check':<16} {'status':<14} detail"]
        for r in self.results:
            detail = r.reason or ""
            if r.expected is not None or r.observed is not None:
                values = f"expected={_short(r.expected)} observed={_short(r.observed)}"
                detail = f"{values} ({detail})" if detail else values
            lines.append(f"{r.group:<{width}}  {r.check:<16} {r.status:<14} {detail}")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.summary.items()))
        lines.append(f"summary: {counts}")
        return "\n".join(lines) + "\n"


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _indented(text: str, depth: int) -> str:
    """Encoded JSON moved `depth` spaces right.  JSON text holds no raw
    newline but the encoder's own, one before each of its lines."""
    return text.replace("\n", "\n" + " " * depth)


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 60 else text[:57] + "..."


def summarize(results) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0, "budget": 0, "counterexample": 0,
              "error": 0}
    for r in results:
        counts[r.status] += 1
    return counts


# ---------------------------------------------------------------------------
# what a check returns, and how it declines


@dataclass(frozen=True)
class Outcome:
    """A decided check: whether it holds, both sides, and its witness."""

    ok: bool
    expected: object
    observed: object
    certificate: Certificate | None = None
    nodes: int = 0


class _Skip(Exception):
    """A guard declined the group; the message is the skip reason."""


class _Budget(Exception):
    """The node budget ran out; the argument is the search nodes spent."""


# ---------------------------------------------------------------------------
# steps shared by several checks


def _guarded_delta(G: Group) -> Graph:
    """Delta(G), provided it is within the flow guard.  It is never empty:
    a gated group is 2-generated of order > 1, and a generating pair is an
    edge."""
    graph = delta_of(G).graph
    if graph.n > FLOW_GUARD:
        raise _Skip(f"flow guard: |V(Delta)| = {graph.n} > {FLOW_GUARD}")
    return graph


def _connectivity(G: Group):
    """Vertex connectivity and minimum degree of Delta(G), under the flow guard."""
    graph = _guarded_delta(G)
    return vertex_connectivity(graph), int(graph.degrees.min())


def _omega_chi(G: Group, budget: int):
    """Clique and chromatic search results on Gamma(G), under the search guard.

    Both come from one memoised `chromatic_number`, which carries its clique
    search, so `ch.nodes` is the node count of both searches.
    """
    if G.n > SEARCH_GROUP_GUARD:
        raise _Skip(f"search guard: |G| = {G.n} > {SEARCH_GROUP_GUARD}")
    ch = chromatic_number(generating_graph(G).graph, budget)
    if ch.exceeded:
        raise _Budget(ch.nodes)
    return ch.clique, ch


def _gamma_t(G: Group, budget: int):
    """γt of Delta(G), its witness and the nodes of the shared γt search."""
    res = nilpotent_td(G, budget)
    if res.size is None:
        raise _Budget(res.nodes)
    return res.size, res.witness, res.nodes


def _coprime_split(G: Group):
    split = coprime_noncyclic_split(G)
    if split is None:
        raise _Skip("no coprime split into noncyclic factors")
    return split


# ---------------------------------------------------------------------------
# theorem checks: (G, budget) -> Outcome


def _check_thm_1_1(G: Group, budget: int) -> Outcome:
    conn, delta = _connectivity(G)
    formula = formula_min_degree(nilpotent_structure(G))
    return Outcome(conn.value == delta == formula,
                   {"kappa": formula, "delta": formula},
                   {"kappa": conn.value, "delta": delta, "complete": conn.complete},
                   conn.cut)


def _check_euler(G: Group, budget: int) -> Outcome:
    st = nilpotent_structure(G)
    expected = not (st.is_cyclic and G.n % 2 == 0)
    res = eulerian_circuit(delta_of(G).graph)
    observed = res.circuit is not None
    return Outcome(observed is expected, {"eulerian": expected},
                   {"eulerian": observed, "reason": res.reason}, res.circuit)


def _check_ham(G: Group, budget: int) -> Outcome:
    expected = G.n >= 3
    res = nilpotent_hamiltonian(G)
    observed = res.status == "yes"
    return Outcome(observed is expected, {"hamiltonian": expected},
                   {"hamiltonian": observed}, res.cycle, res.nodes)


def _check_tdn(G: Group, budget: int) -> Outcome:
    st = nilpotent_structure(G)
    gt, ds, nodes = _gamma_t(G, budget)
    if st.is_cyclic:
        ok = gt == 1
        expected = {"gamma_t": 1}
    else:
        s = st.s
        q1 = st.noncyclic_primes[0]
        ok = gt >= s + 1 and (q1 < s or gt == s + 1)
        expected = {"at_least": s + 1}
        if q1 >= s:
            expected["equals"] = s + 1
    return Outcome(ok, expected, {"gamma_t": gt}, ds, nodes)


def _check_clique_chromatic(G: Group, budget: int) -> Outcome:
    cl, ch = _omega_chi(G, budget)
    st = nilpotent_structure(G)
    if st.is_cyclic:
        _, phi, r = totient_profile(G.n)
        expected = phi + r
    else:
        expected = st.noncyclic_primes[0] + 1
    return Outcome(cl.size == ch.chi == expected,
                   {"omega": expected, "chi": expected},
                   {"omega": cl.size, "chi": ch.chi}, cl.clique, ch.nodes)


def _check_complete(G: Group, budget: int) -> Outcome:
    factors, _, r = totient_profile(G.n)
    expected = (G.is_cyclic and r == 1 and G.n == factors[0][0]) \
        or (G.n == 4 and not G.is_cyclic)
    graph = delta_of(G).graph
    observed = graph.n > 0 and graph.is_complete()
    return Outcome(observed is expected, {"complete": expected}, {"complete": observed})


def _check_eq_lex(G: Group, budget: int) -> Outcome:
    res = lex_decomposition_check(G)
    return Outcome(res.passed, {"edges": res.delta_edges},
                   {"edges": res.product_edges, "detail": res.detail})


def _check_degree_frat(G: Group, budget: int) -> Outcome:
    if G.is_cyclic:
        raise _Skip("degree identity assumes a noncyclic group")
    degrees = generating_graph(G).graph.degrees
    Q, cmap, phi = quotient_mod_frattini(G)
    expected = generating_graph(Q).graph.degrees[cmap] * len(phi)
    ok = bool(np.array_equal(degrees, expected))
    return Outcome(ok, {"phi": len(phi)}, {"all_degrees_scale": ok})


def _check_cor_2_6(G: Group, budget: int) -> Outcome:
    A, amap, B, bmap = _coprime_split(G)
    # where[g] = a * |B| + b for g = amap[a] * bmap[b]
    where = np.argsort(G.table[np.ix_(amap, bmap)].ravel())
    ia, ib = divmod(where, B.n)
    prod = (generating_graph(A).graph.adj[np.ix_(ia, ia)]
            & generating_graph(B).graph.adj[np.ix_(ib, ib)])
    gamma = generating_graph(G).graph.adj
    return Outcome(np.array_equal(prod, gamma), {"edges": edge_count(gamma)},
                   {"edges": edge_count(prod), "factors": [A.n, B.n]})


def _check_remark_facts(G: Group, budget: int) -> Outcome:
    prof = degree_profile(G)
    return Outcome(prof.holds,
                   {"P2": str(prof.gen_probability),
                    "V_delta": prof.nonisolated_count,
                    "min_degree": prof.min_degree},
                   {"P2": str(prof.gen_probability_observed),
                    "V_delta": prof.nonisolated_observed,
                    "min_degree": prof.min_degree_observed,
                    "classes": len(prof.classes)})


def _check_prop_2_9(G: Group, budget: int) -> Outcome:
    if G.is_cyclic:
        raise _Skip("statistic is defined for noncyclic groups")
    expected_radical = math.prod(nilpotent_structure(G).cyclic_primes)
    gg = generating_graph(G)
    observed_radical = recover_cyclic_radical(gg)
    ok = observed_radical == expected_radical
    observed = {"radical_statistic": observed_radical}
    expected = {"radical_statistic": expected_radical}
    pair = _prop_2_9_pair(G)
    if pair is not None:
        partner_spec, positive = pair
        H = build_cached(partner_spec, DEFAULT_MAX_ORDER)
        gh = generating_graph(H)
        if positive:
            perm = gamma_coset_bijection(G, H)
            same = bool(np.array_equal(
                gg.graph.adj, gh.graph.adj[np.ix_(perm, perm)]))
            ok = ok and same
            expected["gamma_equal_under_bijection"] = True
            observed["gamma_equal_under_bijection"] = same
        else:
            dG = sorted(gg.graph.degrees.tolist())
            dH = sorted(gh.graph.degrees.tolist())
            differ = dG != dH
            ok = ok and differ
            expected["degree_multisets_differ"] = True
            observed["degree_multisets_differ"] = differ
        observed["partner"] = partner_spec
    return Outcome(ok, expected, observed)


def _prop_2_9_pair(G: Group) -> tuple[str, bool] | None:
    """The `PROP_2_9_PAIRS` entry whose key G is isomorphic to, or None.
    Equal order and element-order multiset sieve the keys before
    `isomorphism` decides."""
    orders = np.sort(G.orders)
    for spec, pair in PROP_2_9_PAIRS.items():
        K = build_cached(spec, DEFAULT_MAX_ORDER)
        if K.n == G.n and np.array_equal(np.sort(K.orders), orders):
            try:
                isomorphism(K, G)
            except ValueError:
                continue
            return pair
    return None


def _check_lem_3_1(G: Group, budget: int) -> Outcome:
    graph = _guarded_delta(G)
    Q, _, phi = quotient_mod_frattini(G)
    kq = vertex_connectivity(delta_of(Q).graph).value
    kg = vertex_connectivity(graph).value
    return Outcome(kg == kq * len(phi), {"kappa": kq * len(phi)},
                   {"kappa": kg, "kappa_quotient": kq, "phi": len(phi)})


def _check_rem_3_5(G: Group, budget: int) -> Outcome:
    if not is_nilpotent(G):  # a subgroup of a nilpotent group is nilpotent
        D, _ = subgroup_as_group(G, sorted(derived_subgroup(G)))
        if not is_nilpotent(D):
            raise _Skip("derived subgroup is not nilpotent")
    graph = _guarded_delta(G)
    delta = int(graph.degrees.min())
    lam, cut = edge_connectivity(graph)
    diam = diameter(graph)
    return Outcome(lam == delta and diam is not None and diam <= 2,
                   {"lambda": delta, "diameter_at_most": 2},
                   {"lambda": lam, "diameter": diam}, cut)


def _check_lem_5_3(G: Group, budget: int) -> Outcome:
    A, _, B, _ = _coprime_split(G)
    ra = total_domination(delta_of(A).graph, budget)
    rb = total_domination(delta_of(B).graph, budget)
    res = nilpotent_td(G, budget)
    nodes = ra.nodes + rb.nodes + res.nodes
    if ra.size is None or rb.size is None or res.size is None:
        raise _Budget(nodes)
    return Outcome(res.size <= ra.size * rb.size, {"at_most": ra.size * rb.size},
                   {"gamma_t": res.size, "factors": [ra.size, rb.size]}, nodes=nodes)


def _check_sandwich(G: Group, budget: int) -> Outcome:
    st = nilpotent_structure(G)
    if st.is_cyclic:
        raise _Skip("bounds apply to noncyclic groups")
    lower, upper, t = td_bounds(tuple(q + 1 for q in st.noncyclic_primes))
    gt, _, nodes = _gamma_t(G, budget)
    return Outcome(lower <= gt <= upper and lower >= st.s + 1,
                   {"lower": lower, "upper": upper, "t": t}, {"gamma_t": gt},
                   nodes=nodes)


# ---------------------------------------------------------------------------
# open questions, on any 2-generated group: a false result is a
# counterexample candidate, with its certificate kept


def _question_conn(G: Group, budget: int) -> Outcome:
    conn, delta = _connectivity(G)
    return Outcome(conn.value == delta, {"kappa": delta},
                   {"kappa": conn.value, "delta": delta}, conn.cut)


def _question_ham(G: Group, budget: int) -> Outcome:
    if G.n < 3:  # C2 is outside the question
        return Outcome(True, {"hamiltonian": False}, {"excluded": True})
    graph = delta_of(G).graph
    if is_nilpotent(G):
        res = nilpotent_hamiltonian(G)
    elif graph.n > HAM_SEARCH_GUARD:
        raise _Skip(f"search guard: |V(Delta)| = {graph.n}")
    else:
        res = hamiltonian(graph, budget)
    if res.status == "budget":
        raise _Budget(res.nodes)
    ok = res.status == "yes"
    return Outcome(ok, {"hamiltonian": True}, {"hamiltonian": ok}, res.cycle, res.nodes)


def _question_chrom(G: Group, budget: int) -> Outcome:
    cl, ch = _omega_chi(G, budget)
    return Outcome(cl.size == ch.chi, {"omega_equals_chi": True},
                   {"omega": cl.size, "chi": ch.chi}, ch.coloring, ch.nodes)


# ---------------------------------------------------------------------------
# the registry and its driver


@dataclass(frozen=True)
class Check:
    """One registered check or question."""

    compute: Callable[[Group, int], Outcome]
    nilpotent: bool             # gate: nilpotent and 2-generated, else 2-generated
    formula_only: bool = False  # cheap enough for oversized formula-only entries
    false_status: str = "fail"  # "counterexample" for an open question
    on_gamma: bool = False      # its certificate is on Gamma(G), not Delta(G)


REGISTRY = {
    "THM_1_1": Check(_check_thm_1_1, nilpotent=True),
    "THM_1_3_EULER": Check(_check_euler, nilpotent=True, formula_only=True),
    "THM_1_3_HAM": Check(_check_ham, nilpotent=True),
    "THM_1_4_TDN": Check(_check_tdn, nilpotent=True, formula_only=True),
    "THM_1_5": Check(_check_clique_chromatic, nilpotent=True, on_gamma=True),
    "LEM_2_1": Check(_check_complete, nilpotent=False),
    "EQ_LEX": Check(_check_eq_lex, nilpotent=False),
    "LEM_2_2_DEG": Check(_check_degree_frat, nilpotent=False),
    "COR_2_6_PROD": Check(_check_cor_2_6, nilpotent=True),
    "REMARK_FACTS": Check(_check_remark_facts, nilpotent=True, formula_only=True),
    "PROP_2_9": Check(_check_prop_2_9, nilpotent=True, formula_only=True),
    "LEM_3_1_KAPPA": Check(_check_lem_3_1, nilpotent=False),
    "REM_3_5": Check(_check_rem_3_5, nilpotent=False),
    "LEM_5_3_SUB": Check(_check_lem_5_3, nilpotent=True),
    "SANDWICH_5_5_5_6": Check(_check_sandwich, nilpotent=True, formula_only=True),
    "Q_CONN": Check(_question_conn, nilpotent=False, false_status="counterexample"),
    "Q_HAM": Check(_question_ham, nilpotent=False, false_status="counterexample"),
    "Q_CHROM": Check(_question_chrom, nilpotent=False, false_status="counterexample",
                     on_gamma=True),
}

CHECK_IDS = tuple(c for c, rec in REGISTRY.items() if rec.false_status == "fail")
QUESTION_IDS = tuple(c for c, rec in REGISTRY.items() if rec.false_status != "fail")


def _gate(G: Group, nilpotent: bool) -> None:
    if G.n == 1:
        raise _Skip("trivial group: graph conventions are ours, flagged")
    if nilpotent and not is_nilpotent(G):
        raise _Skip("group is not nilpotent")
    if not is_two_generated(G):
        raise _Skip("NotTwoGenerated: more than 2 generators needed")


def run_check(G: Group, check_id: str, budget: int = DEFAULT_BUDGET,
              name: str | None = None) -> CheckResult:
    """Run one registered check or question on one group.

    Only the gate and a check's own `_Skip` give `skipped`.  A certificate
    that fails re-verification, on Gamma(G) or Delta(G) as its record says,
    and any package error are a `fail`, with the error's type and message as
    the reason.  `_Budget` gives `budget`; a false outcome gives the
    record's `false_status`, `fail` or `counterexample`.  Any other
    exception is a defect of the program, reported as an `error` so that
    the rest of the run goes on."""
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check {check_id!r}")
    check = REGISTRY[check_id]
    name = name if name is not None else G.name
    try:
        _gate(G, check.nilpotent)
        out = check.compute(G, budget)
        cert = out.certificate
        if cert is not None and not verify_certificate(
                (generating_graph(G) if check.on_gamma else delta_of(G)).graph, cert):
            return CheckResult(name, check_id, "fail", out.expected, out.observed,
                               "certificate failed re-verification", nodes=out.nodes)
    except _Skip as e:
        return CheckResult(name, check_id, "skipped", reason=str(e))
    except _Budget as e:
        return CheckResult(name, check_id, "budget", reason="node budget exhausted",
                           nodes=e.args[0])
    except GengraphError as e:
        return CheckResult(name, check_id, "fail", reason=f"{type(e).__name__}: {e}")
    except Exception as e:
        log.exception("%s on %s raised", check_id, name)
        return CheckResult(name, check_id, "error",
                           reason=f"{type(e).__name__}: {e}")
    # a certificate's size is the length of its first field
    if cert is not None and len(getattr(cert, fields(cert)[0].name)) > CERT_SIZE_LIMIT:
        cert = None
    return CheckResult(name, check_id, "pass" if out.ok else check.false_status,
                       out.expected, out.observed, certificate=cert, nodes=out.nodes)


def scan_question(G: Group, which: str, budget: int = DEFAULT_BUDGET,
                  name: str | None = None) -> CheckResult:
    """Scan one open question on any 2-generated group; a Fail is flagged
    as a counterexample candidate with its certificates preserved."""
    if which not in QUESTION_IDS:
        raise ValueError(f"unknown question {which!r}")
    return run_check(G, which, budget, name)


# ---------------------------------------------------------------------------
# the default catalog


@dataclass(frozen=True)
class CatalogEntry:
    spec: str
    formula_only: bool = False
    max_order: int = DEFAULT_MAX_ORDER


def default_catalog() -> tuple[CatalogEntry, ...]:
    """Groups covering every branch: cyclic/noncyclic, r = 0 / r > 0,
    s in {0,1,2,3}, abelian and nonabelian nilpotent, one non-nilpotent scan
    target, plus three oversized formula-only entries."""
    entries: list[CatalogEntry] = []
    for n in list(range(2, 37)) + [60, 100]:
        entries.append(CatalogEntry(f"C{n}"))
    for p in (2, 3, 5, 7):
        entries.append(CatalogEntry(f"C{p}^2"))
    entries += [
        CatalogEntry("C4 x C3"),
        CatalogEntry("C2 x C6"),
        CatalogEntry("C2^2 x C3"),
        CatalogEntry("C2^2 x C9"),
        CatalogEntry("C2^2 x C3^2"),
        CatalogEntry("C4 x C3^2"),
        CatalogEntry("C3^2 x C5"),
        CatalogEntry("Heis3"),
        CatalogEntry("Heis5"),
        CatalogEntry("C2^2 x Heis3"),
        CatalogEntry("C2^2 x C9 x C3"),
        CatalogEntry("Ex(1)"),
        CatalogEntry("C2^2 x C3^2 x C5", formula_only=True, max_order=1000),
        CatalogEntry("C2^2 x C3^2 x C5^2", formula_only=True, max_order=1000),
        CatalogEntry("Heis7", formula_only=True, max_order=400),
    ]
    return tuple(entries)


def load_catalog_file(path: str) -> tuple[CatalogEntry, ...]:
    """One spec per line; '#' starts a comment, except inside a 'file:'
    path, which as in `build` runs to whitespace or '×'; optional trailing
    '!formula-only' marker."""
    entries = []
    with open(path) as fh:
        for raw in fh:
            line = re.sub(r"(file:[^\s×]*)|#.*", lambda m: m.group(1) or "", raw).strip()
            if not line:
                continue
            formula_only = line.endswith("!formula-only")
            if formula_only:
                line = line[: -len("!formula-only")].strip()
            entries.append(CatalogEntry(line, formula_only=formula_only))
    return tuple(entries)


def run_catalog(entries, checks=CHECK_IDS, budget: int = DEFAULT_BUDGET,
                max_order: int | None = None,
                catalog_name: str = "custom") -> Report:
    """Evaluate all (group, check) pairs in catalog order; build failures
    become Skipped.

    `max_order`, when given, is the order guard for every entry; otherwise
    each entry's own `max_order` is its guard.
    """
    entries = tuple(entries)
    checks = tuple(checks)
    for check in checks:
        if check not in REGISTRY:
            raise ValueError(f"unknown check {check!r}")
    results = []
    for e in entries:
        try:
            G = build_cached(e.spec, e.max_order if max_order is None else max_order)
        except GengraphError as err:
            results += [CheckResult(e.spec, check, "skipped",
                                    reason=f"build failed: {type(err).__name__}: {err}")
                        for check in checks]
            continue
        for check in checks:
            if e.formula_only and not REGISTRY[check].formula_only:
                results.append(CheckResult(e.spec, check, "skipped",
                                           reason="formula-only catalog entry"))
            else:
                results.append(run_check(G, check, budget, name=e.spec))
    results = tuple(results)
    return Report(__version__, catalog_name, results, summarize(results))
