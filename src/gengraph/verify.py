"""Theorem checks and conjecture scans over a catalog of groups.

Every check computes an expected value from a closed-form criterion and an
observed value from the independent exact algorithms on the realised graph,
and passes only when they agree (or when the inequality holds, for bound
checks).  All failures are values, never exceptions; checks that do not
apply to a group are Skipped with a reason.

Theorem checks and open-question scans are records of one registry, run by
one driver, `run_check`: it applies each record's gate, and turns guards,
budget exhaustion and package errors into statuses.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from .build import build_cached
from .constructions import nilpotent_hamiltonian, nilpotent_td
from .errors import ConstructionError, GengraphError, InternalMismatchError
from .generating import (
    GeneratingGraph,
    coprime_noncyclic_split,
    degree_profile,
    delta_of,
    formula_min_degree,
    gamma_coset_bijection,
    generating_graph,
    lex_decomposition_check,
    recover_cyclic_radical,
)
from .graphs import (
    Certificate,
    Graph,
    MultipartiteParams,
    bfs_distances,
    certificate_to_json,
    direct_product,
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
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    totient_profile,
)
from .search import (
    DEFAULT_BUDGET,
    SearchBudget,
    chromatic_number,
    clique_number,
    hamiltonian,
    total_domination,
)

FLOW_GUARD = 150          # |V(Delta)| cap for max-flow checks
SEARCH_GROUP_GUARD = 130  # |G| cap for exact clique/chromatic checks
HAM_SEARCH_GUARD = 100    # |V(Delta)| cap when Hamiltonicity needs search
CERT_SIZE_LIMIT = 2000    # certificates longer than this stay out of reports

PROP_2_9_PAIRS = {
    "C2^2 x C9 x C3": ("C2^2 x Heis3", True),
    "C2^2 x C9": ("C2^2 x C3^2", False),
}


@dataclass(frozen=True)
class CheckResult:
    group: str
    check: str
    status: str  # "pass" | "fail" | "skipped" | "budget" | "counterexample"
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
            out["certificate"] = json.loads(certificate_to_json(self.certificate))
        return out


@dataclass(frozen=True)
class Report:
    tool_version: str
    catalog: str
    results: tuple[CheckResult, ...]
    summary: dict

    def to_json(self) -> str:
        doc = {
            "version": self.tool_version,
            "catalog": self.catalog,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        width = max((len(r.group) for r in self.results), default=5)
        lines = [f"{'group':<{width}}  {'check':<16} {'status':<14} detail"]
        for r in self.results:
            detail = ""
            if r.status in ("pass", "fail", "counterexample"):
                detail = f"expected={_short(r.expected)} observed={_short(r.observed)}"
            elif r.reason:
                detail = r.reason
            lines.append(f"{r.group:<{width}}  {r.check:<16} {r.status:<14} {detail}")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.summary.items()))
        lines.append(f"summary: {counts}")
        return "\n".join(lines) + "\n"


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 60 else text[:57] + "..."


def summarize(results) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0, "budget": 0, "counterexample": 0}
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
    """The node budget ran out; the arguments are (search nodes, expected)."""


# ---------------------------------------------------------------------------
# steps shared by several checks


def _guarded_delta(G: Group) -> Graph:
    """Delta(G), provided it is nonempty and within the flow guard."""
    graph = delta_of(G).graph
    if graph.n > FLOW_GUARD:
        raise _Skip(f"flow guard: |V(Delta)| = {graph.n} > {FLOW_GUARD}")
    if graph.n == 0:
        raise _Skip("Delta is empty")
    return graph


def _connectivity(G: Group):
    """Vertex connectivity and minimum degree of Delta(G), under the flow guard."""
    graph = _guarded_delta(G)
    return vertex_connectivity(graph), int(graph.degrees.min())


def _omega_chi(G: Group, budget: SearchBudget):
    """Clique and chromatic search results on Gamma(G), under the search guard."""
    if G.n > SEARCH_GROUP_GUARD:
        raise _Skip(f"search guard: |G| = {G.n} > {SEARCH_GROUP_GUARD}")
    graph = generating_graph(G).graph
    cl = clique_number(graph, budget)
    if cl.exceeded:
        raise _Budget(cl.nodes, None)
    ch = chromatic_number(graph, budget)
    if ch.exceeded:
        raise _Budget(cl.nodes + ch.nodes, None)
    return cl, ch


def _coprime_split(G: Group):
    split = coprime_noncyclic_split(G)
    if split is None:
        raise _Skip("no coprime split into noncyclic factors")
    return split


# ---------------------------------------------------------------------------
# theorem checks: (G, budget) -> Outcome


def _check_thm_1_1(G: Group, budget: SearchBudget) -> Outcome:
    conn, delta = _connectivity(G)
    formula = formula_min_degree(nilpotent_structure(G))
    return Outcome(conn.value == delta == formula,
                   {"kappa": formula, "delta": formula},
                   {"kappa": conn.value, "delta": delta, "complete": conn.complete},
                   conn.cut)


def _check_euler(G: Group, budget: SearchBudget) -> Outcome:
    st = nilpotent_structure(G)
    expected = not (st.is_cyclic and G.n % 2 == 0)
    graph = delta_of(G).graph
    res = eulerian_circuit(graph)
    observed = res.circuit is not None
    if observed and not verify_certificate(graph, res.circuit):
        observed = None  # invalid circuit: force a visible failure
    return Outcome(observed is expected, {"eulerian": expected},
                   {"eulerian": bool(observed), "reason": res.reason},
                   res.circuit if observed else None)


def _check_ham(G: Group, budget: SearchBudget) -> Outcome:
    st = nilpotent_structure(G)
    primes = st.cyclic_primes + st.noncyclic_primes
    constructive = (st.is_cyclic or len(primes) == 1
                    or (2 in st.cyclic_primes and len(primes) == 2
                        and dict(st.cyclic_sylow).get(2) == 1))
    if not constructive:
        size = delta_of(G).graph.n
        if size > HAM_SEARCH_GUARD:
            raise _Skip(f"search guard: |V(Delta)| = {size} > {HAM_SEARCH_GUARD}")
    expected = G.n >= 3
    res = nilpotent_hamiltonian(G, budget)
    if res.status == "budget":
        raise _Budget(res.nodes, {"hamiltonian": expected})
    observed = res.status == "yes"
    return Outcome(observed is expected, {"hamiltonian": expected},
                   {"hamiltonian": observed}, res.cycle, res.nodes)


def _check_tdn(G: Group, budget: SearchBudget) -> Outcome:
    st = nilpotent_structure(G)
    gt, ds, _, res = nilpotent_td(G, budget)
    nodes = res.nodes if res else 0
    if gt is None:
        raise _Budget(nodes, None)
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


def _check_clique_chromatic(G: Group, budget: SearchBudget) -> Outcome:
    cl, ch = _omega_chi(G, budget)
    st = nilpotent_structure(G)
    if st.is_cyclic:
        _, phi, r = totient_profile(G.n)
        expected = phi + r
    else:
        expected = st.noncyclic_primes[0] + 1
    return Outcome(cl.size == ch.chi == expected,
                   {"omega": expected, "chi": expected},
                   {"omega": cl.size, "chi": ch.chi}, cl.clique, cl.nodes + ch.nodes)


def _check_complete(G: Group, budget: SearchBudget) -> Outcome:
    factors, _, r = totient_profile(G.n)
    expected = (G.is_cyclic and r == 1 and G.n == factors[0][0]) \
        or (G.n == 4 and not G.is_cyclic)
    graph = delta_of(G).graph
    observed = graph.n > 0 and graph.is_complete()
    return Outcome(observed is expected, {"complete": expected}, {"complete": observed})


def _check_eq_lex(G: Group, budget: SearchBudget) -> Outcome:
    res = lex_decomposition_check(G)
    return Outcome(res.passed, {"edges": res.delta_edges},
                   {"edges": res.product_edges, "detail": res.detail})


def _check_degree_frat(G: Group, budget: SearchBudget) -> Outcome:
    if G.is_cyclic:
        raise _Skip("degree identity assumes a noncyclic group")
    degrees = generating_graph(G).graph.degrees
    Q, cmap, phi = quotient_mod_frattini(G)
    expected = generating_graph(Q).graph.degrees[cmap] * phi.size
    ok = bool(np.array_equal(degrees, expected))
    return Outcome(ok, {"phi": phi.size}, {"all_degrees_scale": ok})


def _check_cor_2_6(G: Group, budget: SearchBudget) -> Outcome:
    A, amap, B, bmap = _coprime_split(G)
    da, db = delta_of(A), delta_of(B)
    # product vertex (i, j) sits at i * |V(Delta(B))| + j
    mapped = tuple(int(G.table[int(amap[va]), int(bmap[vb])])
                   for va in da.vertex_elements for vb in db.vertex_elements)
    prod_edges = GeneratingGraph(direct_product(da.graph, db.graph), mapped, G).element_edges()
    dd = delta_of(G)
    delta_edges = dd.element_edges()
    ok = prod_edges == delta_edges and set(mapped) >= set(dd.vertex_elements)
    return Outcome(ok, {"edges": len(delta_edges)},
                   {"edges": len(prod_edges), "factors": [A.n, B.n]})


def _check_remark_facts(G: Group, budget: SearchBudget) -> Outcome:
    prof = degree_profile(G)
    return Outcome(True,
                   {"P2": str(prof.gen_probability),
                    "V_delta": prof.nonisolated_count,
                    "min_degree": prof.min_degree},
                   {"P2": str(prof.gen_probability_observed),
                    "V_delta": prof.nonisolated_observed,
                    "min_degree": prof.min_degree_observed,
                    "classes": len(prof.classes)})


def _check_prop_2_9(G: Group, budget: SearchBudget) -> Outcome:
    if G.is_cyclic:
        raise _Skip("statistic is defined for noncyclic groups")
    expected_radical = math.prod(nilpotent_structure(G).cyclic_primes)
    gg = generating_graph(G)
    observed_radical = recover_cyclic_radical(gg)
    ok = observed_radical == expected_radical
    observed = {"radical_statistic": observed_radical}
    expected = {"radical_statistic": expected_radical}
    pair = PROP_2_9_PAIRS.get(G.name)
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


def _check_lem_3_1(G: Group, budget: SearchBudget) -> Outcome:
    graph = _guarded_delta(G)
    Q, _, phi = quotient_mod_frattini(G)
    kq = vertex_connectivity(delta_of(Q).graph).value
    kg = vertex_connectivity(graph).value
    return Outcome(kg == kq * phi.size, {"kappa": kq * phi.size},
                   {"kappa": kg, "kappa_quotient": kq, "phi": phi.size})


def _check_rem_3_5(G: Group, budget: SearchBudget) -> Outcome:
    D, _ = subgroup_as_group(G, sorted(derived_subgroup(G).indices))
    if not is_nilpotent(D):
        raise _Skip("derived subgroup is not nilpotent")
    graph = _guarded_delta(G)
    delta = int(graph.degrees.min())
    lam, cut = edge_connectivity(graph)
    diam = int(bfs_distances(graph).max())
    return Outcome(lam == delta and 0 <= diam <= 2,
                   {"lambda": delta, "diameter_at_most": 2},
                   {"lambda": lam, "diameter": diam}, cut)


def _check_lem_5_3(G: Group, budget: SearchBudget) -> Outcome:
    A, _, B, _ = _coprime_split(G)
    ra = total_domination(delta_of(A).graph, budget)
    rb = total_domination(delta_of(B).graph, budget)
    gt = nilpotent_td(G, budget)[0]
    if ra.size is None or rb.size is None or gt is None:
        raise _Budget(0, None)
    return Outcome(gt <= ra.size * rb.size, {"at_most": ra.size * rb.size},
                   {"gamma_t": gt, "factors": [ra.size, rb.size]})


def _check_sandwich(G: Group, budget: SearchBudget) -> Outcome:
    st = nilpotent_structure(G)
    if st.is_cyclic:
        raise _Skip("bounds apply to noncyclic groups")
    params = MultipartiteParams(tuple(q + 1 for q in st.noncyclic_primes))
    lower, upper, t = td_bounds(params)
    gt, _, _, res = nilpotent_td(G, budget)
    if gt is None:
        raise _Budget(0, None)
    return Outcome(lower <= gt <= upper and lower >= st.s + 1,
                   {"lower": lower, "upper": upper, "t": t}, {"gamma_t": gt},
                   nodes=res.nodes if res else 0)


# ---------------------------------------------------------------------------
# open questions, on any 2-generated group: a false result is a
# counterexample candidate, with its certificate kept


def _question_conn(G: Group, budget: SearchBudget) -> Outcome:
    conn, delta = _connectivity(G)
    return Outcome(conn.value == delta, {"kappa": delta},
                   {"kappa": conn.value, "delta": delta}, conn.cut)


def _question_ham(G: Group, budget: SearchBudget) -> Outcome:
    if G.n < 3:  # C2 is outside the question
        return Outcome(True, {"hamiltonian": False}, {"excluded": True})
    graph = delta_of(G).graph
    if is_nilpotent(G):
        res = nilpotent_hamiltonian(G, budget)
    elif graph.n > HAM_SEARCH_GUARD:
        raise _Skip(f"search guard: |V(Delta)| = {graph.n}")
    else:
        res = hamiltonian(graph, budget)
    if res.status == "budget":
        raise _Budget(res.nodes, None)
    ok = res.status == "yes"
    return Outcome(ok, {"hamiltonian": True}, {"hamiltonian": ok}, res.cycle, res.nodes)


def _question_chrom(G: Group, budget: SearchBudget) -> Outcome:
    cl, ch = _omega_chi(G, budget)
    return Outcome(cl.size == ch.chi, {"omega_equals_chi": True},
                   {"omega": cl.size, "chi": ch.chi}, ch.coloring, cl.nodes + ch.nodes)


# ---------------------------------------------------------------------------
# the registry and its driver


@dataclass(frozen=True)
class Check:
    """One registered check or question."""

    compute: Callable[[Group, SearchBudget], Outcome]
    nilpotent: bool             # gate: nilpotent and 2-generated, else 2-generated
    formula_only: bool = False  # cheap enough for oversized formula-only entries
    false_status: str = "fail"  # "counterexample" for an open question


REGISTRY = {
    "THM_1_1": Check(_check_thm_1_1, nilpotent=True),
    "THM_1_3_EULER": Check(_check_euler, nilpotent=True, formula_only=True),
    "THM_1_3_HAM": Check(_check_ham, nilpotent=True),
    "THM_1_4_TDN": Check(_check_tdn, nilpotent=True, formula_only=True),
    "THM_1_5": Check(_check_clique_chromatic, nilpotent=True),
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
    "Q_CHROM": Check(_question_chrom, nilpotent=False, false_status="counterexample"),
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


def run_check(G: Group, check_id: str, budget: SearchBudget = DEFAULT_BUDGET,
              name: str | None = None) -> CheckResult:
    """Run one registered check or question on one group.  Errors that
    falsify the implementation are a fail; other package errors mean the
    check does not apply and are a skip."""
    if check_id not in REGISTRY:
        raise ValueError(f"unknown check {check_id!r}")
    check = REGISTRY[check_id]
    name = name if name is not None else G.name
    try:
        _gate(G, check.nilpotent)
        out = check.compute(G, budget)
    except _Skip as e:
        return CheckResult(name, check_id, "skipped", reason=str(e))
    except _Budget as e:
        nodes, expected = e.args
        return CheckResult(name, check_id, "budget", expected=expected,
                           reason="node budget exhausted", nodes=nodes)
    except (ConstructionError, InternalMismatchError) as e:
        return CheckResult(name, check_id, "fail",
                           reason=f"{type(e).__name__}: {e}")
    except GengraphError as e:
        return CheckResult(name, check_id, "skipped",
                           reason=f"{type(e).__name__}: {e}")
    cert = out.certificate  # its size is the length of its first field
    if cert is not None and len(getattr(cert, fields(cert)[0].name)) > CERT_SIZE_LIMIT:
        cert = None
    return CheckResult(name, check_id, "pass" if out.ok else check.false_status,
                       out.expected, out.observed, certificate=cert, nodes=out.nodes)


def scan_question(G: Group, which: str, budget: SearchBudget = DEFAULT_BUDGET,
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
    """One spec per line; '#' starts a comment; optional trailing
    '!formula-only' marker."""
    entries = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            formula_only = line.endswith("!formula-only")
            if formula_only:
                line = line[: -len("!formula-only")].strip()
            entries.append(CatalogEntry(line, formula_only=formula_only))
    return tuple(entries)


def run_catalog(entries, checks=CHECK_IDS, jobs: int = 1,
                budget: SearchBudget = DEFAULT_BUDGET,
                max_order: int = DEFAULT_MAX_ORDER,
                catalog_name: str = "custom") -> Report:
    """Evaluate all (group, check) pairs; build failures become Skipped.

    Each group is one task that runs its checks in sequence, so no two
    workers fill the same group's caches.  The report is deterministic and
    independent of the worker count: results are assembled in catalog order.
    """
    entries = tuple(entries)
    checks = tuple(checks)
    for check in checks:
        if check not in REGISTRY:
            raise ValueError(f"unknown check {check!r}")
    groups: dict[str, Group | str] = {}
    for e in entries:
        if e.spec in groups:
            continue
        try:
            groups[e.spec] = build_cached(e.spec, max(max_order, e.max_order))
        except GengraphError as err:
            groups[e.spec] = f"{type(err).__name__}: {err}"

    def evaluate(entry: CatalogEntry) -> list[CheckResult]:
        built = groups[entry.spec]
        results = []
        for check in checks:
            if isinstance(built, str):
                results.append(CheckResult(entry.spec, check, "skipped",
                                           reason=f"build failed: {built}"))
            elif entry.formula_only and not REGISTRY[check].formula_only:
                results.append(CheckResult(entry.spec, check, "skipped",
                                           reason="formula-only catalog entry"))
            else:
                results.append(run_check(built, check, budget, name=entry.spec))
        return results

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_group = list(pool.map(evaluate, entries))
    else:
        per_group = [evaluate(e) for e in entries]
    results = tuple(r for rows in per_group for r in rows)
    return Report(__version__, catalog_name, results, summarize(results))
