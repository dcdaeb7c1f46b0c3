"""Theorem checks and conjecture scans over a catalog of groups.

Every check computes an expected value from a closed-form criterion and an
observed value from the independent exact algorithms on the realised graph,
and passes only when they agree (or when the inequality holds, for bound
checks).  All failures are values, never exceptions; checks that do not
apply to a group are Skipped with a reason.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .build import build_cached, parse_spec
from .constructions import nilpotent_hamiltonian, nilpotent_td
from .errors import ConstructionError, GengraphError, InternalMismatchError
from .generating import (
    coprime_noncyclic_split,
    degree_profile,
    delta_graph,
    delta_of,
    formula_min_degree,
    gamma_coset_bijection,
    generating_graph,
    lex_decomposition_check,
    recover_cyclic_radical,
)
from .graphs import (
    Certificate,
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
    nilpotent_structure,
    quotient_mod_frattini,
    subgroup_as_group,
    totient_profile,
)
from .search import DEFAULT_BUDGET, SearchBudget, chromatic_number, clique_number, total_domination

CHECK_IDS = (
    "THM_1_1",
    "THM_1_3_EULER",
    "THM_1_3_HAM",
    "THM_1_4_TDN",
    "THM_1_5",
    "LEM_2_1",
    "EQ_LEX",
    "LEM_2_2_DEG",
    "COR_2_6_PROD",
    "REMARK_FACTS",
    "PROP_2_9",
    "LEM_3_1_KAPPA",
    "REM_3_5",
    "LEM_5_3_SUB",
    "SANDWICH_5_5_5_6",
)

QUESTION_IDS = ("Q_CONN", "Q_HAM", "Q_CHROM")

FLOW_GUARD = 150          # |V(Delta)| cap for max-flow checks
SEARCH_GROUP_GUARD = 130  # |G| cap for exact clique/chromatic checks
HAM_SEARCH_GUARD = 100    # |V(Delta)| cap when Hamiltonicity needs search
CERT_SIZE_LIMIT = 2000    # certificates longer than this stay out of reports

# checks cheap enough for the catalog's oversized formula-only entries
FORMULA_ONLY_CHECKS = frozenset(
    {"REMARK_FACTS", "THM_1_3_EULER", "THM_1_4_TDN", "SANDWICH_5_5_5_6", "PROP_2_9"})

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
# applicability helpers


def _skip(group: str, check: str, reason: str) -> CheckResult:
    return CheckResult(group, check, "skipped", reason=reason)


def _nilpotent_2gen(G: Group, name: str, check: str) -> CheckResult | None:
    if G.n == 1:
        return _skip(name, check, "trivial group: graph conventions are ours, flagged")
    if not is_nilpotent(G):
        return _skip(name, check, "group is not nilpotent")
    st = nilpotent_structure(G)
    if not st.two_generated:
        return _skip(name, check, "NotTwoGenerated: more than 2 generators needed")
    return None


def _two_gen(G: Group, name: str, check: str) -> CheckResult | None:
    if G.n == 1:
        return _skip(name, check, "trivial group: graph conventions are ours, flagged")
    from .groups import is_two_generated
    if not is_two_generated(G):
        return _skip(name, check, "NotTwoGenerated: more than 2 generators needed")
    return None


def _maybe_cert(cert: Certificate | None, size: int) -> Certificate | None:
    return cert if cert is not None and size <= CERT_SIZE_LIMIT else None


# ---------------------------------------------------------------------------
# individual checks


def _check_thm_1_1(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "THM_1_1")
    if gate:
        return gate
    dd = delta_of(G)
    if dd.graph.n > FLOW_GUARD:
        return _skip(name, "THM_1_1", f"flow guard: |V(Delta)| = {dd.graph.n} > {FLOW_GUARD}")
    st = nilpotent_structure(G)
    formula = formula_min_degree(st)
    delta_obs = int(dd.graph.degrees.min()) if dd.graph.n else 0
    conn = vertex_connectivity(dd.graph)
    ok = conn.value == delta_obs == formula
    cert = conn.cut if conn.cut is not None else None
    return CheckResult(name, "THM_1_1", "pass" if ok else "fail",
                       expected={"kappa": formula, "delta": formula},
                       observed={"kappa": conn.value, "delta": delta_obs,
                                 "complete": conn.complete},
                       certificate=_maybe_cert(cert, len(cert.vertices) if cert else 0))


def _check_euler(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "THM_1_3_EULER")
    if gate:
        return gate
    st = nilpotent_structure(G)
    expected = not (st.is_cyclic and G.n % 2 == 0)
    dd = delta_of(G)
    res = eulerian_circuit(dd.graph)
    observed = res.circuit is not None
    if observed and not verify_certificate(dd.graph, res.circuit):
        observed = None  # invalid circuit: force a visible failure
    ok = observed is expected
    cert = res.circuit if observed else None
    return CheckResult(name, "THM_1_3_EULER", "pass" if ok else "fail",
                       expected={"eulerian": expected},
                       observed={"eulerian": bool(observed),
                                 "reason": res.reason},
                       certificate=_maybe_cert(cert, len(cert.vertices) if cert else 0))


def _check_ham(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "THM_1_3_HAM")
    if gate:
        return gate
    st = nilpotent_structure(G)
    primes = st.cyclic_primes + st.noncyclic_primes
    constructive = (st.is_cyclic or len(primes) == 1
                    or (2 in st.cyclic_primes and len(primes) == 2
                        and dict(st.cyclic_sylow).get(2) == 1))
    dd_size = None
    if not constructive:
        dd_size = delta_of(G).graph.n
        if dd_size > HAM_SEARCH_GUARD:
            return _skip(name, "THM_1_3_HAM",
                         f"search guard: |V(Delta)| = {dd_size} > {HAM_SEARCH_GUARD}")
    expected = G.n >= 3
    res = nilpotent_hamiltonian(G, budget)
    if res.status == "budget":
        return CheckResult(name, "THM_1_3_HAM", "budget",
                           expected={"hamiltonian": expected},
                           observed=None, nodes=res.nodes,
                           reason="node budget exhausted")
    observed = res.status == "yes"
    ok = observed is expected
    return CheckResult(name, "THM_1_3_HAM", "pass" if ok else "fail",
                       expected={"hamiltonian": expected},
                       observed={"hamiltonian": observed},
                       certificate=_maybe_cert(res.cycle, len(res.cycle.vertices) if res.cycle else 0),
                       nodes=res.nodes)


def _check_tdn(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "THM_1_4_TDN")
    if gate:
        return gate
    st = nilpotent_structure(G)
    gt, ds, _, res = nilpotent_td(G, budget)
    if gt is None:
        return CheckResult(name, "THM_1_4_TDN", "budget",
                           reason="node budget exhausted",
                           nodes=res.nodes if res else 0)
    nodes = res.nodes if res else 0
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
    return CheckResult(name, "THM_1_4_TDN", "pass" if ok else "fail",
                       expected=expected, observed={"gamma_t": gt},
                       certificate=_maybe_cert(ds, len(ds.vertices)),
                       nodes=nodes)


def _check_clique_chromatic(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "THM_1_5")
    if gate:
        return gate
    if G.n > SEARCH_GROUP_GUARD:
        return _skip(name, "THM_1_5", f"search guard: |G| = {G.n} > {SEARCH_GROUP_GUARD}")
    st = nilpotent_structure(G)
    if st.is_cyclic:
        _, phi, r = totient_profile(G.n)
        expected = phi + r
    else:
        expected = st.noncyclic_primes[0] + 1
    gg = generating_graph(G)
    cl = clique_number(gg.graph, budget)
    if cl.exceeded:
        return CheckResult(name, "THM_1_5", "budget",
                           reason="node budget exhausted", nodes=cl.nodes)
    ch = chromatic_number(gg.graph, budget)
    if ch.exceeded:
        return CheckResult(name, "THM_1_5", "budget",
                           reason="node budget exhausted", nodes=cl.nodes + ch.nodes)
    ok = cl.size == ch.chi == expected
    return CheckResult(name, "THM_1_5", "pass" if ok else "fail",
                       expected={"omega": expected, "chi": expected},
                       observed={"omega": cl.size, "chi": ch.chi},
                       certificate=_maybe_cert(cl.clique, len(cl.clique.vertices)),
                       nodes=cl.nodes + ch.nodes)


def _check_complete(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _two_gen(G, name, "LEM_2_1")
    if gate:
        return gate
    _, _, r = totient_profile(G.n)
    expected = (G.is_cyclic and r == 1 and G.n == totient_profile(G.n)[0][0][0]) \
        or (G.n == 4 and not G.is_cyclic)
    dd = delta_of(G)
    observed = dd.graph.n > 0 and dd.graph.is_complete()
    ok = observed is expected
    return CheckResult(name, "LEM_2_1", "pass" if ok else "fail",
                       expected={"complete": expected},
                       observed={"complete": observed})


def _check_eq_lex(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _two_gen(G, name, "EQ_LEX")
    if gate:
        return gate
    res = lex_decomposition_check(G)
    return CheckResult(name, "EQ_LEX", "pass" if res.passed else "fail",
                       expected={"edges": res.delta_edges},
                       observed={"edges": res.product_edges, "detail": res.detail})


def _check_degree_frat(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _two_gen(G, name, "LEM_2_2_DEG")
    if gate:
        return gate
    if G.is_cyclic:
        return _skip(name, "LEM_2_2_DEG", "degree identity assumes a noncyclic group")
    gg = generating_graph(G)
    Q, cmap, phi = quotient_mod_frattini(G)
    qdeg = generating_graph(Q).graph.degrees
    expected = qdeg[cmap] * phi.size
    ok = bool(np.array_equal(gg.graph.degrees, expected))
    return CheckResult(name, "LEM_2_2_DEG", "pass" if ok else "fail",
                       expected={"phi": phi.size},
                       observed={"all_degrees_scale": ok})


def _check_cor_2_6(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "COR_2_6_PROD")
    if gate:
        return gate
    split = coprime_noncyclic_split(G)
    if split is None:
        return _skip(name, "COR_2_6_PROD", "no coprime split into noncyclic factors")
    A, amap, B, bmap = split
    da, db = delta_of(A), delta_of(B)
    prod = direct_product(da.graph, db.graph)
    mapped = np.empty(prod.n, dtype=np.int64)
    nb = db.graph.n
    for i, va in enumerate(da.vertex_elements):
        ga = int(amap[va])
        for j, vb in enumerate(db.vertex_elements):
            mapped[i * nb + j] = G.table[ga, int(bmap[vb])]
    prod_edges = {(min(int(mapped[u]), int(mapped[v])), max(int(mapped[u]), int(mapped[v])))
                  for u, v in prod.edges()}
    dd = delta_of(G)
    delta_edges = {(min(dd.vertex_elements[u], dd.vertex_elements[v]),
                    max(dd.vertex_elements[u], dd.vertex_elements[v]))
                   for u, v in dd.graph.edges()}
    vertices_match = set(int(x) for x in mapped) >= set(dd.vertex_elements)
    ok = prod_edges == delta_edges and vertices_match
    return CheckResult(name, "COR_2_6_PROD", "pass" if ok else "fail",
                       expected={"edges": len(delta_edges)},
                       observed={"edges": len(prod_edges),
                                 "factors": [A.n, B.n]})


def _check_remark_facts(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "REMARK_FACTS")
    if gate:
        return gate
    try:
        prof = degree_profile(G)
    except InternalMismatchError as e:
        return CheckResult(name, "REMARK_FACTS", "fail",
                           expected="formula census", observed=str(e))
    return CheckResult(name, "REMARK_FACTS", "pass",
                       expected={"P2": str(prof.gen_probability),
                                 "V_delta": prof.nonisolated_count,
                                 "min_degree": prof.min_degree},
                       observed={"P2": str(prof.gen_probability_observed),
                                 "V_delta": prof.nonisolated_observed,
                                 "min_degree": prof.min_degree_observed,
                                 "classes": len(prof.classes)})


def _check_prop_2_9(G: Group, name: str, budget: SearchBudget,
                    max_order: int = DEFAULT_MAX_ORDER) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "PROP_2_9")
    if gate:
        return gate
    if G.is_cyclic:
        return _skip(name, "PROP_2_9", "statistic is defined for noncyclic groups")
    st = nilpotent_structure(G)
    expected_radical = 1
    for p in st.cyclic_primes:
        expected_radical *= p
    gg = generating_graph(G)
    observed_radical = recover_cyclic_radical(gg)
    ok = observed_radical == expected_radical
    observed = {"radical_statistic": observed_radical}
    expected = {"radical_statistic": expected_radical}
    pair = PROP_2_9_PAIRS.get(name)
    if pair is not None:
        partner_spec, positive = pair
        H = build_cached(partner_spec, max_order)
        if positive:
            perm = gamma_coset_bijection(G, H)
            gh = generating_graph(H)
            same = bool(np.array_equal(
                gg.graph.adj, gh.graph.adj[np.ix_(perm, perm)]))
            ok = ok and same
            expected["gamma_equal_under_bijection"] = True
            observed["gamma_equal_under_bijection"] = same
        else:
            gh = generating_graph(H)
            dG = sorted(gg.graph.degrees.tolist())
            dH = sorted(gh.graph.degrees.tolist())
            differ = dG != dH
            ok = ok and differ
            expected["degree_multisets_differ"] = True
            observed["degree_multisets_differ"] = differ
        observed["partner"] = partner_spec
    return CheckResult(name, "PROP_2_9", "pass" if ok else "fail",
                       expected=expected, observed=observed)


def _check_lem_3_1(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _two_gen(G, name, "LEM_3_1_KAPPA")
    if gate:
        return gate
    dd = delta_of(G)
    if dd.graph.n > FLOW_GUARD:
        return _skip(name, "LEM_3_1_KAPPA",
                     f"flow guard: |V(Delta)| = {dd.graph.n} > {FLOW_GUARD}")
    Q, _, phi = quotient_mod_frattini(G)
    qd = delta_of(Q)
    kq = vertex_connectivity(qd.graph).value if qd.graph.n else 0
    kg = vertex_connectivity(dd.graph).value if dd.graph.n else 0
    ok = kg == kq * phi.size
    return CheckResult(name, "LEM_3_1_KAPPA", "pass" if ok else "fail",
                       expected={"kappa": kq * phi.size},
                       observed={"kappa": kg, "kappa_quotient": kq,
                                 "phi": phi.size})


def _check_rem_3_5(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _two_gen(G, name, "REM_3_5")
    if gate:
        return gate
    der = derived_subgroup(G)
    D, _ = subgroup_as_group(G, sorted(der.indices))
    if not is_nilpotent(D):
        return _skip(name, "REM_3_5", "derived subgroup is not nilpotent")
    dd = delta_of(G)
    if dd.graph.n > FLOW_GUARD:
        return _skip(name, "REM_3_5", f"flow guard: |V(Delta)| = {dd.graph.n} > {FLOW_GUARD}")
    if dd.graph.n == 0:
        return _skip(name, "REM_3_5", "Delta is empty")
    delta_obs = int(dd.graph.degrees.min())
    lam, cut = edge_connectivity(dd.graph)
    dist = bfs_distances(dd.graph)
    diam = int(dist.max())
    ok = lam == delta_obs and 0 <= diam <= 2
    return CheckResult(name, "REM_3_5", "pass" if ok else "fail",
                       expected={"lambda": delta_obs, "diameter_at_most": 2},
                       observed={"lambda": lam, "diameter": diam},
                       certificate=_maybe_cert(cut, len(cut.edges)))


def _check_lem_5_3(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "LEM_5_3_SUB")
    if gate:
        return gate
    split = coprime_noncyclic_split(G)
    if split is None:
        return _skip(name, "LEM_5_3_SUB", "no coprime split into noncyclic factors")
    A, _, B, _ = split
    ra = total_domination(delta_of(A).graph, budget)
    rb = total_domination(delta_of(B).graph, budget)
    gt, _, _, res = nilpotent_td(G, budget)
    if ra.size is None or rb.size is None or gt is None:
        return CheckResult(name, "LEM_5_3_SUB", "budget",
                           reason="node budget exhausted")
    ok = gt <= ra.size * rb.size
    return CheckResult(name, "LEM_5_3_SUB", "pass" if ok else "fail",
                       expected={"at_most": ra.size * rb.size},
                       observed={"gamma_t": gt,
                                 "factors": [ra.size, rb.size]})


def _check_sandwich(G: Group, name: str, budget: SearchBudget) -> CheckResult:
    gate = _nilpotent_2gen(G, name, "SANDWICH_5_5_5_6")
    if gate:
        return gate
    st = nilpotent_structure(G)
    if st.is_cyclic:
        return _skip(name, "SANDWICH_5_5_5_6", "bounds apply to noncyclic groups")
    params = MultipartiteParams(tuple(q + 1 for q in st.noncyclic_primes))
    lower, upper, t = td_bounds(params)
    gt, _, _, res = nilpotent_td(G, budget)
    if gt is None:
        return CheckResult(name, "SANDWICH_5_5_5_6", "budget",
                           reason="node budget exhausted")
    ok = lower <= gt <= upper and lower >= st.s + 1
    return CheckResult(name, "SANDWICH_5_5_5_6", "pass" if ok else "fail",
                       expected={"lower": lower, "upper": upper, "t": t},
                       observed={"gamma_t": gt},
                       nodes=res.nodes if res else 0)


_CHECKS = {
    "THM_1_1": _check_thm_1_1,
    "THM_1_3_EULER": _check_euler,
    "THM_1_3_HAM": _check_ham,
    "THM_1_4_TDN": _check_tdn,
    "THM_1_5": _check_clique_chromatic,
    "LEM_2_1": _check_complete,
    "EQ_LEX": _check_eq_lex,
    "LEM_2_2_DEG": _check_degree_frat,
    "COR_2_6_PROD": _check_cor_2_6,
    "REMARK_FACTS": _check_remark_facts,
    "PROP_2_9": _check_prop_2_9,
    "LEM_3_1_KAPPA": _check_lem_3_1,
    "REM_3_5": _check_rem_3_5,
    "LEM_5_3_SUB": _check_lem_5_3,
    "SANDWICH_5_5_5_6": _check_sandwich,
}


def run_check(G: Group, check_id: str, budget: SearchBudget = DEFAULT_BUDGET,
              name: str | None = None) -> CheckResult:
    """Run one theorem check on one group.  Errors that falsify the
    implementation are a fail; other package errors mean the check does not
    apply and are a skip."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    name = name if name is not None else G.name
    try:
        return _CHECKS[check_id](G, name, budget)
    except (ConstructionError, InternalMismatchError) as e:
        return CheckResult(name, check_id, "fail",
                           reason=f"{type(e).__name__}: {e}")
    except GengraphError as e:
        return CheckResult(name, check_id, "skipped",
                           reason=f"{type(e).__name__}: {e}")


def scan_question(G: Group, which: str, budget: SearchBudget = DEFAULT_BUDGET,
                  name: str | None = None) -> CheckResult:
    """Scan one open question on any 2-generated group; a Fail is flagged
    as a counterexample candidate with its certificates preserved."""
    name = name if name is not None else G.name
    if which not in QUESTION_IDS:
        raise ValueError(f"unknown question {which!r}")
    gate = _two_gen(G, name, which)
    if gate:
        return gate
    if which == "Q_CONN":
        dd = delta_of(G)
        if dd.graph.n > FLOW_GUARD:
            return _skip(name, which, f"flow guard: |V(Delta)| = {dd.graph.n} > {FLOW_GUARD}")
        if dd.graph.n == 0:
            return _skip(name, which, "Delta is empty")
        conn = vertex_connectivity(dd.graph)
        delta_obs = int(dd.graph.degrees.min())
        ok = conn.value == delta_obs
        cert = conn.cut
        return CheckResult(name, which, "pass" if ok else "counterexample",
                           expected={"kappa": delta_obs},
                           observed={"kappa": conn.value, "delta": delta_obs},
                           certificate=_maybe_cert(cert, len(cert.vertices) if cert else 0))
    if which == "Q_HAM":
        if G.n < 3:
            ok = True  # C2 and C1 are outside the question
            return CheckResult(name, which, "pass",
                               expected={"hamiltonian": False},
                               observed={"excluded": True})
        dd = delta_of(G)
        if dd.graph.n > HAM_SEARCH_GUARD and not is_nilpotent(G):
            return _skip(name, which, f"search guard: |V(Delta)| = {dd.graph.n}")
        if is_nilpotent(G):
            res = nilpotent_hamiltonian(G, budget)
        else:
            from .search import hamiltonian as _ham
            res = _ham(dd.graph, budget)
        if res.status == "budget":
            return CheckResult(name, which, "budget",
                               reason="node budget exhausted", nodes=res.nodes)
        ok = res.status == "yes"
        return CheckResult(name, which, "pass" if ok else "counterexample",
                           expected={"hamiltonian": True},
                           observed={"hamiltonian": ok},
                           certificate=_maybe_cert(res.cycle,
                                                   len(res.cycle.vertices) if res.cycle else 0),
                           nodes=res.nodes)
    # Q_CHROM
    if G.n > SEARCH_GROUP_GUARD:
        return _skip(name, which, f"search guard: |G| = {G.n} > {SEARCH_GROUP_GUARD}")
    gg = generating_graph(G)
    cl = clique_number(gg.graph, budget)
    if cl.exceeded:
        return CheckResult(name, which, "budget",
                           reason="node budget exhausted", nodes=cl.nodes)
    ch = chromatic_number(gg.graph, budget)
    if ch.exceeded:
        return CheckResult(name, which, "budget",
                           reason="node budget exhausted", nodes=cl.nodes + ch.nodes)
    ok = cl.size == ch.chi
    return CheckResult(name, which, "pass" if ok else "counterexample",
                       expected={"omega_equals_chi": True},
                       observed={"omega": cl.size, "chi": ch.chi},
                       certificate=_maybe_cert(ch.coloring, len(ch.coloring.colors)),
                       nodes=cl.nodes + ch.nodes)


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

    The report is deterministic and independent of the worker count: tasks
    are pure, and results are assembled in catalog order.
    """
    entries = tuple(entries)
    checks = tuple(checks)
    groups: dict[str, Group | str] = {}
    for e in entries:
        if e.spec in groups:
            continue
        try:
            groups[e.spec] = build_cached(e.spec, max(max_order, e.max_order))
        except GengraphError as err:
            groups[e.spec] = f"{type(err).__name__}: {err}"

    def evaluate(task) -> CheckResult:
        entry, check = task
        built = groups[entry.spec]
        if isinstance(built, str):
            return CheckResult(entry.spec, check, "skipped",
                               reason=f"build failed: {built}")
        if entry.formula_only and check not in FORMULA_ONLY_CHECKS:
            return CheckResult(entry.spec, check, "skipped",
                               reason="formula-only catalog entry")
        return run_check(built, check, budget, name=entry.spec)

    tasks = [(e, c) for e in entries for c in checks]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = tuple(pool.map(evaluate, tasks))
    else:
        results = tuple(evaluate(t) for t in tasks)
    return Report(__version__, catalog_name, results, summarize(results))
