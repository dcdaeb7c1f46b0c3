"""Independent cross-check of kappa, lambda and omega with networkx.

The program's values (from its reports, or computed after the timed region
where no report gives one) are compared with networkx's
``node_connectivity``, ``edge_connectivity`` and ``max_weight_clique`` on
the same graphs.  networkx's answers are memoised by a digest of the
graph, in a file inside the checkout, so an unchanged graph is solved once
per checkout; a program change that alters a graph changes its digest and
is solved afresh.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path

import networkx as nx
import numpy as np


def unpack(packed: dict) -> np.ndarray:
    n = packed["n"]
    bits = np.frombuffer(base64.b64decode(packed["bits"]), dtype=np.uint8)
    return np.unpackbits(bits, count=n * n).reshape(n, n).astype(bool)


def solve(kind: str, adj: np.ndarray) -> int:
    graph = nx.from_numpy_array(adj.astype(np.uint8))
    if kind == "kappa":
        return int(nx.node_connectivity(graph))
    if kind == "lambda":
        return int(nx.edge_connectivity(graph))
    clique, _ = nx.max_weight_clique(graph, weight=None)
    return len(clique)


def crosscheck(entries: list[dict], cache_path: Path) -> tuple[int, list[str]]:
    """(comparisons made, descriptions of disagreements)."""
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    checked, disagreed = 0, []
    for entry in entries:
        for kind, graph_key in (("kappa", "delta"), ("lambda", "delta"), ("omega", "gamma")):
            if kind not in entry:
                continue
            packed = entry[graph_key]
            key = kind + ":" + hashlib.sha256(
                f"{packed['n']}:{packed['bits']}".encode()).hexdigest()
            if key not in cache:
                cache[key] = solve(kind, unpack(packed))
            for value in entry[kind]:
                checked += 1
                if value != cache[key]:
                    disagreed.append(f"{entry['group']}: {kind} {value} != networkx {cache[key]}")
    tmp = cache_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    os.replace(tmp, cache_path)
    return checked, disagreed
