"""Output checks against references that share no code with biconcert.

Every check takes what a CLI call wrote (parsed documents or raw text) and
returns a :class:`Verdict`: the problems found and how many certificates
claim a node is safe although the reference names it a cut vertex. Cut
vertices and local biconnectedness come from networkx. The disk model, and
lambda3 of the perturbed Laplacian with both bounds for a seeded sample of
nodes, are recomputed here with numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

# verify-suite checks that report but never gate, as documented in the README.
INFORMATIONAL_CHECKS = {"null-drift-derivative", "certificate-search-simplified"}

# Nodes per check report, and per sweep, whose lambda3 and bounds are recomputed.
SPECTRAL_SAMPLE = 8
# The certificate's strictness margin: certified iff lambda3 > bound + margin.
CERTIFY_MARGIN = 1e-12
# Agreement asked of lambda3 and the bounds: JSON keeps every digit, CSV six.
JSON_RTOL, CSV_RTOL, ABS_TOL = 1e-7, 1e-5, 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    unsound: int = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Reference:
    """Exact answers for one graph document, from networkx."""

    n: int
    graph: nx.Graph
    cut_vertices: frozenset[int]
    weights: np.ndarray

    @classmethod
    def from_doc(cls, doc: dict) -> "Reference":
        n = doc["n"]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_weighted_edges_from((i, j, w) for i, j, w in doc["edges"])
        w = np.zeros((n, n))
        for i, j, x in doc["edges"]:
            w[i, j] = w[j, i] = x
        return cls(n, g, frozenset(nx.articulation_points(g)), w)

    def locally_biconnected(self, i: int) -> bool:
        nbrs = list(self.graph.neighbors(i))
        return len(nbrs) == 1 or nx.is_connected(self.graph.subgraph(nbrs))

    def spectral(self, i: int, eps: float) -> tuple[float, float, float]:
        """lambda3 of L_i(eps), the simplified bound and the exact bound.

        L_i(eps) is the Laplacian with every edge at i scaled by eps. With a
        the weights from i to the other n-1 nodes, the simplified bound is
        eps*sqrt(n*|a|^2), and the exact one is eps*||diag(a) + a 1^T||_F,
        which is eps*sqrt((n+2)*|a|^2) in closed form.
        """
        w = self.weights.copy()
        w[i, :] *= eps
        w[:, i] *= eps
        lam3 = float(np.linalg.eigvalsh(np.diag(w.sum(axis=1)) - w)[2])
        a2 = float(np.sum(np.delete(self.weights[i], i) ** 2))
        return lam3, eps * math.sqrt(self.n * a2), eps * math.sqrt((self.n + 2) * a2)


def _spectral_problems(ref: Reference, node: int, eps: float, lam3: float, simple: float, exact: float,
                       flags: dict[str, bool], rtol: float) -> list[str]:
    """Where a node's lambda3, bounds or certified flags disagree with the reference.

    ``flags`` maps a bound ("simplified" or "exact") to the certified flag
    claimed against it. A flag is not judged when lambda3 and that bound tie
    within the tolerance.
    """
    want = dict(zip(("lambda3", "simplified", "exact"), ref.spectral(node, eps)))
    got = {"lambda3": lam3, "simplified": simple, "exact": exact}
    out = [f"node {node} eps {eps:g}: {k} {got[k]!r}, reference {want[k]!r}"
           for k in got if not math.isclose(got[k], want[k], rel_tol=rtol, abs_tol=ABS_TOL)]
    for bound, flag in flags.items():
        gap = want["lambda3"] - want[bound] - CERTIFY_MARGIN
        if abs(gap) > rtol * max(abs(want["lambda3"]), abs(want[bound])) + ABS_TOL and flag != (gap > 0):
            out.append(f"node {node} eps {eps:g}: certified against the {bound} bound is {flag}, reference {gap > 0}")
    return out


def _sample(rng: np.random.Generator, nodes: list[int]) -> list[int]:
    if len(nodes) <= SPECTRAL_SAMPLE:
        return nodes
    return sorted(int(i) for i in rng.choice(nodes, SPECTRAL_SAMPLE, replace=False))


def check_gen(text: str, repeat: str, n: int, radius: float, sigma: float) -> Verdict:
    """Connected disk-model graph, identical bytes for the same seed."""
    v = Verdict()
    v.require(text == repeat, "gen output differs between two runs with the same seed")
    doc = json.loads(text)
    v.require(doc["n"] == n, f"gen wrote n={doc['n']}, asked for {n}")
    pts = np.asarray(doc["positions"], dtype=float)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    iu, ju = np.triu_indices(n, k=1)
    near = np.sqrt(d2[iu, ju]) <= radius
    want = {(int(i), int(j)): math.exp(-d2[i, j] / (2.0 * sigma)) for i, j in zip(iu[near], ju[near])}
    got = {(i, j): w for i, j, w in doc["edges"]}
    v.require(got.keys() == want.keys(), "gen edges are not the pairs within the radius")
    bad = [k for k in got.keys() & want.keys() if not math.isclose(got[k], want[k], rel_tol=1e-12)]
    v.require(not bad, f"gen weights differ from exp(-d^2/(2 sigma)) on {len(bad)} edges")
    v.require(nx.is_connected(Reference.from_doc(doc).graph), "gen output is not connected")
    return v


def check_report(ref: Reference, report: dict, rc: int, with_oracle: bool, rng: np.random.Generator) -> Verdict:
    """No certified or locally biconnected node is a cut vertex; exit code matches.

    Every node's local flag must match networkx; every node that is not
    locally biconnected must carry lambda3 and both bounds; for a sample
    drawn from ``rng`` of the nodes that carry them, lambda3, the bounds and
    the certified flag must match :meth:`Reference.spectral`.
    """
    v = Verdict()
    nodes = report["nodes"]
    v.require([c["node"] for c in nodes] == list(range(ref.n)), "report does not list every node once")
    if v.problems:
        return v
    wrong = [c["node"] for c in nodes if c["locally_biconnected"] != ref.locally_biconnected(c["node"])]
    v.require(not wrong, f"report locally_biconnected wrong at nodes {wrong[:5]}")
    keys = ("lambda3", "simplified_bound", "exact_norm_bound")
    bare = [c["node"] for c in nodes if not c["locally_biconnected"] and any(c[k] is None for k in keys)]
    v.require(not bare, f"report has no lambda3 or bounds at nodes {bare[:5]}, which are not locally biconnected")
    solved = [c["node"] for c in nodes if all(c[k] is not None for k in keys)]
    for i in _sample(rng, solved):
        c = nodes[i]
        v.problems += _spectral_problems(ref, i, report["epsilon"], *(c[k] for k in keys),
                                         {report["mode"]: c["certified"]}, JSON_RTOL)
    safe = [c["locally_biconnected"] or c["certified"] for c in nodes]
    v.unsound = sum(1 for c, ok in zip(nodes, safe) if ok and c["node"] in ref.cut_vertices)
    v.require(report["graph_certified"] == all(safe), "graph_certified disagrees with the node flags")
    v.require(rc == (0 if report["graph_certified"] else 2), f"check exited {rc}, graph_certified={report['graph_certified']}")
    if with_oracle:
        wrong = [c["node"] for c in nodes if c["oracle_is_articulation"] != (c["node"] in ref.cut_vertices)]
        v.require(not wrong, f"report oracle column wrong at nodes {wrong[:5]}")
        v.require(report["oracle_biconnected"] == (ref.n >= 3 and not ref.cut_vertices), "report oracle_biconnected wrong")
    return v


def check_oracle(ref: Reference, doc: dict) -> Verdict:
    v = Verdict()
    v.require(doc["articulation_points"] == sorted(ref.cut_vertices), "oracle articulation points differ from networkx")
    v.require(doc["biconnected"] == (ref.n >= 3 and not ref.cut_vertices), "oracle biconnected flag wrong")
    v.require(doc["n"] == ref.n, "oracle n wrong")
    return v


_DOT_NODE = re.compile(r"^  (\d+)(?: \[(.*)\])?;$")


def check_export(ref: Reference, dot: str) -> Verdict:
    """DOT marks: articulation=true exactly on cut vertices, local marks exact."""
    v = Verdict()
    attrs = {}
    for line in dot.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            attrs[int(m.group(1))] = m.group(2) or ""
    v.require(sorted(attrs) == list(range(ref.n)), "export does not list every node once")
    marked = {i for i, a in attrs.items() if "articulation=true" in a}
    v.require(marked == ref.cut_vertices, "export articulation marks differ from networkx")
    local = {i for i, a in attrs.items() if "locally_biconnected=true" in a}
    v.require(local == {i for i in range(ref.n) if ref.locally_biconnected(i)}, "export local marks wrong")
    v.unsound = len(local & ref.cut_vertices)
    edges = sum(1 for line in dot.splitlines() if " -- " in line)
    v.require(edges == ref.graph.number_of_edges(), "export edge count wrong")
    return v


def check_sweep(ref: Reference, text: str, grid: list[float], rng: np.random.Generator) -> Verdict:
    """One row per (node, epsilon) in order; no certified_exact row on a cut vertex.

    For a sample drawn from ``rng`` of the nodes, every row's lambda3,
    bounds and both certified flags must match :meth:`Reference.spectral`.
    """
    v = Verdict()
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = [(i, e) for i in range(ref.n) for e in grid]
    got = [(int(r["node"]), float(r["epsilon"])) for r in rows]
    v.require(len(got) == len(keys) and all(i == j and math.isclose(e, f, rel_tol=CSV_RTOL)
                                            for (i, e), (j, f) in zip(keys, got)),
              f"sweep wrote {len(rows)} rows, not one per node and epsilon {grid[0]:g}..{grid[-1]:g} in order")
    v.unsound = sum(1 for r in rows if r["certified_exact"] == "true" and int(r["node"]) in ref.cut_vertices)
    if v.problems:
        return v
    for i in _sample(rng, list(range(ref.n))):
        for eps, r in zip(grid, rows[i * len(grid):(i + 1) * len(grid)]):
            flags = {"simplified": r["certified_simplified"] == "true", "exact": r["certified_exact"] == "true"}
            v.problems += _spectral_problems(ref, i, eps, float(r["lambda3"]), float(r["simplified_bound"]),
                                             float(r["exact_bound"]), flags, CSV_RTOL)
    return v


def check_verify(rc: int, outcomes: list[dict]) -> Verdict:
    v = Verdict()
    v.require(rc == 0, f"verify exited {rc}")
    failing = [o["name"] for o in outcomes if not o["passed"] and o["name"] not in INFORMATIONAL_CHECKS]
    v.require(not failing, f"verify checks failed: {failing}")
    return v
