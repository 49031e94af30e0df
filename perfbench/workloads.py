"""The three workloads: inputs made from a seed, the CLI calls of one batch,
and a check of every output that uses the benchmark's own arithmetic.

A workload object is built once per set-up.  ``batch()`` returns the ops
of one batch as ``Op`` tuples, the same ops every time; the program sees
only their argument lists and the files written in set-up.  A checker returns an error string
for a wrong answer and None for a right one.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple, Optional


class Op(NamedTuple):
    command: str
    argv: list
    check: Callable[[str], Optional[str]]


# -- graph6 writer -------------------------------------------------------


def _graph6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126] + [(n >> s & 63) + 63 for s in (12, 6, 0)])


def encode_graph6(n: int, pairs, dense: bool) -> bytes:
    """graph6 line (with newline) of the graph on n <= 258047 vertices whose
    edges are ``pairs`` (dense=False) or every pair except ``pairs``
    (dense=True).  Work is linear in len(pairs), so a dense certificate with
    a sparse complement is written in milliseconds."""
    nbits = n * (n - 1) // 2
    body = bytearray([126 if dense else 63]) * ((nbits + 5) // 6)
    if dense and body:
        body[-1] -= (1 << (len(body) * 6 - nbits)) - 1  # padding bits stay 0
    sign = -1 if dense else 1
    for u, v in pairs:
        if u > v:
            u, v = v, u
        bit = v * (v - 1) // 2 + u  # column-major upper triangle
        body[bit // 6] += sign << (5 - bit % 6)
    return _graph6_header(n) + bytes(body) + b"\n"


def _lower_pairs(rows, adjacent: bool) -> list:
    """(u, v) with u < v for every edge (adjacent=True) or non-edge."""
    out = []
    for v, row in enumerate(rows):
        low = (row if adjacent else ~row) & ((1 << v) - 1)
        while low:
            bit = low & -low
            out.append((bit.bit_length() - 1, v))
            low ^= bit
    return out


def _relabel(pairs, n: int, rng: random.Random) -> list:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return [(sigma[u], sigma[v]) for u, v in pairs]


# -- expected answers ------------------------------------------------------


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def clique_counts(k: int, q: int, m: int) -> list:
    """j-clique counts of the (k, q, m) function graph, j = 0..q:
    C(q,j) * m^(C(q,k) - C(q-j,k-j))."""
    return [comb(q, j) * m ** (comb(q, k) - _comb0(q - j, k - j)) for j in range(q + 1)]


def plan_counts(q: int, components) -> list:
    """Independence counts i_1..i_q of a join of copies of function-graph
    complements, from (k, m, copies) triples: a join adds the counts of
    its parts above degree 0, and the complement of a function graph has
    its clique counts."""
    counts = [0] * q
    for k, m, copies in components:
        cliques = clique_counts(k, q, m)
        for t in range(1, q + 1):
            counts[t - 1] += copies * cliques[t]
    return counts


def tail(q: int) -> list:
    return list(range((q + 1) // 2, q + 1))


def check_realize(q: int, images, stdout: str):
    """Check a ``realize`` report against the target built from pi.

    Returns (error, report).  The target is C(q,t) below the tail and
    2^q + pi(t) on it; epsilon is a third of the smallest tail gap.
    """
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}", None
    pi = dict(zip(tail(q), images))
    target = [Fraction(comb(q, t)) for t in range(1, (q + 1) // 2)]
    target += [Fraction((1 << q) + pi[t]) for t in tail(q)]
    values = sorted(target[t - 1] for t in tail(q))
    gaps = [b - a for a, b in zip(values, values[1:])]
    eps = min(gaps) / 3 if gaps else Fraction(1, 3)
    order = sorted(tail(q), key=pi.get)
    plan = report["plan"]
    scale = int(plan["T"])
    predicted = [int(c) for c in plan["predicted"]]
    closed_form = plan_counts(q, [(c["k"], c["m"], int(c["copies"])) for c in plan["components"]])
    counts = [int(c) for c in report["counts"]]
    if [Fraction(a) for a in report["target"]] != target:
        return f"target {report['target']} is not the one pi prescribes", report
    if Fraction(report["epsilon"]) != eps or Fraction(plan["epsilon"]) != eps:
        return f"epsilon {report['epsilon']} != {eps}", report
    if report["ordering"] != order or report["ordering_verified"] is not True:
        return f"ordering {report['ordering']} != {order}", report
    if predicted != closed_form:
        return "predicted counts differ from the components' clique counts", report
    if counts != [predicted[t - 1] for t in order]:
        return "counts are not the predicted counts in ordering order", report
    if any(a >= b for a, b in zip(counts, counts[1:])):
        return f"counts {counts} do not strictly increase", report
    for t in range(1, q + 1):
        if abs(Fraction(predicted[t - 1], scale) - target[t - 1]) >= eps:
            return f"|predicted_{t}/T - a_{t}| >= epsilon", report
    return None, report


def _expect_json(expected) -> Callable[[str], Optional[str]]:
    def check(stdout: str) -> Optional[str]:
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return None if got == expected else f"got {stdout[:200]!r}, expected {expected}"

    return check


def _wellcovered(alpha: int) -> dict:
    return {"is_well_covered": True, "alpha": alpha, "witness": None}


def _expect_file(path, expected: bytes) -> Optional[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return None if data == expected else f"{path} differs from the expected graph6"


# -- workloads ---------------------------------------------------------------


class RealizeTail:
    """Symbolic ``realize`` on every tail permutation for q = 3..6 and on
    seeded random ones for q = 7..11.

    q = 12 and 13 are left out: there ``realize`` does the whole plan search
    and then exits 3, because ``str()`` of the plan's integers passes
    Python's 4300-digit limit, and no op of a workload may fail."""

    RANDOM = {7: 8, 8: 8, 9: 6, 10: 8, 11: 8}

    def __init__(self, lib, seed: int, workdir):
        rng = random.Random(f"realize-tail/{seed}")
        perms = [(q, images) for q in range(3, 7) for images in itertools.permutations(tail(q))]
        for q, count in self.RANDOM.items():
            for _ in range(count):
                images = tail(q)
                rng.shuffle(images)
                perms.append((q, tuple(images)))
        self.ops = [self._op(q, images) for q, images in perms]

    def batch(self) -> list:
        return self.ops

    @staticmethod
    def _op(q, images) -> Op:
        argv = ["realize", "-q", str(q), "--pi", ",".join(map(str, images))]
        return Op("realize", argv, lambda out: check_realize(q, images, out)[0])


class CertifyQ2:
    """``realize -q 2 --out`` for both tail permutations, then ``check`` of
    seeded relabelings of both certificates (n = 5148 and n = 1066)."""

    def __init__(self, lib, seed: int, workdir):
        rng = random.Random(f"certify-q2/{seed}")
        self.ops = []
        self.outputs = []
        checks = []
        for images in ((1, 2), (2, 1)):
            perm = lib["tailorder"].TailPermutation.from_image_list(2, images)
            report = lib["tailorder"].realize(perm)
            graph = report.graph
            counts = [1] + plan_counts(2, [(c.k, c.m, c.copies) for c in report.plan.components])
            non_edges = _lower_pairs(graph.rows, adjacent=False)
            name = "".join(map(str, images))
            expected = encode_graph6(graph.n, non_edges, dense=True)
            out = workdir / f"out-q2-{name}.g6"
            relabeled = workdir / f"in-q2-{name}.g6"
            relabeled.write_bytes(encode_graph6(graph.n, _relabel(non_edges, graph.n, rng), True))
            argv = ["realize", "-q", "2", "--pi", ",".join(map(str, images)), "--out", str(out)]
            self.ops.append(Op("realize", argv, self._realize_check(images, out, expected, counts)))
            self.outputs.append(out)
            checks += [
                Op("check", ["check", str(relabeled), "--mode", "indpoly"],
                   _expect_json([str(c) for c in counts])),
                Op("check", ["check", str(relabeled), "--mode", "wellcovered"],
                   _expect_json(_wellcovered(2))),
            ]
        self.ops += checks

    @staticmethod
    def _realize_check(images, out, expected: bytes, counts):
        def check(stdout: str) -> Optional[str]:
            error, report = check_realize(2, images, stdout)
            if error:
                return error
            if [1] + [int(c) for c in report["plan"]["predicted"]] != counts:
                return f"predicted counts are not {counts[1:]}"
            if report.get("graph6", "").encode("ascii") + b"\n" != expected:
                return "embedded graph6 is not the materialized certificate"
            return _expect_file(out, expected)

        return check

    def batch(self) -> list:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        return self.ops


class FunctionGrid:
    """``construct``, then ``check --mode property-p`` on a relabeled
    function graph and ``indpoly``/``wellcovered`` on a relabeled
    complement, over a fixed grid of (k, q, m)."""

    # Smaller than the (1,3,20), (1,4,8), (1,5,4), (2,4,5), (4,6,2) first
    # planned, whose pass took ~19 s: a pass here takes ~2 s, so a 30 s run
    # times each op about a dozen times.  (3,5,2) is the dense case
    # (k = q - 2, like (4,6,2)) for Bron-Kerbosch and cliques_of_size.
    GRID = ((1, 3, 14), (1, 4, 6), (1, 5, 3), (2, 4, 4), (3, 5, 2))

    def __init__(self, lib, seed: int, workdir):
        rng = random.Random(f"function-grid/{seed}")
        self.ops = []
        self.outputs = []
        for k, q, m in self.GRID:
            graph = lib["function_graph"].build_function_graph(k, q, m)
            if graph.n != q * m ** comb(q - 1, k):
                raise RuntimeError(f"function graph ({k},{q},{m}) has {graph.n} vertices")
            edges = _lower_pairs(graph.rows, adjacent=True)
            relabeled = _relabel(edges, graph.n, rng)
            tag = f"{k}-{q}-{m}"
            graph_in = workdir / f"in-f-{tag}.g6"
            complement_in = workdir / f"in-c-{tag}.g6"
            out = workdir / f"out-f-{tag}.g6"
            graph_in.write_bytes(encode_graph6(graph.n, relabeled, dense=False))
            complement_in.write_bytes(encode_graph6(graph.n, relabeled, dense=True))
            expected = encode_graph6(graph.n, edges, dense=False)
            params = ["-k", str(k), "-q", str(q), "-m", str(m)]
            self.outputs.append(out)
            self.ops += [
                Op("construct", ["construct", *params, "--out", str(out)],
                   lambda stdout, out=out, expected=expected: _expect_file(out, expected)),
                Op("check", ["check", str(graph_in), "--mode", "property-p", *params],
                   _expect_json({"holds": True, "k": k, "q": q, "m": m, "violations": []})),
                Op("check", ["check", str(complement_in), "--mode", "indpoly"],
                   _expect_json([str(c) for c in clique_counts(k, q, m)])),
                Op("check", ["check", str(complement_in), "--mode", "wellcovered"],
                   _expect_json(_wellcovered(q))),
            ]

    def batch(self) -> list:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        return self.ops


WORKLOADS = {
    "realize-tail": RealizeTail,
    "certify-q2": CertifyQ2,
    "function-grid": FunctionGrid,
}
