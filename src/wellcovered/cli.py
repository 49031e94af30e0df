"""Command-line interface: construct / check / realize.

Exit codes: 0 success, 1 internal invariant failure, 2 budget refusal,
3 domain error (bad graph, unmet precondition), 4 usage error.  JSON goes
to stdout (big integers as decimal strings), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .certificate import DEFAULT_M_CAP
from .enumeration import (
    binomial_ratio_check,
    check_clique_extension,
    independence_polynomial,
    is_well_covered,
)
from .errors import BudgetExceededError
from .function_graph import (
    DEFAULT_VERTEX_BUDGET,
    build_function_graph,
    function_vertices,
)
from .graph import Graph
from .graph6 import Graph6Error, from_graph6, to_graph6
from .tailorder import TailPermutation, realize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BUDGET = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 4, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, then shared: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="wellcovered", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, *, formats=True):
        p.add_argument("--budget", type=int, default=DEFAULT_VERTEX_BUDGET,
                       help="vertex budget (default %(default)s)")
        if formats:
            p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write primary output to this file")
        # usage errors found after parsing go to the subcommand's parser
        p.set_defaults(run=run, parser=p)

    c = sub.add_parser("construct", help="build a function graph, emit graph6")
    c.add_argument("-k", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.add_argument("-m", type=int, required=True)
    c.add_argument("--labels", help="write a JSON label sidecar to this file")
    common(c, _cmd_construct, formats=False)

    k = sub.add_parser("check", help="run a verifier on a graph6 input file")
    k.add_argument("input", help="graph6 file (first graph line is read)")
    k.add_argument("--mode", required=True,
                   choices=("wellcovered", "property-p", "mt", "indpoly"))
    k.add_argument("-k", type=int, dest="pk")
    k.add_argument("-q", type=int, dest="pq")
    k.add_argument("-m", type=int, dest="pm")
    common(k, _cmd_check)

    r = sub.add_parser("realize", help="realize a prescribed tail ordering")
    r.add_argument("-q", type=int, required=True)
    r.add_argument("--pi", required=True,
                   help="tail permutation: image list like 3,2 or JSON map")
    r.add_argument("--mcap", type=int, default=DEFAULT_M_CAP,
                   help="cap on the certificate retry parameter m")
    common(r, _cmd_realize)
    return parser


def _emit(payload, fmt: str, out=None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = _render_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _render_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, list):
        if all(not isinstance(v, (dict, list)) for v in payload):
            return f"{pad}{', '.join(str(v) for v in payload)}"
        return "\n".join(_render_text(v, indent) for v in payload)
    return f"{pad}{payload}"


def _read_graph(path: str) -> Graph:
    for line in Path(path).read_bytes().splitlines():
        if line.strip():
            return from_graph6(line)
    raise Graph6Error(f"no graph6 line found in {path}")


def _cmd_construct(args) -> int:
    g = build_function_graph(args.k, args.q, args.m, vertex_budget=args.budget)
    line = to_graph6(g)
    if args.out:
        Path(args.out).write_bytes(line + b"\n")
    else:
        print(line.decode("ascii"))
    if args.labels:
        labels = function_vertices(args.k, args.q, args.m)
        sidecar = [[lab.i, list(lab.values)] for lab in labels]
        Path(args.labels).write_text(json.dumps(sidecar))
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _read_graph(args.input)
    if args.mode == "indpoly":
        payload = independence_polynomial(g).to_json()
    elif args.mode == "wellcovered":
        payload = is_well_covered(g).to_json()
    elif args.mode == "mt":
        result = binomial_ratio_check(g)
        payload = {"holds": result.holds, "first_violation": result.first_violation}
    else:  # property-p
        if args.pk is None or args.pq is None or args.pm is None:
            args.parser.error("--mode property-p requires -k, -q and -m")
        payload = check_clique_extension(g, args.pk, args.pq, args.pm).to_json()
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _parse_pi(q: int, text: str) -> TailPermutation:
    text = text.strip()
    if text.startswith("{") or text.startswith("["):
        return TailPermutation.from_json(q, text)
    return TailPermutation.from_image_list(q, (part for part in text.split(",")))


def _cmd_realize(args) -> int:
    try:
        perm = _parse_pi(args.q, args.pi)
    except (ValueError, json.JSONDecodeError) as exc:
        args.parser.error(f"invalid --pi: {exc}")
    report = realize(perm, vertex_budget=args.budget, m_cap=args.mcap)
    if args.out and report.graph is None:
        raise BudgetExceededError(
            f"--out needs the certificate materialized: plan needs "
            f"{report.plan.vertex_total()} vertices, over budget {args.budget}"
        )
    payload = report.to_json()
    _emit(payload, args.format)
    if args.out:
        Path(args.out).write_bytes(payload["graph6"].encode("ascii") + b"\n")
    if not report.ordering_verified:
        print("internal failure: ordering not verified on exact counts",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.budget <= 0 or args.command == "realize" and args.mcap <= 0:
        args.parser.error("budgets must be positive")
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
