"""Command-line interface: construct / check / realize.

Exit codes: 0 success, 1 internal invariant failure, 2 budget refusal,
3 domain error (bad graph, unmet precondition), 4 usage error, 141
(128 + SIGPIPE) when stdout is closed before all output is written, with
nothing on stderr.  JSON goes to stdout (big integers as decimal strings),
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path

from .certificate import DEFAULT_M_CAP
from .enumeration import (
    binomial_ratio_check,
    check_clique_extension,
    independence_polynomial,
    is_well_covered,
)
from .errors import BudgetExceededError, size_str
from .function_graph import (
    DEFAULT_VERTEX_BUDGET,
    _validate_params,
    build_function_graph,
    function_vertices,
)
from .graph import CoComponents, Graph
from .graph6 import Graph6Error, from_graph6, to_graph6
from .tailorder import TailPermutation, realize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BUDGET = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4
EXIT_PIPE = 141


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


# Printable ASCII except '"' and '\\': a string of these bytes alone is
# its own JSON body.  From _PLAIN_FROM characters on, finding that out
# costs about as much as escaping the string or less: 0.39 against 0.39 us
# at 128 digits, 0.53 against 1.16 us at 384, and 1.9 against 5.8 ms on
# the 2,208,067 characters of the q = 2 certificate's graph6 line; at 64
# digits escaping wins, 0.20 against 0.35 us (best of 15 runs each on a
# shared two-core host, Python 3.11).  The 76 reports of perfbench's
# realize-tail workload (seed 1) hold 724 strings of 128 characters or
# more, with 93% of their characters.
_PLAIN = bytes(c for c in range(32, 127) if c not in b'"\\')
_PLAIN_FROM = 128


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, for the values the CLI prints:
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    type raises TypeError.  With an indent, ``json.dumps`` runs its
    pure-Python encoder; this writes the same text with the C string
    escaper, and a long string that needs no escaping is copied whole."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    # newline: a line break and the indent of the line value starts on
    if isinstance(value, str):
        _write_json_str(value, out)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            _write_json_str(key, out)
            out.append(": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json_str(s: str, out: list) -> None:
    if len(s) >= _PLAIN_FROM and s.isascii() and not s.encode("ascii").translate(None, _PLAIN):
        out += ('"', s, '"')
    else:
        out.append(encode_basestring_ascii(s))


def _emit(payload, fmt: str, out=None) -> None:
    text = _json_text(payload) if fmt == "json" else _render_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _render_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list, tuple)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in payload):
            return f"{pad}{', '.join(str(v) for v in payload)}"
        return "\n".join(_render_text(v, indent) for v in payload)
    return f"{pad}{payload}"


def _read_graph(path: str, split: bool) -> Graph | CoComponents:
    # the first line that is not blank, cut where bytes.splitlines would
    # cut it, without splitting the rest of the file
    data = Path(path).read_bytes().lstrip()
    if not data:
        raise Graph6Error(f"no graph6 line found in {path}")
    ends = [i for i in (data.find(b"\n"), data.find(b"\r")) if i >= 0]
    return from_graph6(data[: min(ends)] if ends else data, split=split)


def _check_params(args, k: int, q: int, m: int) -> None:
    """Refuse an out-of-range (k, q, m) as a usage error, before any I/O."""
    try:
        _validate_params(k, q, m)
    except ValueError as exc:
        args.parser.error(str(exc))


def _cmd_construct(args) -> int:
    _check_params(args, args.k, args.q, args.m)
    g = build_function_graph(args.k, args.q, args.m, vertex_budget=args.budget)
    if args.labels:  # refused or written first, so a failure leaves no graph out
        # each label holds C(q-1, k) values, which the vertex budget leaves
        # unbounded at m = 1
        width = comb(args.q - 1, args.k)
        if g.n * width > args.q * args.budget:
            raise BudgetExceededError(
                f"--labels needs {g.n} labels of {size_str(width)} values each, over "
                f"q * budget = {args.q * args.budget} values"
            )
        Path(args.labels).write_text(json.dumps(function_vertices(args.k, args.q, args.m)))
    line = to_graph6(g)
    if args.out:
        Path(args.out).write_bytes(line + b"\n")
    else:
        print(line.decode("ascii"))
    return EXIT_OK


def _cmd_check(args) -> int:
    params = (args.pk, args.pq, args.pm)
    if args.mode == "property-p":
        if None in params:
            args.parser.error("--mode property-p requires -k, -q and -m")
        _check_params(args, *params)
    elif params != (None, None, None):
        args.parser.error(f"-k, -q and -m are for --mode property-p, not {args.mode}")
    # every mode but property-p answers a join from its parts
    g = _read_graph(args.input, split=args.mode != "property-p")
    if args.mode == "indpoly":
        payload = independence_polynomial(g).to_json()
    elif args.mode == "wellcovered":
        payload = is_well_covered(g)._asdict()
    elif args.mode == "mt":
        payload = binomial_ratio_check(g)._asdict()
    else:  # property-p, its parameters checked above
        payload = check_clique_extension(g, args.pk, args.pq, args.pm).to_json()
    _emit(payload, args.format, args.out)
    return EXIT_OK


def _cmd_realize(args) -> int:
    if args.q < 1:
        args.parser.error("-q must be at least 1")
    try:
        perm = TailPermutation.parse(args.q, args.pi)
    except ValueError as exc:
        args.parser.error(f"invalid --pi: {exc}")
    report = realize(perm, vertex_budget=args.budget, m_cap=args.mcap)
    if args.out and not report.materialized:
        raise BudgetExceededError(
            f"--out needs the certificate materialized: plan needs "
            f"{size_str(report.plan.vertex_total())} vertices, over budget {args.budget}"
        )
    line = report.graph6() if args.out else None
    payload = report.to_json(line)
    if args.out:  # written first, so a failed write prints no report
        with open(args.out, "wb") as fh:
            fh.writelines((line, b"\n"))
    # dropped before the JSON text is built, whose copies then reuse its
    # memory; kept alive, it cost the n = 5,148 op 8.5 ms against 6.0
    del line
    _emit(payload, args.format)
    if not payload["ordering_verified"]:
        print("internal failure: ordering not verified on exact counts",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv=None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    if extras:  # report them with the subcommand's usage line, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.budget <= 0 or args.command == "realize" and args.mcap <= 0:
        args.parser.error("budgets must be positive")
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE
    if code == EXIT_PIPE:
        # Nobody reads stdout any more: send what is still buffered to
        # devnull, so the interpreter's flush at exit reports no error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
