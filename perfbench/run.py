"""Benchmark of the wellcovered CLI: time to answer on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload realize-tail --seed 1 --seconds 30 --trace 0

Ops call ``wellcovered.cli.main(argv)`` in this process, one after another
(a closed loop with one client), with stdout and stderr captured; no thread
or process is started.  A batch is one pass over the workload's ops;
batches repeat until ``--seconds`` have passed.  Every output is checked
(see workloads.py).  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of traced batches (see spans.py).  The lines
before it print every metric with its unit and sample count.  Exit codes: 0 success,
1 a wrong answer, an op with a nonzero exit code or changed interpreter
state, 2 the program is missing.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
MODULES = ("cli", "tailorder", "certificate", "enumeration", "function_graph", "graph", "graph6")
SETUP_REPEATS = 21

sys.path[:0] = [str(SRC), str(HERE)]
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WrongAnswer(Exception):
    """A wrong or missing answer: a failed check, an op that exited nonzero,
    or an op that changed the interpreter's limits."""


def loaded_program():
    """The program's modules in ``sys.modules``, by full name."""
    return {n: m for n, m in sys.modules.items()
            if n == "wellcovered" or n.startswith("wellcovered.")}


def import_program():
    """Import the package from this checkout's ``src``, dropping any copy a
    previous set-up imported, and return its modules by short name."""
    for name in loaded_program():
        del sys.modules[name]
    lib = {name: importlib.import_module("wellcovered." + name) for name in MODULES}
    if not Path(lib["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wellcovered imported from {lib['cli'].__file__}, not {SRC}")
    return lib


def set_up(name, seed):
    """Import the program afresh and write the workload's input files.
    Returns (modules, workload, seconds taken)."""
    t0 = time.perf_counter()
    lib = import_program()
    workload = WORKLOADS[name](lib, seed, WORKDIR)
    return lib, workload, time.perf_counter() - t0


def time_set_up(name, seed):
    """Seconds one more set-up takes.  The modules the batches use are put
    back afterwards, so the copy imported here is never run."""
    used = loaded_program()
    gc.collect()  # each set-up starts from the same heap, not the batches' garbage
    took = set_up(name, seed)[2]
    for module in loaded_program():
        del sys.modules[module]
    sys.modules.update(used)
    return took


def run_op(lib, argv):
    """One CLI call; returns (exit code, seconds, stdout, stderr)."""
    limits = (sys.getrecursionlimit(), sys.get_int_max_str_digits())
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib["cli"].main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # an uncaught error ends the real CLI with exit 1
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - t0
    after = (sys.getrecursionlimit(), sys.get_int_max_str_digits())
    if after != limits:
        raise WrongAnswer(f"{argv} changed (recursion limit, int digits) {limits} -> {after}")
    return code, elapsed, out.getvalue(), err.getvalue()


def run_batch(lib, workload):
    """Run one batch, then check it.  Returns (wall seconds, op records of
    (op, seconds, stdout length)); outputs are dropped once checked, so they
    do not add to the peak memory of later batches.  Every op of every
    workload is expected to succeed, so a nonzero exit code fails the run."""
    ops = workload.batch()
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        outputs.append((op, *run_op(lib, op.argv)))
    wall = time.perf_counter() - t0
    records = []
    for op, code, elapsed, stdout, stderr in outputs:
        records.append((op, elapsed, len(stdout)))
        if code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            raise WrongAnswer(f"{' '.join(op.argv)}: exit {code}: {last[0][:200]}")
        try:
            error = op.check(stdout)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            error = f"malformed output: {exc!r}"
        if error:
            raise WrongAnswer(f"{' '.join(op.argv)}: {error}")
    return wall, records


def quantile(values, share):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def measure(name, seed, seconds, lib, workload, first_setup):
    """Untraced batches for ``seconds``; returns (metric table, ops run).

    Every batch runs the same ops.  ``batch_s`` sums each op's fastest
    time over the run's batches, and the per-command times are its parts.
    Interference from other work on a shared host only adds time, often
    1.3-1.5x for seconds to minutes at a time; a median then reports how
    much of a run the host was slowed, while each op's fastest time tracks
    the program's own cost.  The median batch wall time is printed beside
    it as ``batch_median_s``.

    Set-up is timed before the first batch, again after every batch, and
    then until there are SETUP_REPEATS times, each time importing the
    program afresh.  ``setup_s`` is the fastest of these, for the same
    reason: one set-up takes tens of milliseconds, and on such a host it
    varies by a third from one to the next.
    """
    setups, walls, runs = [first_setup], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall, batch = run_batch(lib, workload)
        walls.append(wall)
        runs.append(batch)
        setups.append(time_set_up(name, seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        setups.append(time_set_up(name, seed))
    ops = [op for op, _, _ in runs[0]]
    fastest = [min(column) for column in zip(*([e for _, e, _ in b] for b in runs))]
    table = {
        "setup_s": (min(setups), "s", len(setups)),
        "batch_s": (sum(fastest), "s", len(walls)),
        "batch_median_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    for command in ("realize", "check", "construct"):
        total = sum(t for op, t in zip(ops, fastest) if op.command == command)
        if total:
            table[command + "_s"] = (total, "s", len(walls))
    records = [record for batch in runs for record in batch]
    if name == "realize-tail":
        ms = [1000 * e for _, e, _ in records]
        table["realize_p50_ms"] = (statistics.median(ms), "ms", len(ms))
        table["realize_p90_ms"] = (quantile(ms, 0.9), "ms", len(ms))
    return table, len(records)


def measure_traced(lib, workload, seconds):
    """Pairs of an untraced and a traced batch for ``seconds``; returns
    (metric table, ops run).

    Counts are per batch and must repeat exactly; self time is reported as
    a share of the traced batch's wall time.
    """
    plain, traced, tables, records, tracers = [], [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(run_batch(lib, workload)[0])
        tracer = Tracer(lib)
        tracer.install()
        try:
            wall, batch = run_batch(lib, workload)
        finally:
            tracer.uninstall()
        traced.append(wall)
        records += batch
        tables.append(layer_table(tracer, wall, batch))
        tracers.append(tracer)
    with open(WORKDIR / "spans.jsonl", "w") as fh:
        for i, tracer in enumerate(tracers):
            tracer.dump(fh, i)
    first = tables[0]
    for other in tables[1:]:
        for key, (value, unit, _) in first.items():
            if unit == "count" and other[key][0] != value:
                raise WrongAnswer(f"count {key} changed between traced batches")
    table = {}
    for key, (value, unit, _) in first.items():
        if unit == "%":
            value = statistics.median(t[key][0] for t in tables)
        table[key] = (value, unit, len(tables))
    table["trace.batch_s"] = (statistics.median(traced), "s", len(traced))
    table["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio", len(traced))
    return table, len(records)


LAYER_COUNTS = (
    "graph6.from_graph6.calls", "graph6.from_graph6.bytes_in",
    "graph6.to_graph6.calls", "graph6.to_graph6.bytes_out",
    "graph.complement.calls", "graph.join.calls",
    "function_graph.build_function_graph.calls", "function_graph.build_function_graph.vertices",
    "enumeration.independence_polynomial.calls", "enumeration.is_well_covered.calls",
    "enumeration.maximal_independent_sets.yielded", "enumeration.check_clique_extension.calls",
    "enumeration.maximal_cliques.yielded", "enumeration.cliques_of_size.yielded",
    "certificate.build_plan.calls", "certificate.plan_at_m.calls",
    "certificate.materialize.calls", "certificate.materialize.vertices",
    "tailorder.realize.calls", "cli.main.calls",
)
LAYER_TIMES = (
    "graph6.from_graph6", "graph6.to_graph6", "graph.complement", "graph.join",
    "function_graph.build_function_graph", "enumeration.independence_polynomial",
    "enumeration.is_well_covered", "enumeration.check_clique_extension",
    "certificate.build_plan", "certificate.plan_at_m", "certificate.materialize",
    "tailorder.realize", "tailorder.RealizationReport.to_json", "cli.main",
)
END_TO_END = ("setup_s", "batch_s", "peak_rss_mb")
PER_LAYER = (
    *LAYER_COUNTS,
    "certificate.plan_at_m.per_plan", "cli.stdout_bytes",
    *(name + ".self_pct" for name in LAYER_TIMES),
    "trace.batch_s", "trace.overhead_ratio",
)


def layer_table(tracer, wall, batch):
    table = {key: (tracer.counts.get(key, 0), "count", 1) for key in LAYER_COUNTS}
    plans = tracer.counts.get("certificate.build_plan.calls", 0)
    per_plan = tracer.counts.get("certificate.plan_at_m.calls", 0) / plans if plans else 0
    table["certificate.plan_at_m.per_plan"] = (per_plan, "count", 1)
    table["cli.stdout_bytes"] = (sum(size for _, _, size in batch), "count", 1)
    self_times = tracer.self_times()
    for name in LAYER_TIMES:
        table[name + ".self_pct"] = (100 * self_times.get(name, 0.0) / wall, "%", 1)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)
    try:
        lib, workload, first_setup = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            table, attempted = measure_traced(lib, workload, args.seconds)
        else:
            table, attempted = measure(
                args.workload, args.seed, args.seconds, lib, workload, first_setup)
        correct = True
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        table, attempted, correct = {}, 1, False
    reported = PER_LAYER if args.trace else END_TO_END
    for key, (value, unit, samples) in table.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {key} = {shown} {unit} (n={samples})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else 1,
        "metrics": {
            key: {"value": table[key][0], "unit": table[key][1]}
            for key in reported if key in table
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
