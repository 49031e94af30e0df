"""Spans around calls into each wellcovered module, installed from outside.

Each patch replaces a public function in the namespace of the module that
calls it (``cli.from_graph6``, ``tailorder.build_plan``, ...), so the
program itself is unchanged.  Spans (name, start, end, parent) are kept in
memory; self time is a span's duration minus the time of its child spans.
Generator functions get no span: the items they yield are counted and
their time stays with the caller that drives them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (caller module, attribute, span name).  ``polynomial`` and ``subsets``
# are only called from inside other layers, so their cost shows up in the
# self time of those callers.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "from_graph6", "graph6.from_graph6"),
    ("cli", "to_graph6", "graph6.to_graph6"),
    ("cli", "build_function_graph", "function_graph.build_function_graph"),
    ("cli", "independence_polynomial", "enumeration.independence_polynomial"),
    ("cli", "is_well_covered", "enumeration.is_well_covered"),
    ("cli", "check_clique_extension", "enumeration.check_clique_extension"),
    ("cli", "realize", "tailorder.realize"),
    ("tailorder", "to_graph6", "graph6.to_graph6"),
    ("tailorder", "build_plan", "certificate.build_plan"),
    ("tailorder", "materialize", "certificate.materialize"),
    ("certificate", "plan_at_m", "certificate.plan_at_m"),
    ("certificate", "build_function_graph", "function_graph.build_function_graph"),
    ("certificate", "complement", "graph.complement"),
    ("certificate", "join", "graph.join"),
    ("enumeration", "complement", "graph.complement"),
)

GENERATORS = (
    ("enumeration", "maximal_cliques", "enumeration.maximal_cliques"),
    ("enumeration", "maximal_independent_sets", "enumeration.maximal_independent_sets"),
    ("enumeration", "cliques_of_size", "enumeration.cliques_of_size"),
)

# Sizes recorded at a boundary: span name -> (counter name, size of args/result).
SIZES = {
    "graph6.from_graph6": ("bytes_in", lambda args, result: len(args[0])),
    "graph6.to_graph6": ("bytes_out", lambda args, result: len(result)),
    "function_graph.build_function_graph": ("vertices", lambda args, result: result.n),
    "certificate.materialize": ("vertices", lambda args, result: result.n),
}


class Tracer:
    """Records spans and counters while installed on a set of modules."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.counts[name + ".calls"] += 1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                self.counts[name + "." + size[0]] += size[1](args, result)
            return result

        return traced

    def _generator(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                self.counts[name + ".yielded"] += 1
                yield item

        return counted

    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        for module, attribute, name in SPANS:
            owner = self.modules[module]
            self._patch(owner, attribute, self._span(name, getattr(owner, attribute)))
        for module, attribute, name in GENERATORS:
            owner = self.modules[module]
            self._patch(owner, attribute, self._generator(name, getattr(owner, attribute)))
        report = self.modules["tailorder"].RealizationReport
        name = "tailorder.RealizationReport.to_json"
        self._patch(report, "to_json", self._span(name, report.to_json))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def dump(self, fh, batch):
        """Write the spans as JSON lines: batch, name, start, end, parent index."""
        for span in self.spans:
            fh.write(json.dumps([batch, *span]) + "\n")

    def self_times(self):
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out
