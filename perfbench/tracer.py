"""In-memory spans and counts around sdocheck's public functions.

The tracer wraps functions from the benchmark's side: it replaces each
target in its defining module and in every ``sdocheck`` module that imported
it by name, so the program's own files stay untouched.  Each call records a
span (layer, start, end, parent, operation id).  Garbage-collector pauses,
read from ``gc.callbacks``, form a layer of their own; they are too many to
keep one span each, so each span instead sums the pauses that fell directly
inside it.  A layer's self time is its spans' durations minus the parts
their child spans and those pauses cover.

Bookkeeping the tracer does after a call (counting nodes, findings, bytes)
is recorded as a ``trace`` span, so it lands in no layer's self time.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter


def _graph_nodes(result):
    graph = result[0]
    return 0 if graph is None else sum(1 for _ in graph.iter_nodes())


# (module, function, layer, counter of calls, counter fed from the result)
TARGETS = (
    ("sdocheck.cli", "main", "cli.main", None, None),
    ("sdocheck.vocab", "load_default_vocabulary", "vocab.load", None, None),
    ("sdocheck.vocab", "load_vocabulary", "vocab.load", "vocab.loads", None),
    ("sdocheck.ds", "load_domain_specification", "ds.load", "ds.loads", None),
    ("sdocheck.ds", "verify_against_ds", "ds.verify", None, None),
    ("sdocheck.htmltree", "parse_html", "htmltree.parse", "htmltree.parses", None),
    ("sdocheck.annotation", "extract_annotation_blocks", "annotation.extract",
     None, None),
    ("sdocheck.annotation", "parse_annotation", "annotation.parse",
     "annotation.blocks", ("annotation.nodes", _graph_nodes)),
    ("sdocheck.sdo_verifier", "verify_schema_org", "sdo_verifier.verify", None,
     ("sdo_verifier.findings", len)),
    ("sdocheck.content", "extract_page_content", "content.page", None, None),
    ("sdocheck.content", "collect_consistencies", "content.score", None,
     ("content.values", len)),
    ("sdocheck.content", "consistency_entries", "content.score", None, None),
    ("sdocheck.content", "aggregate_scores", "content.score", None, None),
    ("sdocheck.report", "merge_reports", "report.merge", None, None),
    ("sdocheck.report", "serialize_report", "report.serialize", None,
     ("report.bytes", len)),
)

LAYERS = ("cli.main", "vocab.load", "ds.load", "ds.verify", "htmltree.parse",
          "annotation.extract", "annotation.parse", "sdo_verifier.verify",
          "content.page", "content.score", "report.merge", "report.serialize",
          "gc.pause")
COUNTS = ("vocab.loads", "ds.loads", "htmltree.parses", "annotation.blocks",
          "annotation.nodes", "annotation.path_renders",
          "sdo_verifier.findings", "content.values", "report.bytes",
          "gc.gen2_collections")


class Tracer:
    def __init__(self):
        # [layer, start, end, parent index, op, gc pause inside]
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0  # identifier shared by the spans of one operation
        self.counts: Counter = Counter()
        self.gc_pause = 0.0
        self._gc_start = 0.0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        # start the clock only after the append: a collection the append
        # sets off is then charged to the parent
        span = [layer, 0.0, 0.0, parent, self.op, 0.0]
        self.spans.append(span)
        index = len(self.spans) - 1
        self.stack.append(index)
        span[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        # a closed span becomes a tuple of atoms, which the collector stops
        # tracking, so that kept spans do not slow every later collection
        self.spans[index] = tuple(span)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if not self.stack:
            return  # between operations
        pause = time.perf_counter() - self._gc_start
        self.gc_pause += pause
        self.spans[self.stack[-1]][5] += pause
        if info["generation"] == 2:
            self.counts["gc.gen2_collections"] += 1

    # -- wrapping

    def _wrap(self, fn, layer, call_counter, result_counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if call_counter:
                tracer.counts[call_counter] += 1
            if result_counter:
                book = tracer._open("trace")
                tracer.counts[result_counter[0]] += result_counter[1](result)
                tracer._close(book)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "sdocheck" or name.startswith("sdocheck.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, func, layer, calls, from_result in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(f"{module_name}.{func}")
                continue
            self._replace(original, self._wrap(original, layer, calls,
                                               from_result))
        from sdocheck.annotation import AnnotationPath
        render = AnnotationPath.render
        counts = self.counts

        def counted_render(path):
            counts["annotation.path_renders"] += 1
            return render(path)

        self._undo.append((AnnotationPath, "render", render))
        AnnotationPath.render = counted_render
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results

    def self_times(self) -> dict[str, float]:
        child = [span[5] for span in self.spans]
        totals = dict.fromkeys(LAYERS + ("trace",), 0.0)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (layer, start, end, _, _, _), covered in zip(self.spans, child):
            totals[layer] += (end - start) - covered
        totals["gc.pause"] = self.gc_pause
        return totals

    def summary(self) -> dict:
        """Totals over everything traced so far: self times and counts."""
        return {"self_s": self.self_times(),
                "counts": {k: self.counts.get(k, 0) for k in COUNTS},
                "missing": self.missing}
