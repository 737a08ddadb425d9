"""Traced in-process run: spans around resmat's public functions.

The tracer wraps layer-level functions from outside the program.  Each
wrapped function is replaced in its defining module and in every resmat
module that bound the same object with `from ... import`, so calls through
either name are recorded.  Spans (label, start, end, parent) are held in
memory; a layer's self time is the sum of its spans minus the time their
child spans cover.  Per-point functions are not wrapped, because a span per
point would dwarf the work; their cost is timed by standalone calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


# (module, function, span label, counters); each counter is
# (metric name, f(args, result) -> int) accumulated per call.
TARGETS = [
    ("resmat.cli", "main", "cli.self", ()),
    ("resmat.cli", "cmd_sizes", "cli.self", ()),
    ("resmat.cli", "cmd_subdivision", "cli.self", ()),
    ("resmat.cli", "cmd_matrix", "cli.self", ()),
    ("resmat.cli", "cmd_verify", "cli.self", ()),
    ("resmat.cli", "load_system", "cli.load_system", ()),
    ("resmat.systems", "validate_zonotope", "systems.validate", ()),
    ("resmat.systems", "validate_multihomo", "systems.validate", ()),
    ("resmat.systems", "normalize_zonotope", "systems.validate", ()),
    (
        "resmat.greedy",
        "greedy_closure",
        "greedy.closure",
        (("greedy.closure_points", lambda a, r: len(r)),),
    ),
    (
        "resmat.greedy",
        "predicted_size_zonotope",
        "greedy.predicted_size",
        (("greedy.type_functions", lambda a, r: (a[0].n + 1) ** a[0].n),),
    ),
    ("resmat.greedy", "check_no_escape", "greedy.no_escape", ()),
    ("resmat.greedy", "cell_table", "greedy.cell_table", ()),
    ("resmat.multihomo", "greedy_closure_multi", "multihomo.closure", ()),
    ("resmat.multihomo", "predicted_size_multihomo", "multihomo.predicted_size", ()),
    ("resmat.multihomo", "check_no_escape_multi", "multihomo.no_escape", ()),
    ("resmat.multihomo", "cell_table_multi", "multihomo.cell_table", ()),
    (
        "resmat.matrix",
        "build_matrix",
        "matrix.build",
        (
            ("matrix.build_calls", lambda a, r: 1),
            ("matrix.nnz", lambda a, r: len(r.entries)),
        ),
    ),
    ("resmat.matrix", "principal_submatrix", "matrix.principal", ()),
    (
        "resmat.matrix",
        "export_matrix",
        "matrix.export",
        (("matrix.export_bytes", lambda a, r: len(r)),),
    ),
    (
        "resmat.oracles",
        "ff_det",
        "oracles.ff_det",
        (
            ("oracles.ff_det_calls", lambda a, r: 1),
            ("oracles.ff_det_ops", lambda a, r: len(a[0]) ** 3 // 3),
        ),
    ),
    ("resmat.oracles", "specialize", "oracles.specialize", ()),
    ("resmat.oracles", "mixed_volume", "oracles.mixed_volume", ()),
    ("resmat.oracles", "verify_quotient", "oracles.verify_quotient", ()),
]

SPAN_LABELS = sorted({label for _, _, label, _ in TARGETS})
COUNTERS = sorted({name for *_, counters in TARGETS for name, _ in counters})


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, label, fn, counters=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [label, perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            for name, count in counters:
                self.counts[name] += count(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per label, the summed span time not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (label, start, end, _), inner in zip(self.spans, covered):
            out[label] = out.get(label, 0.0) + (end - start) - inner
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": label, "start": start, "end": end, "parent": parent}
            for label, start, end, parent in self.spans
        ]


@contextmanager
def patched(tracer: Tracer):
    """Install wrappers for every target; restore the originals on exit."""
    saved = []
    try:
        for module, name, label, counters in TARGETS:
            fn = getattr(importlib.import_module(module), name)
            wrapper = tracer.wrap(label, fn, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "resmat" and vars(mod).get(name) is fn:
                    saved.append((mod, name, fn))
                    setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)
