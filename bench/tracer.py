"""In-memory span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark: it wraps lbkit's public
functions from the outside (module attributes, including the aliases
other lbkit modules imported) and never edits lbkit code.  Classes are
not replaced, so ``isinstance`` keeps working; the benchmark times a
class such as ``IntMatrix`` by wrapping its own direct calls.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span within the same operation, or -1.  Spans of one
operation are reduced to per-function and per-layer totals when the
operation ends; the raw spans of the first ``keep_ops`` operations stay
in memory and are written out at the end of the run.

A layer is the lbkit module a span's function belongs to (the part of
the span name before the first dot).  Self time is a span's duration
minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Prefix of the stderr line on which a traced CLI child reports its spans.
SPANS_MARKER = "@@bench-spans@@ "

LAYERS = ("homology", "kirby", "covers", "diagrams", "obstruction",
          "homotopy", "serialize", "cli", "render")


def _square_bucket(m, *args, **kwargs):
    if hasattr(m, "rows"):
        rows, cols = m.rows, m.cols
    else:
        rows = len(m)
        cols = len(m[0]) if rows else 0
    return "le3x3" if rows <= 3 and cols <= 3 else "gt3x3"


def distance_bucket(i, j, *args, **kwargs):
    """near: |i - j| <= 8, mid: 9 to 80, far: above 80."""
    d = abs(i - j)
    if d <= 8:
        return "near"
    return "mid" if d <= 80 else "far"


def _degree_bucket(link, m, *args, **kwargs):
    return f"m{m}"


def _format_bucket(obj, fmt, *args, **kwargs):
    return fmt


def _count_moves(tracer, trace):
    tracer.counters["homotopy.concat.moves_built"] += len(trace.moves)


# (module, function) -> (bucket function or None, result hook or None).
# Every public function a workload reaches, directly or through another
# lbkit module, is listed so that nested calls show up as child spans.
WRAPPED = {
    ("homology", "smith_normal_form"): (None, None),
    ("homology", "invariant_factors"): (_square_bucket, None),
    ("homology", "cokernel"): (None, None),
    ("homology", "h1"): (None, None),
    ("homology", "boundary_h1"): (None, None),
    ("kirby", "build_diagram"): (None, None),
    ("kirby", "handle_slide"): (None, None),
    ("kirby", "double"): (None, None),
    ("kirby", "ensure_attaching"): (None, None),
    ("covers", "double_cover_diagram"): (None, None),
    ("covers", "cyclic_cover_link"): (_degree_bucket, None),
    ("covers", "lift_wiring"): (None, None),
    ("diagrams", "half_twist_tangle"): (None, None),
    ("diagrams", "bicolored_linking"): (None, None),
    ("diagrams", "normalize_to_writhe"): (None, None),
    ("diagrams", "reverse_mirror"): (None, None),
    ("obstruction", "concordance_obstruction"): (distance_bucket, None),
    ("obstruction", "model_slice"): (None, None),
    ("obstruction", "slice_linking"): (None, None),
    ("obstruction", "side_symmetry_holds"): (None, None),
    ("obstruction", "cap_symmetry_holds"): (None, None),
    ("homotopy", "classify"): (distance_bucket, None),
    ("homotopy", "concat"): (None, _count_moves),
    ("homotopy", "twist_homotopy"): (None, None),
    ("homotopy", "crossed_class"): (None, None),
    ("homotopy", "lightbulb_check"): (None, None),
    ("serialize", "dumps"): (None, None),
    ("serialize", "load_diagram"): (None, None),
    ("serialize", "kirby_to_obj"): (None, None),
    ("cli", "main"): (None, None),
    ("render", "render"): (_format_bucket, None),
}


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval.

    ``spans`` is a sequence of (name, start, end, parent) tuples, parent
    being an index into the same sequence or -1.
    """
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[k]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Collects spans per operation and folds them into totals."""

    def __init__(self, keep_ops: int = 200):
        self.keep_ops = keep_ops
        self.kept = []            # (op, name, start, end, parent) tuples
        self.kept_op_count = 0
        self.op = None
        self.open = []            # [name, bucket, start, end, parent, failed]
        self.stack = []
        self.calls = {}           # (name, bucket) -> [calls, total_ns]
        self.layer = {lay: [0, 0, 0] for lay in LAYERS}  # calls, self_ns, errors
        self.counters = {"homotopy.concat.moves_built": 0}

    # -- operations -----------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.open = []
        self.stack = []

    def end_op(self) -> None:
        self.absorb(self.op, self.open)
        self.op = None
        self.open = []
        self.stack = []

    def absorb_child(self, op_id, report: dict) -> None:
        """Fold in the spans and counters a traced child process reported."""
        self.absorb(op_id, report["spans"])
        for key, value in report["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def child_report(self) -> dict:
        return {"spans": self.open, "counters": self.counters}

    def absorb(self, op_id, spans) -> None:
        """Fold one operation's spans into the totals.

        ``spans`` holds (name, bucket, start, end, parent, failed)
        sequences with parent indices local to the operation.
        """
        plain = [(s[0], s[2], s[3], s[4]) for s in spans]
        for span, own in zip(spans, self_times(plain)):
            name, bucket, start, end, parent, failed = span
            layer = name.split(".", 1)[0]
            for key in ((name, None), (name, bucket)) if bucket else ((name, None),):
                acc = self.calls.setdefault(key, [0, 0])
                acc[0] += 1
                acc[1] += end - start
            totals = self.layer.setdefault(layer, [0, 0, 0])
            totals[1] += own
            entered = parent < 0 or spans[parent][0].split(".", 1)[0] != layer
            if entered:
                totals[0] += 1
                totals[2] += bool(failed)
        if self.kept_op_count < self.keep_ops:
            self.kept_op_count += 1
            self.kept.extend((op_id, s[0], s[2], s[3], s[4]) for s in spans)

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, bucket=None) -> int:
        idx = len(self.open)
        parent = self.stack[-1] if self.stack else -1
        self.open.append([name, bucket, time.perf_counter_ns(), 0, parent, False])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool) -> None:
        span = self.open[idx]
        span[3] = time.perf_counter_ns()
        span[5] = failed
        self.stack.pop()

    def timed(self, name: str, fn):
        """A callable that runs ``fn`` inside a span, for direct calls
        the benchmark makes itself (class constructors, for instance)."""
        def call(*args, **kwargs):
            idx = self.begin(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self.end(idx, failed)
        return call

    # -- wrapping ---------------------------------------------------------

    def wrapper(self, name: str, fn, bucket=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, bucket(*args, **kwargs) if bucket else None)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.end(idx, failed)
            if on_result is not None:
                on_result(tracer, out)
            return out
        return call

    def install(self):
        """Replace every listed lbkit function, and every alias of it in
        any loaded lbkit module, by a tracing wrapper.  Returns the list
        of (module, attribute, original) needed to undo it."""
        lbkit_modules = [m for k, m in sorted(sys.modules.items())
                         if m is not None and (k == "lbkit" or k.startswith("lbkit."))]
        undo = []
        for (mod_name, fn_name), (bucket, hook) in WRAPPED.items():
            original = getattr(sys.modules[f"lbkit.{mod_name}"], fn_name)
            wrapped = self.wrapper(f"{mod_name}.{fn_name}", original, bucket, hook)
            for module in lbkit_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    # -- output -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer calls, self time and errors, per-function mean
        inclusive time (µs per call, optionally per bucket), counters."""
        out = {}
        for layer in LAYERS:
            calls, own, errors = self.layer[layer]
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_ms"] = (own / 1e6, "ms")
            out[f"{layer}.errors"] = (errors, "count")
        for (name, bucket), (calls, total) in self.calls.items():
            key = f"{name}.us_per_call" + (f".{bucket}" if bucket else "")
            out[key] = (total / calls / 1e3, "us")
            if name == "homotopy.concat" and bucket is None:
                out["homotopy.concat.calls"] = (calls, "count")
        for key, value in self.counters.items():
            out[key] = (value, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.kept:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
