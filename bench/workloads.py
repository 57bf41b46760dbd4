"""The four benchmark workloads.

Each workload produces its inputs in rounds from a seeded
``random.Random``.  A round has a fixed composition (how many
operations of each kind and size), and only the values inside it come
from the seed, so two seeds give different inputs with the same mix.
The benchmark times ``run`` per operation and calls ``check`` (an
independent oracle from ``oracles``) outside the timed region.

Load is closed-loop: one caller, one operation at a time, each waiting
for its result; ``cli_session`` runs one CLI child process at a time.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import oracles
from tracer import SPANS_MARKER


class InProcess:
    """A workload that calls lbkit in this process."""

    min_ops = 1000
    warmup_ops = None  # the whole first round

    def __init__(self, lb, root):
        self.lb = lb
        self.root = root
        self.new_matrix = lb.homology.IntMatrix
        self.undo = None

    def trace_on(self, tracer) -> None:
        self.new_matrix = tracer.timed("homology.IntMatrix", self.lb.homology.IntMatrix)
        self.undo = tracer.install()

    def trace_off(self, tracer) -> None:
        tracer.uninstall(self.undo)
        self.new_matrix = self.lb.homology.IntMatrix

    def run_traced(self, op, tracer, op_id):
        tracer.begin_op(op_id)
        try:
            return self.run(op)
        finally:
            tracer.end_op()

    def steps(self, op) -> int:
        return 0

    def mishandled(self, op, result) -> bool:
        return False


# --------------------------------------------------------------------------
# snf_sweep


SMALL_VALUES = range(-3, 4)
# (rows, cols, count per round of 200): shapes in about the shares the
# criterion-09 sweep has them, so 3x3 is three quarters of the stream.
SMALL_SHAPES = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 3, 2), (3, 1, 2), (2, 2, 2),
                (2, 3, 18), (3, 2, 18), (3, 3, 143))
# (size, count per round) of the cover-sized square minority.  Twelve in
# 200 keeps p90 inside the small matrices and p99 inside the 8x8 group
# rather than on a boundary between groups.
LARGE_SIZES = ((4, 2), (5, 2), (6, 2), (7, 2), (8, 4))
LARGE_BOUND = 50


class SnfSweep(InProcess):
    """A stream of nearly all distinct integer matrices.

    188 of every 200 are criterion-09 shaped and go through
    ``IntMatrix`` and ``invariant_factors`` or ``cokernel`` (alternating);
    12 are 4x4 to 8x8 with entries up to 50 in size and go through
    ``smith_normal_form`` with transforms and ``invariant_factors``.
    """

    name = "snf_sweep"

    def round(self, rng, index):
        ops = []
        for r, c, count in SMALL_SHAPES:
            for k in range(count):
                rows = tuple(tuple(rng.choices(SMALL_VALUES, k=c)) for _ in range(r))
                ops.append(("small", rows, "factors" if k % 2 == 0 else "cokernel"))
        for n, count in LARGE_SIZES:
            for _ in range(count):
                rows = tuple(tuple(rng.randint(-LARGE_BOUND, LARGE_BOUND) for _ in range(n))
                             for _ in range(n))
                ops.append(("large", rows))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        hom = self.lb.homology
        rows = op[1]
        m = self.new_matrix(len(rows), len(rows[0]), rows)
        if op[0] == "small":
            return hom.invariant_factors(m) if op[2] == "factors" else hom.cokernel(m)
        d, u, v = hom.smith_normal_form(m)
        return d, u, v, hom.invariant_factors(m)

    def check(self, op, result):
        if op[0] == "small":
            return oracles.check_small(op[1], op[2], result)
        return oracles.check_large(op[1], result)

    def key(self, op):
        return op


# --------------------------------------------------------------------------
# family_pipeline


FAMILY_BOUND = 40
PIPELINES_PER_ROUND = 8
COVER_DEGREES = (2, 8, 32, 128)


class FamilyPipeline(InProcess):
    """Whole (p, q) pipelines plus cyclic covers of annular links.

    A pipeline builds the family diagram, takes h1 and boundary h1,
    the double cover and its boundary h1, slides ``lower`` over ``dual``
    with both signs, round-trips the diagram through JSON, then doubles
    it and takes h1 again.  Each round also covers four seeded
    normalized annular links, one at each degree in COVER_DEGREES.
    """

    name = "family_pipeline"

    def _link(self, rng):
        """Half the links are family attaching links, half random braid
        closures on 2-5 strands with an optional split unknot."""
        dg = self.lb.diagrams
        if rng.random() < 0.5:
            p, q = rng.randint(-FAMILY_BOUND, FAMILY_BOUND), rng.randint(-FAMILY_BOUND, FAMILY_BOUND)
            return ("family", p, q), self.lb.kirby.build_diagram(p, q).attaching
        strands = rng.randint(2, 5)
        letters = tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 6)))
        word = dg.BraidWord(strands, letters)
        ncomp = len(word.cycles())
        framings = [rng.randint(-5, 5) for _ in range(ncomp)]
        closure = dg.braid_closure(word, framings=framings)
        split = ()
        if rng.random() < 0.5:
            split = (dg.AnnularComponent("u", frozenset(), None, rng.randint(-5, 5)),)
        link = dg.normalize_to_writhe(dg.AnnularLink(word, closure.components, split))
        spec = ("braid", strands, letters, tuple(framings),
                tuple(c.framing for c in split))
        return spec, link

    def round(self, rng, index):
        ops = [("pipe", rng.randint(-FAMILY_BOUND, FAMILY_BOUND),
                rng.randint(-FAMILY_BOUND, FAMILY_BOUND))
               for _ in range(PIPELINES_PER_ROUND)]
        for m in COVER_DEGREES:
            spec, link = self._link(rng)
            ops.append(("cover", spec, m, link))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        lb = self.lb
        if op[0] == "cover":
            return lb.covers.cyclic_cover_link(op[3], op[2])
        kirby, hom, ser = lb.kirby, lb.homology, lb.serialize
        d = kirby.build_diagram(op[1], op[2])
        g1 = hom.h1(d)
        b1 = hom.boundary_h1(d)
        cov = lb.covers.double_cover_diagram(d)
        cb = hom.boundary_h1(cov.total)
        slides = (kirby.handle_slide(d, "lower", "dual", 1),
                  kirby.handle_slide(d, "lower", "dual", -1))
        text = ser.dumps(ser.kirby_to_obj(d))
        back = ser.load_diagram(text)
        doubled = kirby.double(back)
        return d, g1, b1, cov, cb, slides, text, back, doubled, hom.h1(doubled)

    def check(self, op, result):
        if op[0] == "cover":
            return oracles.check_link_cover(op[3], op[2], result)
        return oracles.check_pipeline(op[1], op[2], result)

    def key(self, op):
        return op[:3]


# --------------------------------------------------------------------------
# classify_sweep


PAIRS_PER_ROUND = 24
MAX_DISTANCE = 800
TWIST_BOUND = 400
# Per round: 18 pairs through classify (half closed=True) and 6 through
# the CLI's main in this process, two per verb.
CLI_VERBS = ("classify", "obstruct", "homotopy-class") * 2


class ClassifySweep(InProcess):
    """Sphere pairs (i, j) with |i - j| log-uniform over [0, 800].

    Distances are stratified: each round draws one distance from each
    of PAIRS_PER_ROUND equal slices of log(1 + |i - j|), so every round
    has the same spread of near, mid and far pairs, half of them even
    (homotopic) and half odd.
    """

    name = "classify_sweep"

    def round(self, rng, index):
        n = PAIRS_PER_ROUND
        dists = []
        for k in range(n):
            d = min(MAX_DISTANCE, int((MAX_DISTANCE + 1) ** ((k + rng.random()) / n)) - 1)
            # Parity alternates by slice: only even pairs build the
            # connecting homotopy, so which slices are even must not
            # depend on the seed.
            if d % 2 != k % 2:
                d += 1 if d < MAX_DISTANCE else -1
            dists.append(d)
        rng.shuffle(dists)
        ops = []
        for k, d in enumerate(dists):
            lo = rng.randint(-TWIST_BOUND, TWIST_BOUND - d)
            i, j = (lo, lo + d) if rng.random() < 0.5 else (lo + d, lo)
            cli_k = k - (n - len(CLI_VERBS))
            if cli_k < 0:
                ops.append(("classify", i, j, k % 2 == 0))
            else:
                verb = CLI_VERBS[cli_k]
                ops.append(("cli", verb, i, j, verb != "homotopy-class" and cli_k % 2 == 0))
        return ops

    def run(self, op):
        if op[0] == "classify":
            return self.lb.homotopy.classify(op[1], op[2], op[3])
        _, verb, i, j, closed = op
        argv = [verb, f"--i={i}", f"--j={j}"] + (["--closed"] if closed else [])
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.lb.cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, result):
        if op[0] == "classify":
            return oracles.check_relation(op[1], op[2], result)
        code, out = result
        return oracles.check_cli(op[1:], code, out)

    def key(self, op):
        return op

    def steps(self, op):
        """Twist steps of the connecting homotopy an operation builds."""
        if op[0] == "classify":
            verb, i, j = "classify", op[1], op[2]
        else:
            verb, i, j = op[1], op[2], op[3]
        d = abs(i - j)
        if verb == "obstruct" or d % 2:
            return 0
        return d // 2


# --------------------------------------------------------------------------
# cli_session


PROBES = ("float_framing", "bool_framing", "string_h3", "int_linking", "deep_nesting")
NESTING_DEPTH = 100_000


def probe_text(kind: str, rng) -> str:
    """A malformed diagram from the robustness probe list.  The documented
    outcome for each is exit 1 with an ``{"error": ...}`` object."""
    if kind == "deep_nesting":
        return "[" * NESTING_DEPTH + "]" * NESTING_DEPTH
    p, q = rng.randint(-FAMILY_BOUND, FAMILY_BOUND), rng.randint(-FAMILY_BOUND, FAMILY_BOUND)
    obj = oracles.family_obj(p, q)
    if kind == "float_framing":
        # Non-negative, so that truncation gives back the diagonal entry
        # and only the type of the value is wrong.
        obj = oracles.family_obj(abs(p), q)
        obj["two_handles"][0]["framing"] = abs(p) + 0.5
    elif kind == "bool_framing":
        obj = oracles.family_obj(1, q)
        obj["two_handles"][0]["framing"] = True
    elif kind == "string_h3":
        obj["h3"] = "0"
    else:
        obj["linking"] = p
    return json.dumps(obj)


class CliSession:
    """Seeded ``python -m lbkit`` invocations, one child at a time.

    Each round runs every verb once in a fixed order (``build`` is piped
    into ``cover``), plus one malformed-diagram probe; the probe kind
    rotates with the round.  Probes the program mishandles are counted
    as ``cli.malformed_mishandled``, not as failed operations.
    """

    name = "cli_session"
    min_ops = 100
    warmup_ops = 2

    def __init__(self, lb, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.last_build = ""
        self.tracer = None
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def round(self, rng, index):
        def fam():
            return rng.randint(-FAMILY_BOUND, FAMILY_BOUND)

        def even_pair():
            i = fam()
            return i, i + 2 * rng.randint(-FAMILY_BOUND // 2, FAMILY_BOUND // 2)

        p, q = fam(), fam()
        ops = [("build", p, q), ("cover-build", p, q)]
        for verb in ("cover-link", "homology", "boundary", "double", "render-text",
                     "render-svg"):
            ops.append((verb, fam(), fam()))
        ops.append(("slide", fam(), fam(), rng.choice((1, -1))))
        ops.append(("classify", fam(), fam(), rng.random() < 0.5))
        ops.append(("obstruct", *even_pair(), rng.random() < 0.5))
        ops.append(("homotopy-class", *even_pair()))
        ops.append(("table", rng.randint(-FAMILY_BOUND, FAMILY_BOUND - 2), rng.random() < 0.5))
        kind = PROBES[index % len(PROBES)]
        ops.append(("probe", kind, probe_text(kind, rng)))
        return ops

    @staticmethod
    def command(op):
        """(argv, stdin text) of one operation."""
        verb = op[0]
        if verb == "probe":
            return ["homology", "-"], op[2]
        if verb in ("classify", "obstruct"):
            return [verb, f"--i={op[1]}", f"--j={op[2]}"] + (["--closed"] if op[3] else []), None
        if verb == "homotopy-class":
            return [verb, f"--i={op[1]}", f"--j={op[2]}"], None
        if verb == "table":
            return ["table", f"--range={op[1]}:{op[1] + 2}"] + (["--closed"] if op[2] else []), None
        p, q = op[1], op[2]
        inline = [f"--p={p}", f"--q={q}"]
        diagram = json.dumps(oracles.family_obj(p, q))
        if verb == "cover-build":
            return ["cover", "-"], None
        if verb == "cover-link":
            return ["cover", "-", "--degree=3"], json.dumps(oracles.family_annular_obj(p, q))
        if verb == "slide":
            return ["slide", "-", "--a=lower", "--b=dual", f"--eps={op[3]}"], diagram
        if verb in ("boundary", "render-text"):
            extra = ["--format=text"] if verb == "render-text" else []
            return [verb.split("-")[0], "-"] + extra, diagram
        if verb == "render-svg":
            return ["render", "--format=svg"] + inline, None
        return [verb] + inline, None

    def _spawn(self, argv, stdin):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lbkit"] + argv
        else:
            cmd = [sys.executable, self.child] + argv
        proc = subprocess.run(cmd, input=stdin or "", capture_output=True, text=True,
                              cwd=self.root, env=self.env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, op):
        argv, stdin = self.command(op)
        if op[0] == "cover-build":
            stdin = self.last_build
        code, out, err = self._spawn(argv, stdin)
        if op[0] == "build":
            self.last_build = out
        return code, out, err

    def trace_on(self, tracer) -> None:
        self.tracer = tracer

    def trace_off(self, tracer) -> None:
        self.tracer = None

    def run_traced(self, op, tracer, op_id):
        code, out, err = self.run(op)
        head, sep, tail = err.rpartition(SPANS_MARKER)
        if sep:
            line, _, rest = tail.partition("\n")
            tracer.absorb_child(op_id, json.loads(line))
            err = head.rstrip("\n") + rest
        return code, out, err

    def check(self, op, result):
        if op[0] == "probe":
            return None
        code, out, _ = result
        return oracles.check_cli(op, code, out)

    def mishandled(self, op, result) -> bool:
        return op[0] == "probe" and not oracles.probe_handled(*result)

    def key(self, op):
        return op

    def steps(self, op):
        if op[0] == "table":
            return 2  # the two pairs at distance 2 in a 3 x 3 range
        if op[0] in ("classify", "homotopy-class") and (op[1] - op[2]) % 2 == 0:
            return abs(op[1] - op[2]) // 2
        return 0


WORKLOADS = {w.name: w for w in (SnfSweep, FamilyPipeline, ClassifySweep, CliSession)}
