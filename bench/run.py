"""lbkit benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout (the directory holding ``src``
and ``BENCHMARK.json``):

    python3 bench/run.py --workload snf_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` is the separate traced run and reports the per-layer
metrics.  lbkit is imported from ``src`` of the current directory and
receives only inputs generated from ``--seed``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it repeat every metric with
its unit and sample count.  Each run also writes a result file with the
machine facts under ``.benchout/results`` (compare result sets with
``bench/compare.py``), and a traced run writes its first spans under
``.benchout/spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LBKIT_MODULES = ("homology", "kirby", "covers", "diagrams", "obstruction",
                 "homotopy", "serialize", "cli", "render")
SETUP_REPEATS = 5
WINDOW_S = 0.5             # shortest window of the timed phase
WINDOW_OPS = 10            # fewest operations in a window (a cli_session round has 14)
HARD_CAP_S = 150           # a run stops measuring here whatever its counts
PROBE_REPEATS = 5          # fresh interpreters per cli.interpreter_ms / cli.import_ms


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


# --------------------------------------------------------------------------
# set-up


def import_lbkit(src: str):
    """Import lbkit afresh from ``src``, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "lbkit" or k.startswith("lbkit.")]:
        del sys.modules[key]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    lb = SimpleNamespace(**{m: importlib.import_module(f"lbkit.{m}") for m in LBKIT_MODULES})
    if not os.path.abspath(lb.homology.__file__).startswith(src + os.sep):
        raise BenchError(f"lbkit was imported from {lb.homology.__file__}, not from {src}")
    return lb


def set_up(name: str, seed: int, root: str):
    """Import lbkit, generate the first inputs and warm up; returns the
    workload, its generator positioned after the warm-up round, and the
    seconds this took."""
    start = time.perf_counter()
    lb = import_lbkit(os.path.join(root, "src"))
    workload = WORKLOADS[name](lb, root)
    rng = random.Random(seed)
    warm = workload.round(rng, 0)[:workload.warmup_ops]
    for op in warm:
        workload.run(op)
    return workload, rng, time.perf_counter() - start


# --------------------------------------------------------------------------
# measurement


def _quantile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Windows:
    """Latency and rate summaries of consecutive windows of whole rounds.

    The timed phase is cut into windows of at least WINDOW_S seconds and
    WINDOW_OPS operations (a short tail joins the last window).  Only one
    or two windows of raw latencies are held at a time, so memory does
    not grow with the number of operations a run completes.

    On a shared cloud VM (2 vCPUs, Intel Xeon) the speed switches
    between a fast and a roughly 1.6x slower level every few seconds,
    as other tenants load the same physical core, in proportions that
    change from minute to minute.  A pooled median follows those
    proportions.  Across ten-run sets there, the slowest tenth of windows
    varied least (about half the interquartile spread of the pooled
    median), so a run reports the 90th percentile over windows of the
    window latencies and the 10th percentile of the window rates.
    """

    def __init__(self):
        self.summaries = []       # (p50 s, p90 s, ops per s) per window
        self.done = None          # (latencies, seconds) of the last full window
        self.lats, self.seconds = [], 0.0
        self.count = 0

    def add(self, lats, seconds: float) -> None:
        self.lats.extend(lats)
        self.seconds += seconds
        self.count += len(lats)
        if len(self.lats) >= WINDOW_OPS and self.seconds >= WINDOW_S:
            if self.done is not None:
                self._summarize(*self.done)
            self.done = (self.lats, self.seconds)
            self.lats, self.seconds = [], 0.0

    def finish(self) -> None:
        if self.done is None:
            self.done = (self.lats, self.seconds)
        elif self.lats:
            self.done = (self.done[0] + self.lats, self.done[1] + self.seconds)
        self._summarize(*self.done)
        self.done, self.lats = None, []

    def _summarize(self, lats, seconds) -> None:
        self.summaries.append((_quantile(lats, 50), _quantile(lats, 90), len(lats) / seconds))

    def latency(self, which: int) -> float:
        """90th percentile over windows of each window's p50 (0) or p90 (1)."""
        return _quantile([w[which] for w in self.summaries], 90)

    def rate(self) -> float:
        """10th percentile over windows of operations per second."""
        return _quantile([w[2] for w in self.summaries], 10)


class Tally:
    """Counts and failure reasons over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.mishandled = 0
        self.steps = 0

    def record(self, workload, op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
            if self.failed == 0:
                sys.stderr.write("".join(traceback.format_exception(error)))
        else:
            reason = workload.check(op, result)
            self.mishandled += workload.mishandled(op, result)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op[0]}: {reason}"[:300])


def _run_pass(workload, ops, tracer=None, first_id=0):
    """Run a round of operations; returns (results, errors, latencies)."""
    results, errors, lats = [], [], []
    clock = time.perf_counter
    for k, op in enumerate(ops):
        error = result = None
        start = clock()
        try:
            if tracer is None:
                result = workload.run(op)
            else:
                result = workload.run_traced(op, tracer, first_id + k)
        except Exception as err:  # an operation that raises is a failed operation
            error = err
        lats.append(clock() - start)
        results.append(result)
        errors.append(error)
    return results, errors, lats


def measure(workload, rng, seconds: float):
    """Untraced run: whole rounds until ``seconds`` have passed and the
    workload's minimum operation count is reached."""
    windows, tally = Windows(), Tally()
    rounds = 0
    begin = time.perf_counter()
    while True:
        rounds += 1
        ops = workload.round(rng, rounds)
        start = time.perf_counter()
        results, errors, lats = _run_pass(workload, ops)
        windows.add(lats, time.perf_counter() - start)
        for op, result, error in zip(ops, results, errors):
            tally.record(workload, op, result, error)
        elapsed = time.perf_counter() - begin
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and tally.attempted >= workload.min_ops):
            break
    windows.finish()
    return windows, tally, rounds


def measure_traced(workload, rng, seconds: float):
    """Traced run: each round runs once untraced and once traced,
    alternating which goes first, so the wall-time ratio of the two is
    the tracing overhead on the same inputs."""
    tracer, tally = Tracer(), Tally()
    plain = traced = 0.0
    rounds = 0
    begin = time.perf_counter()
    while True:
        rounds += 1
        ops = workload.round(rng, rounds)
        for traced_pass in ((False, True) if rounds % 2 else (True, False)):
            if traced_pass:
                workload.trace_on(tracer)
                start = time.perf_counter()
                results, errors, _ = _run_pass(workload, ops, tracer, tally.attempted)
                traced += time.perf_counter() - start
                workload.trace_off(tracer)
                tally.steps += sum(workload.steps(op) for op in ops)
            else:
                start = time.perf_counter()
                results, errors, _ = _run_pass(workload, ops)
                plain += time.perf_counter() - start
            for op, result, error in zip(ops, results, errors):
                tally.record(workload, op, result, error)
        if time.perf_counter() - begin >= min(seconds, HARD_CAP_S):
            break
    return tracer, tally, traced / plain, rounds


def repeat_share(workload, seed: int, rounds: int) -> float:
    """Share of operations whose exact input already occurred in the run,
    found by regenerating the run's inputs from the seed."""
    rng = random.Random(seed)
    seen, total, repeats = set(), 0, 0
    for index in range(rounds + 1):
        ops = workload.round(rng, index)
        if index == 0:
            ops = ops[:workload.warmup_ops]
        for op in ops:
            key = hash(workload.key(op))
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total


def fresh_interpreter_ms(root: str):
    """Median wall time of a bare interpreter, and median time of
    ``import lbkit.cli`` measured inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, imports = [], []
    code = ("import time; t = time.perf_counter(); import lbkit.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        bare.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3


# --------------------------------------------------------------------------
# provenance and output


def provenance(root: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_sha": git_sha(root),
    }


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git;
    None when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def end_to_end(windows, tally, setup_s, rss_mb):
    ops = windows.count
    return {
        "ops_per_s": (windows.rate(), "1/s", ops),
        "p50_ms": (windows.latency(0) * 1e3, "ms", ops),
        "p90_ms": (windows.latency(1) * 1e3, "ms", ops),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "failed_ratio": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def layer_metrics(tracer, tally, overhead, share, cli_ms):
    out = {key: (value, unit, None) for key, (value, unit) in tracer.metrics().items()}
    moves = tracer.counters.get("homotopy.concat.moves_built", 0)
    out["homotopy.concat.useful_ratio"] = (2 * tally.steps / moves if moves else 0.0,
                                           "ratio", None)
    out["cli.interpreter_ms"] = (cli_ms[0], "ms", PROBE_REPEATS)
    out["cli.import_ms"] = (cli_ms[1], "ms", PROBE_REPEATS)
    out["cli.malformed_mishandled"] = (tally.mishandled, "count", None)
    out["input_repeat_share"] = (share, "ratio", None)
    out["trace_overhead_ratio"] = (overhead, "ratio", None)
    return out


def run_one(args, root: str, spec: dict) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, rng, took = set_up(args.workload, args.seed, root)
        setups.append(took)
    setup_s = statistics.median(setups)

    if args.trace:
        tracer, tally, overhead, rounds = measure_traced(workload, rng, args.seconds)
        share = repeat_share(workload, args.seed, rounds)
        found = layer_metrics(tracer, tally, overhead, share, fresh_interpreter_ms(root))
        wanted = spec["per_layer"]
        os.makedirs(os.path.join(args.out, "spans"), exist_ok=True)
        tracer.write(os.path.join(args.out, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
        samples_note = {"operations": tally.attempted, "rounds": rounds}
    else:
        windows, tally, rounds = measure(workload, rng, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        share = repeat_share(workload, args.seed, rounds)
        found = end_to_end(windows, tally, setup_s, rss_mb)
        found["input_repeat_share"] = (share, "ratio", None)
        wanted = spec["end_to_end"]
        samples_note = {"operations": windows.count, "rounds": rounds,
                        "windows": [list(w) for w in windows.summaries]}

    metrics = {}
    for entry in wanted:
        value, unit, _ = found.get(entry["name"], (0, entry["unit"], None))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = tally.failed == 0
    for name, (value, unit, count) in sorted(found.items()):
        shown = "" if count is None else f"  (n={count})"
        print(f"{args.workload}  {name} = {value:.6g} {unit}{shown}")
    print(f"{args.workload}  attempted={tally.attempted} failed={tally.failed} "
          f"seed={args.seed} trace={args.trace}")
    for reason in tally.reasons:
        print(f"{args.workload}  failure: {reason}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": provenance(root), "samples": samples_note,
        "setup_runs_s": setups, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "failure_examples": tally.reasons,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in found.items()},
    }
    os.makedirs(os.path.join(args.out, "results"), exist_ok=True)
    path = os.path.join(args.out, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".benchout",
                        help="directory for result and span files (default .benchout)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench: cannot read BENCHMARK.json in {root}: {err}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "lbkit", "__init__.py")):
        print(f"bench: no lbkit sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, root, spec)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
