"""Summarize or compare benchmark result sets.

A result set is a directory of result files written by ``bench/run.py``
(by default ``.benchout/results``), typically ten seeds per workload.

    python3 bench/compare.py SET            # one set: medians, quartiles, spread
    python3 bench/compare.py BASE NEW       # two sets: one verdict per row

With two sets, each workload and end-to-end metric of BENCHMARK.json
gets a row: median and quartiles on each side, the ratio NEW/BASE with
its base value, pair wins (runs paired by seed, else by order) and a
verdict judged by the metric's bound:

* unresolved: the spread (interquartile range over median) on either
  side is wider than the bound, unless every NEW run beats every BASE run;
* improved: NEW wins at least nine tenths of the pairs and the medians
  differ by more than BASE's interquartile range;
* worse: NEW's median is worse than BASE's by more than the bound;
* unchanged: otherwise.

A single set also lists the per-layer medians of its traced runs, with
the per-call figures measured when the project's roadmap was last
re-anchored beside the matching names (for reference only).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

# Per-call figures from the roadmap's "Baseline measured at this
# re-anchor" (Python 3.11.7, 2 cores), in µs, keyed by per-layer name.
ROADMAP_REFERENCE = {
    "homology.invariant_factors.us_per_call.le3x3": (13.0, "_eliminate per 3x3 in criterion 09"),
    "homology.IntMatrix.us_per_call": (3.4, "IntMatrix construction in criterion 09"),
    "homology.h1.us_per_call": (11.0, "h1"),
    "kirby.build_diagram.us_per_call": (83.0, "build_diagram"),
    "covers.double_cover_diagram.us_per_call": (210.0, "double_cover_diagram"),
    "homotopy.classify.us_per_call.near": (330.0, "classify(0, 2)"),
    "homotopy.classify.us_per_call.far": (36700.0, "classify(-400, 400)"),
}


def load_set(path: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from a result directory."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as fh:
            rec = json.load(fh)
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    return runs


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound: float, better: str, pairs=None) -> tuple[str, int, int]:
    """Judge NEW against BASE for one metric; returns (verdict, wins, pairs).

    ``pairs`` is a list of (base, new) values; by default the two lists
    are paired in order.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new)) if pairs is None else pairs
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bq1, mb, bq3 = quartiles(base)
    _, mn, _ = quartiles(new)
    every_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not every_better:
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (mn - mb) > bq3 - bq1:
        return "improved", wins, len(pairs)
    if sign * (mn - mb) < -bound * abs(mb):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def _pairs(base_runs: dict, new_runs: dict, metric: str):
    common = sorted(set(base_runs) & set(new_runs))
    if common:
        return [(base_runs[s][metric], new_runs[s][metric]) for s in common]
    return list(zip((base_runs[s][metric] for s in sorted(base_runs)),
                    (new_runs[s][metric] for s in sorted(new_runs))))


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(base: dict, new: dict, spec: dict, out=sys.stdout) -> list:
    rows = []
    out.write(f"{'workload':16} {'metric':12} {'base median [q1, q3]':32} "
              f"{'new median [q1, q3]':32} {'ratio (base)':24} wins    verdict\n")
    workloads = sorted({w for w, t in base if t == 0} & {w for w, t in new if t == 0})
    for workload in workloads:
        b_runs, n_runs = base[(workload, 0)], new[(workload, 0)]
        for m in spec["end_to_end"]:
            name = m["name"]
            if not all(name in r for r in list(b_runs.values()) + list(n_runs.values())):
                continue
            bv = [r[name] for r in b_runs.values()]
            nv = [r[name] for r in n_runs.values()]
            pairs = _pairs(b_runs, n_runs, name)
            result, wins, total = verdict(bv, nv, m["bound"], m["better"], pairs)
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = nq[1] / bq[1] if bq[1] else float("inf")
            base_txt = f"{ratio:.3f} ({bq[1]:.4g} {m['unit']})"
            out.write(f"{workload:16} {name:12} {_fmt(bq):32} {_fmt(nq):32} "
                      f"{base_txt:24} {wins:>2}/{total:<4} {result}\n")
            rows.append((workload, name, result))
    return rows


def summarize(runs: dict, spec: dict, out=sys.stdout) -> None:
    for (workload, trace), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        out.write(f"\n{workload} (trace={trace}, {len(values)} runs, seeds "
                  f"{sorted(by_seed)})\n")
        entries = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for m in entries:
            got = [v[m["name"]] for v in values if m["name"] in v]
            if not got:
                continue
            line = f"  {m['name']:48} {_fmt(quartiles(got)):36} {m['unit']:6}"
            if trace == 0:
                line += f" spread {spread(got):.4f} (bound {m['bound']})"
            ref = ROADMAP_REFERENCE.get(m["name"])
            if trace == 1 and ref:
                line += f" roadmap {ref[0]:g} us ({ref[1]})"
            out.write(line + "\n")
        if trace == 1:
            for name, ref in ROADMAP_REFERENCE.items():
                if not any(m["name"] == name for m in entries):
                    got = [v[name] for v in values if name in v]
                    if got:
                        out.write(f"  {name:48} {_fmt(quartiles(got)):36} us     "
                                  f"roadmap {ref[0]:g} us ({ref[1]})\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarize or compare benchmark result sets.")
    parser.add_argument("sets", nargs="+", metavar="DIR", help="one or two result directories")
    parser.add_argument("--spec", default="BENCHMARK.json", help="benchmark definition")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one result set to summarize or two to compare")
    with open(args.spec) as fh:
        spec = json.load(fh)
    sets = [load_set(path) for path in args.sets]
    if len(sets) == 1:
        summarize(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
