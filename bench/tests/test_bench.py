"""Tests of the benchmark itself: seeded inputs, oracles, span
arithmetic, compare verdicts and the command-line behaviour.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import compare
import oracles
import tracer as tracing
from conftest import BENCH, ROOT
from workloads import WORKLOADS, FamilyPipeline

# --------------------------------------------------------------------------
# seeded inputs


def _keys(workload, seed, rounds=3):
    rng = random.Random(seed)
    return [workload.key(op) for index in range(rounds) for op in workload.round(rng, index)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(lb, name):
    workload = WORKLOADS[name](lb, ROOT)
    assert _keys(workload, 5) == _keys(workload, 5)
    assert _keys(workload, 5) != _keys(workload, 6)


# --------------------------------------------------------------------------
# oracles reject wrong results


def test_small_snf_oracle(lb, rng):
    rows = ((2, 4), (6, 8))
    assert oracles.divisor_factors(rows) == (2, 4)
    assert oracles.check_small(rows, "factors", (2, 4)) is None
    assert oracles.check_small(rows, "factors", (2, 8)) is not None
    assert oracles.check_small(rows, "cokernel", SimpleNamespace(
        free_rank=0, invariant_factors=(2, 4))) is None
    assert oracles.check_small(rows, "cokernel", SimpleNamespace(
        free_rank=1, invariant_factors=(2,))) is not None
    for _ in range(200):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(c)) for _ in range(r))
        m = lb.homology.IntMatrix(r, c, rows)
        assert oracles.check_small(rows, "factors", lb.homology.invariant_factors(m)) is None
        assert oracles.check_small(rows, "cokernel", lb.homology.cokernel(m)) is None


def test_large_snf_certificate_oracle(lb, rng):
    hom = lb.homology
    rows = tuple(tuple(rng.randint(-50, 50) for _ in range(5)) for _ in range(5))
    m = hom.IntMatrix(5, 5, rows)
    d, u, v = hom.smith_normal_form(m)
    factors = hom.invariant_factors(m)
    assert oracles.check_large(rows, (d, u, v, factors)) is None
    swapped = hom.IntMatrix.from_rows([u.entries[1], u.entries[0]] + list(u.entries[2:]))
    assert oracles.check_large(rows, (d, swapped, v, factors)) is not None
    doubled = hom.IntMatrix.from_rows([[2 * x for x in row] for row in d.entries])
    assert oracles.check_large(rows, (doubled, u, v, factors)) is not None
    assert oracles.check_large(rows, (d, u, v, factors[:-1])) is not None
    assert oracles.det([[2, 1], [1, 1]]) == 1
    assert oracles.det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3


def test_pipeline_oracle(lb):
    workload = FamilyPipeline(lb, ROOT)
    result = workload.run(("pipe", 3, -5))
    assert oracles.check_pipeline(3, -5, result) is None
    assert oracles.check_pipeline(3, -3, result) is not None
    wrong_group = lb.homology.AbelianGroup(0, (4,))
    for position in (1, 2, 4, 9):
        bad = list(result)
        bad[position] = wrong_group if position != 2 else lb.homology.AbelianGroup(0, (2, 2))
        assert oracles.check_pipeline(3, -5, tuple(bad)) is not None, position
    bad = list(result)
    bad[6] = bad[6].replace('"framing": 3', '"framing": 4')
    assert oracles.check_pipeline(3, -5, tuple(bad)) is not None
    bad = list(result)
    bad[5] = (result[5][1], result[5][0])
    assert oracles.check_pipeline(3, -5, tuple(bad)) is not None


def test_link_cover_oracle(lb):
    link = lb.kirby.build_diagram(3, -2).attaching
    for m in (2, 3, 8):
        cov = lb.covers.cyclic_cover_link(link, m)
        assert oracles.check_link_cover(link, m, cov) is None
    first = cov.total.components[0]
    reframed = replace(cov.total, components=(replace(first, framing=first.framing + 1),)
                       + cov.total.components[1:])
    assert oracles.check_link_cover(link, 8, replace(cov, total=reframed)) is not None
    assert oracles.check_link_cover(link, 4, cov) is not None


def test_classification_and_cli_oracles(lb):
    assert oracles.check_relation(0, 2, lb.homotopy.classify(0, 2)) is None
    wrong = SimpleNamespace(equivalent=True, homotopic=True,
                            topologically_concordant=True, smoothly_isotopic=True)
    assert oracles.check_relation(0, 2, wrong) is not None
    good = json.dumps({"parity": 1, "lk_L": -3, "claim1": True, "claim2": True})
    assert oracles.check_cli(("obstruct", 0, 6, False), 0, good) is None
    assert oracles.check_cli(("obstruct", 0, 6, False), 0, good.replace("1,", "0,", 1)) is not None
    assert oracles.check_cli(("obstruct", 0, 3, False), 0, good) is not None
    assert oracles.check_cli(("obstruct", 0, 3, False), 1, '{"error": "x"}') is None
    assert oracles.check_cli(("homotopy-class", 0, 6), 0, json.dumps(
        {"elements": [[1]], "parities": [0], "zero": True})) is not None
    assert oracles.check_cli(("homology", 1, 2), 0, '{"free_rank": 0, "torsion": [4]}') is not None
    assert oracles.check_cli(("boundary", 1, 2), 0, '{"free_rank": 0, "torsion": [4]}') is None
    table = "i,j,equivalent,homotopic,concordant,isotopic\n" + "".join(
        f"{i},{j},1,1,1,1\n" for i in range(3) for j in range(3))
    assert oracles.check_cli(("table", 0, False), 0, table) is not None
    svg = '<svg xmlns="http://www.w3.org/2000/svg"><text class="framing">9</text></svg>'
    assert oracles.check_cli(("render-svg", 1, 2), 0, svg) is not None
    assert oracles.check_cli(("render-text", 1, 2), 0, "dotted: dot\n") is not None


def test_cli_oracle_accepts_real_cli_output(lb, capsys):
    for op, argv in ((("build", 2, -3), ["build", "--p=2", "--q=-3"]),
                     (("double", 2, -3), ["double", "--p=2", "--q=-3"]),
                     (("table", -1, True), ["table", "--range=-1:1", "--closed"]),
                     (("render-svg", 2, -3), ["render", "--format=svg", "--p=2", "--q=-3"]),
                     (("homotopy-class", 4, -2), ["homotopy-class", "--i=4", "--j=-2"])):
        code = lb.cli.main(argv)
        assert oracles.check_cli(op, code, capsys.readouterr().out) is None, op


def test_probe_handling():
    assert oracles.probe_handled(1, '{"error": "bad framing"}', "")
    assert not oracles.probe_handled(1, "", "Traceback (most recent call last):\n")
    assert not oracles.probe_handled(0, '{"free_rank": 0, "torsion": [2]}', "")


# --------------------------------------------------------------------------
# tracing


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("cli.main", 0, 100, -1),
        ("homotopy.classify", 10, 40, 0),
        ("homology.h1", 30, 60, 0),        # overlaps its sibling: counted once
        ("diagrams.half_twist_tangle", 15, 20, 1),
        ("render.render", 90, 120, 0),     # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == [100 - 60, 30 - 5, 30, 5, 30]


def test_layer_totals_from_spans():
    t = tracing.Tracer()
    t.absorb(0, [
        ("homology.cokernel", None, 0, 50, -1, False),
        ("homology.invariant_factors", "le3x3", 5, 45, 0, False),
        ("kirby.double", None, 60, 70, -1, True),
    ])
    m = t.metrics()
    assert m["homology.calls"] == (1, "count")          # one entry into the layer
    assert m["homology.self_ms"] == (50 / 1e6, "ms")
    assert m["kirby.errors"] == (1, "count")
    assert m["homology.invariant_factors.us_per_call.le3x3"] == (40 / 1e3, "us")


def test_install_wraps_aliases_and_restores(lb):
    t = tracing.Tracer()
    original = lb.homotopy.concat
    undo = t.install()
    try:
        assert lb.cli.concat is lb.homotopy.concat is not original
        t.begin_op(0)
        lb.homotopy.classify(0, 4)
        t.end_op()
    finally:
        t.uninstall(undo)
    assert lb.cli.concat is original and lb.homotopy.concat is original
    m = t.metrics()
    assert m["homotopy.concat.calls"] == (2, "count")
    assert m["homotopy.concat.moves_built"] == (2 + 4, "count")
    assert m["homotopy.classify.us_per_call.near"][0] > 0
    assert isinstance(lb.homology.IntMatrix(1, 1, ((1,),)), lb.homology.IntMatrix)


# --------------------------------------------------------------------------
# run-level statistics


def test_windows_summaries_and_tail():
    import run
    w = run.Windows()
    for _ in range(3):                       # three full windows of 100 x 5 ms
        w.add([0.005] * 100, 0.5)
    w.add([0.010] * 20, 0.2)                 # a short tail joins the last window
    w.finish()
    assert w.count == 320 and len(w.summaries) == 3
    assert w.summaries[-1][1] == pytest.approx(0.010)   # the tail reached its p90
    assert w.latency(0) == pytest.approx(0.005)
    assert w.summaries[-1][2] == pytest.approx(120 / 0.7)
    assert 120 / 0.7 < w.rate() < 200      # the slowest tenth, interpolated
    single = run.Windows()
    single.add([0.2] * 14, 2.8)              # too few operations for a window
    single.finish()
    assert len(single.summaries) == 1 and single.rate() == pytest.approx(5.0)


# --------------------------------------------------------------------------
# compare mode


TIGHT = [100, 101, 99, 100, 100, 102, 98, 100, 101, 99]


def test_compare_marks_wide_spread_unresolved():
    wide = [70, 130, 90, 110, 85, 120, 100, 95, 105, 80]
    assert compare.spread(wide) > 0.1
    assert compare.verdict(TIGHT, wide, 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(wide, TIGHT, 0.1, "lower")[0] == "unresolved"


def test_compare_verdicts():
    assert compare.verdict(TIGHT, [x * 1.3 for x in TIGHT], 0.1, "lower")[0] == "worse"
    assert compare.verdict(TIGHT, [x * 0.7 for x in TIGHT], 0.1, "lower")[0] == "improved"
    assert compare.verdict(TIGHT, [x * 0.7 for x in TIGHT], 0.1, "higher")[0] == "worse"
    assert compare.verdict(TIGHT, [x + 0.5 for x in TIGHT], 0.1, "lower")[0] == "unchanged"
    # every run better than every base run wins over a wide spread
    assert compare.verdict(TIGHT, [10, 30, 50, 70, 90], 0.1, "lower")[0] == "improved"


# --------------------------------------------------------------------------
# the command line


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_result_line(tmp_path):
    proc = _run(ROOT, "--workload", "snf_sweep", "--seed", "3", "--seconds", "0.2",
                "--trace", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1000
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    proc = _run(ROOT, "--workload", "family_pipeline", "--seed", "3", "--seconds", "0.2",
                "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert last["metrics"]["kirby.build_diagram.us_per_call"]["value"] > 0
    assert last["metrics"]["homotopy.concat.calls"]["value"] == 0
    assert os.listdir(os.path.join(tmp_path, "spans"))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "snf_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
