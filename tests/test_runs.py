"""Runs, the run-length sequence behind crossing words and traces.

Three kinds of check.  A model test holds ``Runs`` to the expanded tuple
it stands for.  Positional references, written against ``tuple(...)`` of
a word and taking one step per position, must agree with the per-run
evaluators.  Memory bounds keep huge twist counts from allocating by
position, and every public int parameter near 2**64 from allocating at
all.  Run counts must be non-negative exact ints.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import lbkit
from lbkit.diagrams import (
    BLUE, RED, BadSite, BicoloredLink, Crossing, DiagramError, LinkComponent, Runs,
    bicolored_linking, half_twist_tangle, reidemeister, reverse_mirror,
)
from lbkit.homology import AbelianGroup
from lbkit.homotopy import (
    CrossedClass, Cycle, FingerMove, HomotopyTrace, WhitneyMove,
    connecting_homotopy, crossed_class, cycle_validate,
)
from lbkit.obstruction import (
    ConcordanceSlice, assemble_link, clasped_side, model_slice, slice_linking,
)

Z2Z4 = AbelianGroup(0, (2, 4))

# --------------------------------------------------------------------------
# the model: Runs against the expanded tuple


blocks = st.lists(st.sampled_from("abc"), max_size=3).map(tuple)
run_lists = st.lists(st.tuples(blocks, st.integers(0, 4)), max_size=5)
counts = st.one_of(st.integers(0, 4), st.integers(sys.maxsize - 2, 2 ** 70))


def expand(runs):
    return tuple(x for block, count in runs for _ in range(count) for x in block)


class TestModel:
    @settings(max_examples=300)
    @given(run_lists, run_lists, st.data())
    def test_runs_behave_like_the_expanded_tuple(self, a, b, data):
        r, t, u = Runs(a), expand(a), expand(b)
        assert len(r) == len(t)
        assert list(r) == list(t)
        for k in range(-len(t), len(t)):
            assert r[k] == t[k]
        for k in (len(t), -len(t) - 1):
            with pytest.raises(IndexError):
                r[k]
        s = data.draw(st.slices(len(t) + 2))
        assert type(r[s]) is tuple and r[s] == t[s]
        assert r + u == t + u and u + r == u + t
        assert r + Runs(b) == t + u
        assert type(r + u) is Runs and type(u + r) is Runs
        assert r == t and t == r and not r != t
        assert (r == Runs(b)) == (t == u)
        assert r != list(t)
        assert hash(r) == hash(t)

    @settings(max_examples=300)
    @given(run_lists, st.integers(-40, 40))
    def test_int_indices_match_the_tuple(self, a, k):
        r, t = Runs(a), expand(a)
        if -len(t) <= k < len(t):
            assert r[k] == t[k]
        else:
            with pytest.raises(IndexError):
                r[k]

    @settings(max_examples=40)
    @given(st.lists(st.tuples(blocks.map(lambda b: b[:2]), st.integers(0, 2)),
                    max_size=3))
    def test_every_slice_matches_the_tuple(self, a):
        r, t = Runs(a), expand(a)
        bounds = (None, *range(-len(t) - 1, len(t) + 2))
        steps = [s for s in bounds if s != 0]
        for start, stop, step in product(bounds, bounds, steps):
            s = slice(start, stop, step)
            assert type(r[s]) is tuple and r[s] == t[s], s
        with pytest.raises(ValueError):
            r[::0]

    @settings(max_examples=300)
    @given(run_lists, st.data())
    def test_replaced_matches_assignment_on_the_tuple(self, a, data):
        r, t = Runs(a), list(expand(a))
        keys = data.draw(st.sets(st.integers(0, len(t) - 1), max_size=4)) if t else set()
        items = {k: data.draw(st.sampled_from("xyz")) for k in keys}
        for k, item in items.items():
            t[k] = item
        assert r._replaced(items) == tuple(t)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(blocks, counts), max_size=5),
           st.lists(st.tuples(blocks, counts), max_size=5), blocks,
           st.sampled_from(("none", "left", "right", "both")), st.booleans())
    def test_joining_merges_only_the_junction_run(self, a, b, shared, where, lists):
        # the same block may end the left operand and start the right one
        a = a + [(shared, 3)] * (where in ("left", "both"))
        b = [(shared, 2)] * (where in ("right", "both")) + b
        if lists:  # list blocks are normalized like tuple blocks
            a = [(list(block), n) for block, n in a]
        r, s = Runs(a), Runs(b)
        for left, right in ((r, s), (r, shared), (shared, s), (r, ()), ((), s)):
            joined = left + right
            want = Runs(Runs.of(left).runs + Runs.of(right).runs)
            assert type(joined) is Runs and joined.runs == want.runs
            size = sum(len(block) * n for block, n in want.runs)
            assert joined._len == want._len == size

    @settings(max_examples=300)
    @given(st.lists(st.tuples(blocks, counts), max_size=5),
           st.dictionaries(st.sampled_from("abc"), st.sampled_from("xy")))
    def test_map_builds_the_runs_of_the_images(self, a, table):
        # few images for three items: neighbouring blocks often map to equal ones
        r, calls = Runs(a), []

        def image(x):
            calls.append(x)
            return table.get(x, x)

        mapped = r.map(image)
        want = Runs([(tuple(table.get(x, x) for x in b), n) for b, n in r.runs])
        assert type(mapped) is Runs and mapped.runs == want.runs
        assert mapped._len == want._len == r._len  # len() caps at sys.maxsize
        assert sorted(calls) == sorted(set(r.items()))  # once per distinct item

    def test_replaced_past_sys_maxsize_writes_out_only_the_touched_copies(self):
        r = Runs(((("a", "b", "c"), 2 ** 64), (("d",), 1)))
        out = r._replaced({0: "x", 2: "y", 3 * 2 ** 63 + 1: "z", 3 * 2 ** 64: "w"})
        assert out.runs == ((("x", "b", "y"), 1), (("a", "b", "c"), 2 ** 63 - 1),
                            (("a", "z", "c"), 1), (("a", "b", "c"), 2 ** 63 - 1),
                            (("w",), 1))

    def test_slices_past_sys_maxsize_read_the_runs(self):
        assert half_twist_tangle(2 ** 64).crossings[:1] == \
            tuple(half_twist_tangle(2).crossings)[:1]
        n = 2 ** 64 + 1
        crossings = half_twist_tangle(n).crossings
        for s in (slice(1), slice(-3, None), slice(2 ** 63, 2 ** 63 + 4),
                  slice(None, None, 2 ** 62), slice(None, None, -2 ** 62),
                  slice(-1, -8, -3), slice(n + 5, None, -2 ** 61),
                  slice(2 ** 63, 2 ** 63), slice(3, 1)):
            assert crossings[s] == tuple(crossings[k] for k in range(n)[s]), s

    def test_indices_past_sys_maxsize_read_the_runs(self):
        n = 2 ** 64 + 1  # a full run of (ab, ba) pairs, then one ab
        crossings = half_twist_tangle(n).crossings
        small = tuple(half_twist_tangle(5).crossings)
        for k in (0, 1, 2 ** 63, 2 ** 63 + 1, n - 2, n - 1, -1, -2, -n):
            assert crossings[k] == small[k % n % 2]
        for k in (n, 2 ** 65, -n - 1):
            with pytest.raises(IndexError):
                crossings[k]
        long = Runs(((("a", "b", "c"), 10 ** 30), (("d",), 1)))
        assert long[-1] == "d" and long[-2] == "c" and long[3 * 10 ** 30 - 3] == "a"

    def test_equality_past_sys_maxsize_reads_the_runs(self):
        a, b = half_twist_tangle(2 ** 64), half_twist_tangle(2 ** 64 + 2)
        assert a != b and a.crossings != b.crossings
        assert a.crossings != tuple(half_twist_tangle(2).crossings)
        n = 2 ** 64 + 1
        assert reverse_mirror(half_twist_tangle(n)).crossings == \
            half_twist_tangle(-n).crossings

    def test_equal_neighbouring_blocks_merge(self):
        pair = ("a", "b")
        joined = Runs(((pair, 2),)) + Runs(((pair, 3),)) + pair
        assert joined.runs == ((pair, 6),)
        assert Runs(((pair, 1), ((), 4), (pair, 0), (pair, 2))).runs == ((pair, 3),)

    def test_coercion_keeps_a_runs_and_wraps_a_sequence(self):
        r = Runs(((("a",), 2),))
        assert Runs.of(r) is r
        assert Runs.of(["a", "b"]).runs == ((("a", "b"), 1),)
        assert Runs.of(()).runs == ()

    def test_runs_is_immutable(self):
        r = Runs(((("a",), 2),))
        with pytest.raises(AttributeError):
            r.runs = ()
        with pytest.raises(AttributeError):
            r.extra = 1


class TestRunCounts:
    def test_a_negative_count_is_refused_before_it_is_summed(self):
        with pytest.raises(DiagramError, match="run counts must be non-negative, got -2"):
            bicolored_linking(BicoloredLink(
                (LinkComponent("r", RED), LinkComponent("b", BLUE)),
                Runs((((Crossing("r", "b", 1),), -2),))))
        with pytest.raises(DiagramError, match="got -3"):
            Runs(((("a",), 3), (("a",), -3)))  # no zero-count run is kept either
        assert Runs(((("a",), 3), (("a",), 0))).runs == ((("a",), 3),)

    @pytest.mark.parametrize("count, kind", [(2.0, "float"), (True, "bool")])
    def test_diagram_run_counts_must_be_exact_ints(self, count, kind):
        runs = Runs((((Crossing("a", "b", 1),), count),))
        with pytest.raises(DiagramError, match=f"run counts must be int, not {kind}"):
            BicoloredLink((LinkComponent("a", RED), LinkComponent("b", BLUE)), runs)
        with pytest.raises(DiagramError, match=f"run counts must be int, not {kind}"):
            replace(half_twist_tangle(2), crossings=runs)

    def test_counts_past_2_64_are_accepted(self):
        pair = (Crossing("a", "b", 1), Crossing("b", "a", 1))
        link = BicoloredLink((LinkComponent("a", RED), LinkComponent("b", BLUE)),
                             Runs(((pair, 2 ** 70),)))
        assert bicolored_linking(link) == 2 ** 70
        t = replace(half_twist_tangle(2), crossings=Runs(((pair, 2 ** 64 + 1),)))
        assert t.crossings == half_twist_tangle(2 ** 65 + 2).crossings


# --------------------------------------------------------------------------
# positional references: one step per position of tuple(...)


def reference_linking(link):
    """Half the signed sum of red-blue crossings, one crossing at a time."""
    color = {c.id: c.color for c in link.components}
    total = 0
    for c in tuple(link.crossings):
        if color[c.over] != color[c.under]:
            total += c.sign
    assert total % 2 == 0
    return total // 2


def reference_slice_linking(s):
    """The assembled boundary link's linking, by the positional sum."""
    return reference_linking(assemble_link(s))


def reference_validate(t):
    """The counting checks with one step per move and per cycle."""
    moves, cycles = tuple(t.moves), tuple(t.cycles)
    fingers = sum(1 for m in moves if isinstance(m, FingerMove))
    if sum(c.minima for c in cycles) != 2 * fingers:
        return False
    if sum(c.maxima for c in cycles) != 2 * (len(moves) - fingers):
        return False
    for c in cycles:
        if c.crossed:
            order = t.group.order(c.element)
            if order is None or order > 2:
                return False
    return True


def reference_class(t):
    """The crossed-cycle class with one reduction per crossed cycle."""
    counts = {el: 0 for el in t.group.elements_of_order_two()}
    for c in tuple(t.cycles):
        if c.crossed:
            el = t.group.reduce(c.element)
            if el in counts:
                counts[el] += 1
    return CrossedClass(t.group, tuple(sorted(counts.items())))


def reference_r3(d, site):
    """R3 as first written: the three crossings moved in a list of every position."""
    i, j, k = site
    new = list(d.crossings)
    new[i], new[j], new[k] = new[k], new[i], new[j]
    return replace(d, crossings=tuple(new))


def same_parity(i, j):
    """j moved by one towards zero when i and j differ in parity."""
    return j if (i - j) % 2 == 0 else j - 1 if j > 0 else j + 1


twists = st.integers(-800, 800)
# Cycles over Z/2 + Z/4, some of order 4 and some unreduced, in runs.
cycles = st.builds(Cycle, st.booleans(),
                   st.sampled_from(((0, 0), (1, 0), (0, 2), (3, -2), (0, 1))),
                   st.integers(0, 2), st.integers(0, 2))
cycle_runs = st.lists(st.tuples(st.lists(cycles, max_size=3).map(tuple),
                                st.integers(0, 4)), max_size=4)


class TestAgainstPositionalReferences:
    @settings(max_examples=200)
    @given(twists, twists)
    def test_slice_linking(self, i, j):
        j = same_parity(i, j)
        s = model_slice(i, j)
        assert slice_linking(s) == reference_slice_linking(s) == (i - j) // 2
        link = assemble_link(s)
        assert len(link.crossings) == abs(i) + abs(j)
        assert bicolored_linking(link) == reference_linking(link)

    @settings(max_examples=100)
    @given(twists, twists, st.integers(-3, 3), st.integers(-3, 3))
    def test_decorated_slice_linking(self, i, j, plus, minus):
        j = same_parity(i, j)
        s = ConcordanceSlice(
            inner=half_twist_tangle(i, (RED, BLUE)),
            outer=reverse_mirror(half_twist_tangle(j, (RED, BLUE))),
            side_plus_red=clasped_side(RED, plus, plain_extras=1),
            side_plus_blue=clasped_side(BLUE, plus),
            side_minus_red=clasped_side(RED, minus),
            side_minus_blue=clasped_side(BLUE, 0))
        assert slice_linking(s) == reference_slice_linking(s)

    @settings(max_examples=200)
    @given(twists, twists)
    def test_connecting_homotopy_checks(self, i, j):
        j = same_parity(i, j)
        t = connecting_homotopy(i, j)
        assert len(t.moves) == abs(i - j) and len(t.cycles) == abs(i - j) // 2
        assert cycle_validate(t) == reference_validate(t)
        assert crossed_class(t) == reference_class(t)

    @settings(max_examples=200)
    @given(cycle_runs, st.integers(0, 6), st.integers(0, 6))
    def test_multi_run_trace_checks(self, runs, fingers, whitneys):
        moves = Runs((((FingerMove((1, 0)),), fingers),
                      ((WhitneyMove((0, 2)),), whitneys)))
        t = HomotopyTrace(Z2Z4, moves, Runs(runs))
        assert cycle_validate(t) == reference_validate(t)
        assert crossed_class(t) == reference_class(t)

    @settings(max_examples=150)
    @given(st.integers(-40, 40), st.integers(-20, 20), st.lists(st.tuples(
        st.sampled_from(("R1", "R2", "R3")), st.integers(0, 10 ** 6),
        st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
        st.sampled_from((1, -1))), max_size=12))
    def test_reidemeister_sequences_on_assembled_links(self, i, k, moves):
        link = assemble_link(model_slice(i, i + 2 * k))
        ids = [c.id for c in link.components]
        for move, x, y, z, sign in moves:
            n = len(link.crossings)
            if move == "R1":
                site = (ids[x % len(ids)], sign)
            elif move == "R2":
                site = (ids[x % len(ids)], ids[y % len(ids)], sign)
            elif n < 3:
                continue
            else:
                site = (x % n, y % n, z % n)
            try:
                link = reidemeister(link, move, site)
            except BadSite:
                continue
            assert bicolored_linking(link) == reference_linking(link)


    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.lists(st.tuples(
               st.sampled_from("xyz"), st.sampled_from("xyz"), st.sampled_from((1, -1))),
               min_size=1, max_size=4), st.integers(1, 3)), min_size=1, max_size=4),
           st.data())
    def test_r3_matches_the_positional_swap(self, runs, data):
        trio = Runs([(tuple(Crossing(*c) for c in block), n) for block, n in runs])
        link = BicoloredLink(tuple(LinkComponent(c, RED if c != "y" else BLUE)
                                   for c in "xyz"), trio)
        assume(len(trio) >= 3)
        site = tuple(data.draw(st.lists(st.integers(0, len(trio) - 1), min_size=3,
                                        max_size=3, unique=True)))
        try:
            moved = reidemeister(link, "R3", site)
        except BadSite:
            return
        assert moved == reference_r3(link, site)


# --------------------------------------------------------------------------
# memory: huge twist counts stay a few runs


# Run in a child whose address space is capped, so a regression to
# per-position words fails with MemoryError instead of taking gigabytes.
MEMORY_PROBE = """
import json, resource, tracemalloc
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
from lbkit.diagrams import half_twist_tangle
from lbkit.homotopy import classify, connecting_homotopy
from lbkit.obstruction import concordance_obstruction

def measured(call):
    tracemalloc.reset_peak()
    value = call()
    return value, tracemalloc.get_traced_memory()[1]

tracemalloc.start()
out = {}
t, peak = measured(lambda: half_twist_tangle(10 ** 9))
out["tangle"] = [len(t.crossings), peak]
value, peak = measured(lambda: concordance_obstruction(0, 2 * 10 ** 9))
out["obstruction"] = [value, peak]
t, peak = measured(lambda: connecting_homotopy(0, 2 * 10 ** 9))
out["homotopy"] = [len(t.moves), len(t.cycles), t.finger_count, peak]
r, peak = measured(lambda: classify(0, 4 * 10 ** 9))
out["classify"] = [r.homotopic, r.topologically_concordant, r.smoothly_isotopic, peak]
print(json.dumps(out))
"""


def test_huge_twist_counts_stay_small_in_memory():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    limit = 1 << 20
    assert out["tangle"][0] == 10 ** 9 and out["tangle"][1] < limit
    # ((i - j) / 2) mod 2 with i - j = -2 * 10**9
    assert out["obstruction"] == [0, out["obstruction"][1]]
    assert out["obstruction"][1] < limit
    # k = 10**9 steps: 2k moves, k cycles, k finger moves
    assert out["homotopy"][:3] == [2 * 10 ** 9, 10 ** 9, 10 ** 9]
    assert out["homotopy"][3] < limit
    # k = 2 * 10**9 steps: even, so concordant and isotopic
    assert out["classify"][:3] == [True, True, True] and out["classify"][3] < limit


# The library-level bounds and the run-level paths, in the same capped child:
# a power past MAX_POWER_LETTERS is refused before its letters are built, and
# a cover past it in letters and split lifts before its lifts are built; R3
# permutes three positions of a word past sys.maxsize by its runs, and the
# obstruction's terms neither hash nor expand a word.  A braid word past
# MAX_STRANDS is refused as it is built, and a group's order-2 elements past
# MAX_TWO_TORSION before they are listed.
BOUNDS_PROBE = """
import json, resource, tracemalloc
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
from lbkit.covers import cyclic_cover_link
from lbkit.diagrams import (
    BLUE, RED, AnnularComponent, AnnularLink, BicoloredLink, BraidWord, Crossing,
    LinkComponent, Runs, bicolored_linking, half_twist_tangle, reidemeister,
    reverse_mirror)
from lbkit.homology import AbelianGroup
from lbkit.homotopy import crossed_class, empty_trace
from lbkit.kirby import build_diagram
from lbkit.obstruction import (
    ConcordanceSlice, clasped_side, concordance_obstruction, side_symmetry_holds,
    slice_linking)

def measured(call):
    tracemalloc.reset_peak()
    try:
        value = call()
    except Exception as err:
        value = [type(err).__name__, str(err)]
    return [value, tracemalloc.get_traced_memory()[1]]

word, attaching = BraidWord(4, ((1, -1), (3, 1))), build_diagram(0, 0).attaching
unknot = AnnularLink(BraidWord(1), (AnnularComponent("c", frozenset({1})),),
                     (AnnularComponent("u", frozenset()),))  # no letters, one split lift per sheet
n = 2 ** 64 + 1
s = ConcordanceSlice(
    inner=half_twist_tangle(n, (RED, BLUE)),
    outer=reverse_mirror(half_twist_tangle(-n, (RED, BLUE))),
    side_plus_red=clasped_side(RED, 2 ** 70), side_plus_blue=clasped_side(BLUE, 2 ** 70),
    side_minus_red=clasped_side(RED, -2 ** 70, 2),
    side_minus_blue=clasped_side(BLUE, -2 ** 70))
trio = (Crossing("x", "y", 1), Crossing("x", "z", 1), Crossing("y", "z", 1))
link = BicoloredLink((LinkComponent("x", RED), LinkComponent("y", BLUE),
                      LinkComponent("z", RED)), Runs(((trio, 2 ** 64),)))

def r3():
    moved = reidemeister(link, "R3", (3 * 2 ** 63, 3 * 2 ** 63 + 1, 3 * 2 ** 63 + 2))
    return [len(moved.crossings.runs), bicolored_linking(moved) == bicolored_linking(link)]

tracemalloc.start()
print(json.dumps({
    "power": measured(lambda: word.power(10 ** 9)),
    "cover": measured(lambda: cyclic_cover_link(attaching, 10 ** 9)),
    "split_lifts": measured(lambda: cyclic_cover_link(unknot, 10 ** 9)),
    "r3_no_site": measured(lambda: reidemeister(half_twist_tangle(2 ** 64), "R3", (0, 1, 2))),
    "r3": measured(r3),
    "slice_linking": measured(lambda: slice_linking(s)),
    "side_symmetry": measured(lambda: side_symmetry_holds(s)),
    "obstruction": measured(lambda: concordance_obstruction(0, 2 * 10 ** 9, True)),
    "huge_strands": measured(lambda: BraidWord(2 ** 64 + 1).cycles()),
    "many_strands": measured(lambda: BraidWord(10 ** 9).power(2)),
    "order_two": measured(lambda: AbelianGroup(0, (2,) * 30).elements_of_order_two()),
    "crossed_class": measured(lambda: crossed_class(empty_trace(AbelianGroup(0, (2,) * 24)))),
}))
"""


def test_library_bounds_and_run_paths_stay_small_in_memory():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BOUNDS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    refused = ["DiagramError", f"a braid word power may have at most {1 << 22} "
               "letters (MAX_POWER_LETTERS)"]
    assert out["power"][0] == out["cover"][0] == refused
    assert out["split_lifts"][0] == ["DiagramError", f"a cyclic cover may have at most {1 << 22} "
                                     "letters and split lifts (MAX_POWER_LETTERS)"]
    assert out["r3_no_site"][0] == ["BadSite", "R3 needs three mutually crossing strands"]
    assert out["r3"][0] == [3, True]
    # core (n - (-n)) / 2 = n; the sides cancel and are deck-symmetric
    assert out["slice_linking"][0] == 2 ** 64 + 1
    assert out["side_symmetry"][0] is True
    assert out["obstruction"][0] == 0  # ((0 - 2 * 10**9) / 2) mod 2
    strands = ["DiagramError", f"a braid word may have at most {1 << 16} strands (MAX_STRANDS)"]
    assert out["huge_strands"][0] == out["many_strands"][0] == strands
    for name, k in (("order_two", 30), ("crossed_class", 24)):
        assert out[name][0] == ["ValueError", f"a group with {k} even invariant factors has "
                                f"2**{k} elements of order at most 2, past {1 << 16} "
                                "(MAX_TWO_TORSION)"]
    for name, (_, peak) in out.items():
        assert peak < 1 << 20, (name, peak)


# Every public callable of lbkit that takes an int parameter, called with
# values near 2**64 in the same capped child: each answers within a few MB or
# raises an lbkit error by name, never MemoryError, OverflowError or
# RecursionError.  One cost is accepted and never called here: Runs.__hash__
# hashes the expanded sequence, since equal sequences cut into different runs
# must hash alike and no run-length form of a sequence is unique.
HUGE_INT_PROBE = """
import json, resource, tracemalloc
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap if hard < 0 else min(cap, hard), hard))
from lbkit import *
from lbkit.diagrams import BLUE, RED, LinkComponent
from lbkit.obstruction import side_symmetry_holds

N = 2 ** 64 + 1
d = build_diagram(3, 2)
cover = double_cover_diagram(d)
caps = BicoloredLink((LinkComponent("r", RED), LinkComponent("b", BLUE)))
CASES = {
    "AbelianGroup": lambda: AbelianGroup(N).arity,
    "AnnularComponent": lambda: AnnularComponent("u", frozenset(), None, N, 1, N).winding,
    "BraidWord": lambda: BraidWord(N).strands,
    "ClosedCaseData": lambda: closed_case_linking(ClosedCaseData(
        model_slice(N, -N), caps, caps, N, -N, N, N)),
    "CoverData": lambda: CoverData(d, N, cover.total, cover.component_map, cover.deck),
    "Crossing": lambda: Crossing("a", "b", N),
    "IntMatrix": lambda: cokernel(IntMatrix(0, N, ())),
    "KirbyDiagram": lambda: euler_characteristic(KirbyDiagram(
        d.dotted, d.two_handles, d.linking, N, N)),
    "LinkCover": lambda: LinkCover(d.attaching, N, d.attaching, (), ()).degree,
    "SphereEmbedding": lambda: sphere_square(SphereEmbedding(d, N, (1, 1, 0))),
    "TwoHandle": lambda: h1(KirbyDiagram(("x",), (TwoHandle("h", N, (N,)),), ((0, N), (N, N)))),
    "build_diagram": lambda: h1(build_diagram(N, -N)),
    "classify": lambda: classify(N, -N).smoothly_isotopic,
    "concordance_obstruction": lambda: concordance_obstruction(N, -N, True),
    "connecting_homotopy": lambda: cycle_validate(connecting_homotopy(N, -N)),
    "cyclic_cover_link": lambda: cyclic_cover_link(d.attaching, N),
    "half_twist_tangle": lambda: half_twist_tangle(-N, (RED, BLUE)).crossings.runs,
    "handle_slide": lambda: handle_slide(d, "lower", "dual", N),
    "lift_wiring": lambda: lift_wiring(N),
    "model_slice": lambda: side_symmetry_holds(model_slice(-N, N)),
    "standard_sphere": lambda: sphere_tangle(standard_sphere(d, N)).crossings.runs,
    "twist_homotopy": lambda: crossed_class(twist_homotopy(N)).is_zero,
    # int parameters of methods: powers of a word, and of an empty word
    "BraidWord.power": lambda: BraidWord(4, ((1, -1), (3, 1))).power(N),
    "BraidWord.power (empty word)": lambda: BraidWord(3).power(N).cycles(),
}

def measured(call):
    tracemalloc.reset_peak()
    try:
        call()
        outcome = "answer"
    except Exception as err:
        outcome = f"{type(err).__module__}.{type(err).__name__}"
    return [outcome, tracemalloc.get_traced_memory()[1]]

tracemalloc.start()
print(json.dumps({name: measured(call) for name, call in CASES.items()}))
"""


def int_taking_callables():
    """Names of lbkit's public callables with a parameter annotated int."""
    names = set()
    for name in dir(lbkit):
        obj = getattr(lbkit, name)
        if name.startswith("_") or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        if any(p.annotation in ("int", int) for p in inspect.signature(obj).parameters.values()):
            names.add(name)
    return names


def test_runs_are_built_unchecked_only_inside_their_class():
    # object.__new__(Runs) skips Runs.__init__'s merging and count checks, so
    # only Runs's own methods may call it; everyone else builds through them
    package = os.path.dirname(lbkit.__file__)
    found, seen = [], []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read(), name)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
                        and [ast.unparse(arg) for arg in node.args] == ["Runs"]):
                    inside = isinstance(top, ast.ClassDef) and top.name == "Runs"
                    (seen if inside and name == "diagrams.py" else found).append(
                        f"{name}:{node.lineno}")
    assert found == [] and seen


def test_huge_ints_get_an_answer_or_a_named_error_across_the_api():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", HUGE_INT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    # a new public callable taking an int must get a case
    assert int_taking_callables() == {name for name in out if "." not in name}
    for name, (outcome, peak) in out.items():
        assert outcome == "answer" or outcome.startswith("lbkit."), (name, outcome)
        assert peak < 4 << 20, (name, peak)
    refused = {name for name, (outcome, _) in out.items() if outcome != "answer"}
    assert refused == {"BraidWord", "CoverData", "Crossing", "cyclic_cover_link",
                       "handle_slide", "BraidWord.power"}  # BraidWord: past MAX_STRANDS
