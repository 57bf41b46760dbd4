import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lbkit
from lbkit.diagrams import (
    RED, BLUE, PURPLE, BicoloredLink, ColorMismatch, ColoredTangle, Crossing,
    DiagramError, LinkComponent, Slot, Strand,
    bicolored_linking, empty_tangle, half_twist_tangle, reverse_mirror,
    swap_colors,
)
from lbkit.homotopy import classify
from lbkit.obstruction import (
    ClosedCaseData, ConcordanceSlice, NotHomotopic,
    assemble_link, cap_link, cap_symmetry_holds, clasped_side,
    closed_case_linking, closed_model_data, closure_of_side,
    concordance_obstruction, model_slice, side_linking,
    side_symmetry_holds, slice_linking, trivial_side,
)


def decorated_slice(i, j, plus=0, minus=0, symmetric=True):
    """Model slice with clasped sides; symmetric means the blue sides
    mirror the red ones, as a deck-symmetric concordance would force."""
    return ConcordanceSlice(
        inner=half_twist_tangle(i, (RED, BLUE)),
        outer=reverse_mirror(half_twist_tangle(j, (RED, BLUE))),
        side_plus_red=clasped_side(RED, plus),
        side_plus_blue=clasped_side(BLUE, plus if symmetric else 0),
        side_minus_red=clasped_side(RED, minus),
        side_minus_blue=clasped_side(BLUE, minus if symmetric else 0),
    )


# Run in a fresh interpreter, with and without -O: the side-decomposition
# check must still raise, and the classifier must give the same verdicts.
OPTIMIZED_PROBE = """
from lbkit import obstruction
from lbkit.diagrams import BLUE, RED, BicoloredLink, Crossing, DiagramError
from lbkit.homotopy import classify

print("debug", __debug__)
real = obstruction.assemble_link
def one_clasp_more(s):
    link = real(s)
    return BicoloredLink(link.components,
                         link.crossings + (Crossing(RED, BLUE, 1),) * 2)
obstruction.assemble_link = one_clasp_more
try:
    obstruction.slice_linking(obstruction.model_slice(2, 0))
    print("side: no error")
except DiagramError as err:
    print("side:", err)
obstruction.assemble_link = real

from lbkit.covers import CoverData, double_cover_diagram
from lbkit.kirby import KirbyDiagram, TwoHandle, build_diagram
cov = double_cover_diagram(build_diagram(2, -1))
same_sheet = ((cov.component_map[0][0], "upper", "b"),) + cov.component_map[1:]
for name, build in [
        ("cover", lambda: CoverData(cov.base, 2, cov.total, same_sheet, cov.deck)),
        ("kirby", lambda: KirbyDiagram(("d",), (TwoHandle("h", 0, (1,)),),
                                       ((0, 1), (2, 0))))]:
    try:
        build()
        print(name + ": no error")
    except DiagramError as err:
        print(name + ":", err)
print(repr(classify(-400, 400)))
print(repr(classify(-400, 400, True)))
"""


def reference_assemble_link(s):
    """The per-crossing merge: one new Crossing per region crossing."""
    regions = [("inner", s.inner), ("outer", s.outer)]
    regions += list(zip(("side+r", "side+b", "side-r", "side-b"), s._sides()))
    present = {arc.color for _, tangle in regions for arc in tangle.arcs}
    components = [LinkComponent(color, color) for color in (RED, BLUE)
                  if color in present]
    rename = {}
    for label, tangle in regions:
        for arc in tangle.arcs:
            rename[(label, arc.id)] = arc.color
        for strand in tangle.closed:
            rename[(label, strand.id)] = f"{label}.{strand.id}"
            components.append(LinkComponent(f"{label}.{strand.id}", strand.color))
    crossings = [Crossing(rename[(label, c.over)], rename[(label, c.under)], c.sign)
                 for label, tangle in regions for c in tangle.crossings]
    return BicoloredLink(tuple(components), tuple(crossings))


class TestSides:
    def test_trivial_side_closure(self):
        t = trivial_side(RED)
        link = closure_of_side(t)
        assert len(link.components) == 1
        assert side_linking(t) == 0

    @given(st.integers(-3, 3))
    def test_clasped_side_linking(self, k):
        assert side_linking(clasped_side(RED, k)) == k
        assert side_linking(clasped_side(BLUE, k)) == k

    def test_same_color_extras_do_not_link(self):
        t = clasped_side(RED, 0, plain_extras=2)
        assert side_linking(t) == 0
        assert len(closure_of_side(t).components) == 4

    def test_closure_needs_one_through_arc(self):
        with pytest.raises(DiagramError):
            closure_of_side(empty_tangle())
        two = ColoredTangle(
            arcs=(Strand("a", RED), Strand("b", RED)),
            top=(Slot("a", 0, "in"), Slot("b", 0, "in")),
            bottom=(Slot("a", 1, "out"), Slot("b", 1, "out")))
        with pytest.raises(DiagramError):
            closure_of_side(two)

    def test_deck_symmetric_sides_satisfy_the_symmetry_check(self):
        s = decorated_slice(2, 0, plus=3, minus=-1)
        assert side_symmetry_holds(s)
        assert not side_symmetry_holds(decorated_slice(2, 0, plus=1,
                                                       symmetric=False))
        assert side_symmetry_holds(model_slice(0, 0))

    def test_blue_side_as_color_swap_of_red(self):
        red = clasped_side(RED, 2)
        blue = swap_colors(red)
        assert side_linking(blue) == side_linking(red)


class TestSliceValidation:
    def test_side_arc_color_enforced(self):
        with pytest.raises(ColorMismatch):
            ConcordanceSlice(
                inner=half_twist_tangle(0, (RED, BLUE)),
                outer=reverse_mirror(half_twist_tangle(0, (RED, BLUE))),
                side_plus_red=trivial_side(BLUE),
                side_plus_blue=trivial_side(BLUE),
                side_minus_red=trivial_side(RED),
                side_minus_blue=trivial_side(BLUE))

    def test_sides_must_match_core_arcs(self):
        with pytest.raises(ColorMismatch):
            ConcordanceSlice(
                inner=empty_tangle(), outer=empty_tangle(),
                side_plus_red=trivial_side(RED),
                side_plus_blue=trivial_side(BLUE),
                side_minus_red=trivial_side(RED),
                side_minus_blue=trivial_side(BLUE))

    def test_at_most_one_through_arc(self):
        fat = ColoredTangle(
            arcs=(Strand("a", RED), Strand("c", RED)),
            top=(Slot("a", 0, "in"), Slot("c", 0, "in")),
            bottom=(Slot("a", 1, "out"), Slot("c", 1, "out")))
        with pytest.raises(ColorMismatch):
            ConcordanceSlice(
                inner=half_twist_tangle(0, (RED, BLUE)),
                outer=reverse_mirror(half_twist_tangle(0, (RED, BLUE))),
                side_plus_red=fat,
                side_plus_blue=trivial_side(BLUE),
                side_minus_red=trivial_side(RED),
                side_minus_blue=trivial_side(BLUE))

    def test_empty_slice_is_allowed(self):
        s = ConcordanceSlice(empty_tangle(), empty_tangle(),
                             empty_tangle(), empty_tangle(),
                             empty_tangle(), empty_tangle())
        assert assemble_link(s) == BicoloredLink()
        assert slice_linking(s) == 0


def reference_slice_check(inner, outer, *sides):
    """The ConcordanceSlice checks as first written, in the side order
    plus red, plus blue, minus red, minus blue; the validator must accept
    and reject as this does."""
    names = ("side_plus_red", "side_plus_blue",
             "side_minus_red", "side_minus_blue")
    colors = (RED, BLUE, RED, BLUE)
    for name, color, side in zip(names, colors, sides):
        if len(side.arcs) > 1:
            raise ColorMismatch(f"{name} must have at most one through-arc")
        if side.arcs and side.arcs[0].color != color:
            raise ColorMismatch(f"{name} through-arc must be colored {color}")
    for tangle, which in ((inner, "inner"), (outer, "outer")):
        for arc in tangle.arcs:
            if arc.color not in (RED, BLUE):
                raise ColorMismatch(
                    f"{which} arcs must be red or blue, got {arc.color!r}")
    for color in (RED, BLUE):
        present = any(s.arcs and s.arcs[0].color == color
                      for s, c in zip(sides, colors) if c == color)
        for tangle, which in ((inner, "inner"), (outer, "outer")):
            arcs = [a for a in tangle.arcs if a.color == color]
            if len(arcs) > 1:
                raise ColorMismatch(f"expected at most one {color} arc")
            if bool(arcs) != present:
                raise ColorMismatch(
                    f"{which} tangle must have a {color} arc exactly when "
                    "the matching sides do")
        if any(bool(s.arcs) != present
               for s, c in zip(sides, colors) if c == color):
            raise ColorMismatch(
                f"the two {color} sides must both be present or absent")


def _one_arc(color):
    return ColoredTangle(arcs=(Strand("x", color),),
                         top=(Slot("x", 0, "in"),), bottom=(Slot("x", 1, "out"),))


CORE_POOL = [empty_tangle(), half_twist_tangle(2, (RED, BLUE)),
             reverse_mirror(half_twist_tangle(-3, (RED, BLUE))),
             half_twist_tangle(1, (BLUE, RED)), half_twist_tangle(0, (RED, RED)),
             half_twist_tangle(1, (RED, None)),
             half_twist_tangle(2, (PURPLE, BLUE)),
             _one_arc(RED), _one_arc(BLUE), clasped_side(BLUE, 1)]
RED_SIDES = [trivial_side(RED), clasped_side(RED, 2, 1), empty_tangle()]
BLUE_SIDES = [trivial_side(BLUE), clasped_side(BLUE, -1), empty_tangle()]
ANY_SIDE = (RED_SIDES + BLUE_SIDES
            + [trivial_side(PURPLE), half_twist_tangle(1, (RED, BLUE)),
               ColoredTangle(closed=(Strand("u", BLUE),))])


def _outcome(build):
    try:
        build()
    except ColorMismatch as err:
        return str(err)
    return None


class TestSliceValidatorMatchesReference:
    @settings(max_examples=400)
    @given(st.one_of(
        st.tuples(*[st.sampled_from(CORE_POOL)] * 2,
                  *[st.sampled_from(ANY_SIDE)] * 4),
        st.tuples(*[st.sampled_from(CORE_POOL[:3] + CORE_POOL[7:9])] * 2,
                  st.sampled_from(RED_SIDES), st.sampled_from(BLUE_SIDES),
                  st.sampled_from(RED_SIDES), st.sampled_from(BLUE_SIDES))))
    def test_slice_checks(self, parts):
        assert _outcome(lambda: ConcordanceSlice(*parts)) == \
            _outcome(lambda: reference_slice_check(*parts))

    def test_both_outcomes_occur(self):
        model = model_slice(0, 2)
        parts = (model.inner, model.outer, *model._sides())
        assert _outcome(lambda: reference_slice_check(*parts)) is None
        assert _outcome(lambda: ConcordanceSlice(*parts)) is None
        bad = parts[:2] + (trivial_side(BLUE),) + parts[3:]
        assert _outcome(lambda: ConcordanceSlice(*bad)) == \
            _outcome(lambda: reference_slice_check(*bad)) is not None


class TestAssembly:
    def test_model_assembles_to_two_components(self):
        link = assemble_link(model_slice(2, 0))
        assert sorted(c.color for c in link.components) == [BLUE, RED]

    @given(st.integers(-9, 9), st.integers(-4, 4),
           st.sampled_from((-3, -1, 1, 2)), st.sampled_from((-2, 1, 3)),
           st.booleans())
    def test_assembly_matches_the_per_crossing_reference(self, i, k, plus,
                                                         minus, symmetric):
        s = decorated_slice(i, i + 2 * k, plus, minus, symmetric)
        link = assemble_link(s)
        assert link == reference_assemble_link(s)
        assert bicolored_linking(link) == \
            bicolored_linking(reference_assemble_link(s))

    def test_model_assembly_shares_one_crossing_per_kind(self):
        link = assemble_link(model_slice(-9, 9))
        assert len(link.crossings) == 18
        assert len({id(c) for c in link.crossings}) == 4

    def test_closed_decorations_come_along(self):
        link = assemble_link(decorated_slice(0, 0, plus=1))
        assert len(link.components) == 2 + 4

    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_model_linking_is_half_the_twist_difference(self, a, b):
        i, j = 2 * a, 2 * b
        assert slice_linking(model_slice(i, j)) == (i - j) // 2

    def test_decorated_linking_adds_side_terms(self):
        # core 1 plus side closures 1 + 1 + 0 + 0
        s = decorated_slice(2, 0, plus=1)
        assert slice_linking(s) == 3

    def test_decomposition_mismatch_is_a_diagram_error(self, monkeypatch):
        def one_clasp_more(s):
            # two same-sign red-blue crossings: linking moves by one
            link = assemble_link(s)
            extra = (Crossing(RED, BLUE, 1),) * 2
            return BicoloredLink(link.components, link.crossings + extra)

        monkeypatch.setattr("lbkit.obstruction.assemble_link", one_clasp_more)
        with pytest.raises(DiagramError, match="side decomposition"):
            slice_linking(model_slice(2, 0))

    def test_checks_and_verdicts_survive_python_O(self):
        # -O strips assert statements; the library's checks must not be one
        src = os.path.dirname(os.path.dirname(lbkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-c", OPTIMIZED_PROBE],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.splitlines())
        plain, optimized = outs
        assert (plain[0], optimized[0]) == ("debug True", "debug False")
        assert optimized[1] == ("side: side decomposition disagrees with "
                                "the assembled link")
        assert optimized[2:4] == [
            "cover: deck map must exchange the sheet labels",
            "kirby: linking matrix must be symmetric"]
        assert optimized[1:] == plain[1:]
        assert optimized[4:] == [repr(classify(-400, 400)),
                                 repr(classify(-400, 400, True))]


class TestClosedCase:
    def test_model_data_degenerates_to_the_slice_value(self):
        s = model_slice(4, 0)
        d = closed_model_data(s)
        assert cap_symmetry_holds(d)
        assert closed_case_linking(d) == slice_linking(s) == 2

    def test_symmetric_caps_and_windings(self):
        s = model_slice(2, 0)
        d = ClosedCaseData(s, cap_link(2), cap_link(2),
                           red_winding_plus=1, red_winding_minus=1)
        assert cap_symmetry_holds(d)
        # 1 core + (1+1+0+0) windings + 2 + 2 cap linkings
        assert closed_case_linking(d) == 7

    def test_asymmetric_sides_still_sum(self):
        s = decorated_slice(2, 0, plus=1, minus=1, symmetric=False)
        d = ClosedCaseData(s, BicoloredLink(), BicoloredLink(),
                           red_winding_plus=1, red_winding_minus=1,
                           blue_winding_plus=1, blue_winding_minus=1)
        assert closed_case_linking(d) == 7

    def test_cap_symmetry_violations(self):
        s = model_slice(0, 0)
        assert not cap_symmetry_holds(
            ClosedCaseData(s, cap_link(1), cap_link(2)))
        assert not cap_symmetry_holds(
            ClosedCaseData(s, cap_link(1), cap_link(1), red_winding_plus=1))
        assert not cap_symmetry_holds(
            ClosedCaseData(s, cap_link(1), cap_link(1), blue_winding_minus=2))


class TestObstruction:
    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_parity_law_both_variants(self, i, j):
        if (i - j) % 2:
            with pytest.raises(NotHomotopic):
                concordance_obstruction(i, j)
            return
        want = ((i - j) // 2) % 2
        assert concordance_obstruction(i, j) == want
        assert concordance_obstruction(i, j, closed=True) == want

    def test_theorem_values(self):
        assert concordance_obstruction(0, 2) == 1
        assert concordance_obstruction(0, 4) == 0
        assert concordance_obstruction(1, 3) == 1
        assert concordance_obstruction(0, 2, closed=True) == 1

    def test_error_message_names_the_counts(self):
        with pytest.raises(NotHomotopic, match="not homotopic"):
            concordance_obstruction(0, 3)

    @given(st.integers(-4, 4), st.integers(-4, 4),
           st.integers(-2, 2), st.integers(-2, 2))
    def test_symmetric_decorations_never_move_the_parity(self, a, b, u, v):
        i, j = 2 * a, 2 * b
        s = decorated_slice(i, j, plus=u, minus=v)
        assert slice_linking(s) % 2 == concordance_obstruction(i, j)

    def test_decorated_parity_audit(self, rng):
        """Every core with j in [-10, 10] and |i - j| <= 6, obstructed
        (i - j = 2 mod 4) and not (i - j = 0 mod 4), under random
        deck-symmetric decorations with clasps, cap linkings and windings
        in [-3, 3]: the open and the closed linking parities both equal
        the obstruction."""
        for b in range(-5, 6):
            for k in range(-3, 4):
                i, j = 2 * (b + k), 2 * b
                want = concordance_obstruction(i, j)
                assert want == k % 2
                for _ in range(26):
                    s = decorated_slice(i, j, plus=rng.randint(-3, 3),
                                        minus=rng.randint(-3, 3))
                    assert side_symmetry_holds(s)
                    assert slice_linking(s) % 2 == want
                    lk, wr, wb = (rng.randint(-3, 3) for _ in range(3))
                    d = ClosedCaseData(
                        s, cap_link(lk), cap_link(lk),
                        red_winding_plus=wr, red_winding_minus=wr,
                        blue_winding_plus=wb, blue_winding_minus=wb)
                    assert cap_symmetry_holds(d)
                    assert closed_case_linking(d) % 2 == want

    @given(st.integers(-3, 3), st.integers(0, 2), st.integers(-2, 2))
    def test_symmetric_closed_data_never_moves_the_parity(self, a, lk, w):
        i = 2 * a
        d = ClosedCaseData(model_slice(i, 0), cap_link(lk), cap_link(lk),
                           red_winding_plus=w, red_winding_minus=w)
        assert cap_symmetry_holds(d)
        assert closed_case_linking(d) % 2 == concordance_obstruction(i, 0)
