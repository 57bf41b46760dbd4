import pytest
from hypothesis import given, strategies as st

from lbkit.diagrams import (
    RED, BLUE, BicoloredLink, ColorMismatch, ColoredTangle, Crossing,
    DiagramError, Slot, Strand,
    empty_tangle, half_twist_tangle, reverse_mirror, swap_colors,
)
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


class TestAssembly:
    def test_model_assembles_to_two_components(self):
        link = assemble_link(model_slice(2, 0))
        assert sorted(c.color for c in link.components) == [BLUE, RED]

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

    @given(st.integers(-3, 3), st.integers(0, 2), st.integers(-2, 2))
    def test_symmetric_closed_data_never_moves_the_parity(self, a, lk, w):
        i = 2 * a
        d = ClosedCaseData(model_slice(i, 0), cap_link(lk), cap_link(lk),
                           red_winding_plus=w, red_winding_minus=w)
        assert cap_symmetry_holds(d)
        assert closed_case_linking(d) % 2 == concordance_obstruction(i, 0)
