from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lbkit.diagrams import DiagramError, half_twist_tangle
from lbkit.homology import AbelianGroup, boundary_h1, h1
from lbkit.kirby import (
    KirbyDiagram, TwoHandle,
    build_diagram, double, ensure_attaching, euler_characteristic,
    family_parameters, handle_slide, sphere_square, sphere_tangle,
    standard_sphere,
)

params = st.integers(-5, 5)


class TestBuildDiagram:
    def test_linking_matrix(self):
        d = build_diagram(3, 2)
        assert d.dotted == ("dot",)
        assert [h.id for h in d.two_handles] == ["upper", "lower", "dual"]
        assert d.linking == (
            (0, 2, 2, 0),
            (2, 3, 0, 0),
            (2, 0, 2, 1),
            (0, 0, 1, 0),
        )

    @given(params, params)
    def test_parameters_round_trip(self, p, q):
        assert family_parameters(build_diagram(p, q)) == (p, q)

    @given(params, params)
    def test_attaching_is_normalized_and_consistent(self, p, q):
        d = build_diagram(p, q)
        assert d.attaching is not None
        assert d.attaching.is_normalized()
        by_id = {c.id: c for c in d.attaching.components}
        assert by_id["upper"].kinks == p + 1
        assert by_id["lower"].kinks == q - 1
        assert ensure_attaching(d) is d

    def test_parameters_reject_other_shapes(self):
        with pytest.raises(DiagramError):
            family_parameters(double(build_diagram(0, 0)))
        plain = KirbyDiagram(("d",), (TwoHandle("h", 1, (1,)),),
                             ((0, 1), (1, 1)))
        with pytest.raises(DiagramError):
            family_parameters(plain)

    def test_ensure_attaching_rebuilds_after_a_slide(self):
        slid = handle_slide(build_diagram(1, 5), "lower", "dual", -1)
        assert slid.attaching is None
        back = ensure_attaching(slid)
        assert back.attaching is not None
        assert family_parameters(back) == (1, 3)
        # rebuilt data must satisfy the diagram's own consistency checks
        KirbyDiagram(back.dotted, back.two_handles, back.linking,
                     attaching=back.attaching)


class TestValidation:
    def test_asymmetric_linking_rejected(self):
        with pytest.raises(DiagramError):
            KirbyDiagram(("d",), (TwoHandle("h", 0, (1,)),), ((0, 1), (2, 0)))

    def test_linked_dotted_circles_rejected(self):
        with pytest.raises(DiagramError):
            KirbyDiagram(("a", "b"), (), ((0, 1), (1, 0)))

    def test_diagonal_must_match_framing(self):
        with pytest.raises(DiagramError):
            KirbyDiagram(("d",), (TwoHandle("h", 3, (1,)),), ((0, 1), (1, 4)))

    def test_winding_row_must_match(self):
        with pytest.raises(DiagramError):
            KirbyDiagram(("d",), (TwoHandle("h", 0, (2,)),), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("bad", [3.0, 2.5, True, "3", None])
    def test_framing_and_winding_must_be_ints(self, bad):
        with pytest.raises(DiagramError, match="framing of 'h' must be int"):
            TwoHandle("h", bad, (1,))
        with pytest.raises(DiagramError, match="winding of 'h' must be int"):
            TwoHandle("h", 0, (bad,))
        with pytest.raises(DiagramError, match="winding of 'h' must be int"):
            TwoHandle("h", 0, (0, bad))

    @pytest.mark.parametrize("bad", [7, None, ("h",)])
    def test_ids_must_be_str(self, bad):
        with pytest.raises(DiagramError, match="ids must be str"):
            TwoHandle(bad, 0, (1,))
        with pytest.raises(DiagramError, match="ids must be str"):
            KirbyDiagram((bad,), (), ((0,),))

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_linking_entries_and_counts_must_be_ints(self, bad):
        h = TwoHandle("h", 1, (1,))
        with pytest.raises(DiagramError, match="linking entries must be int"):
            KirbyDiagram(("d",), (h,), ((0, bad), (1, 1)))
        with pytest.raises(DiagramError, match="handle counts must be int"):
            KirbyDiagram(("d",), (h,), ((0, 1), (1, 1)), three_handles=bad)
        with pytest.raises(DiagramError, match="handle counts must be int"):
            KirbyDiagram(("d",), (h,), ((0, 1), (1, 1)), four_handles=bad)

    def test_sequences_become_tuples_without_coercion(self):
        h = TwoHandle("h", 1, [1])
        d = KirbyDiagram(["d"], [h], [[0, 1], [1, 1]])
        assert h.winding == (1,)
        assert d.dotted == ("d",) and d.linking == ((0, 1), (1, 1))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DiagramError):
            KirbyDiagram(("h",), (TwoHandle("h", 0, (0,)),), ((0, 0), (0, 0)))


class TestEulerCharacteristic:
    @given(params, params)
    def test_family_and_double(self, p, q):
        d = build_diagram(p, q)
        assert euler_characteristic(d) == 3
        assert euler_characteristic(double(d)) == 6

    def test_counts_all_handle_types(self):
        d = KirbyDiagram(("a", "b"), (TwoHandle("h", 0, (1, 0)),),
                         ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
                         three_handles=2, four_handles=1)
        assert euler_characteristic(d) == 1 - 2 + 1 - 2 + 1


class TestHandleSlide:
    @given(params, params, st.sampled_from((1, -1)))
    def test_slide_over_dual_shifts_q_by_two(self, p, q, eps):
        slid = handle_slide(build_diagram(p, q), "lower", "dual", eps)
        assert family_parameters(slid) == (p, q + 2 * eps)
        assert slid == replace(build_diagram(p, q + 2 * eps), attaching=None)

    def test_framing_rule(self):
        d = build_diagram(2, 3)
        slid = handle_slide(d, "upper", "lower", 1)
        # f_a + f_b + 2 eps lk(a, b)
        assert slid.handle("upper").framing == 2 + 3 + 0
        assert slid.handle("upper").winding == (4,)

    def test_bad_slides_rejected(self):
        d = build_diagram(0, 0)
        with pytest.raises(DiagramError):
            handle_slide(d, "upper", "upper", 1)
        with pytest.raises(DiagramError):
            handle_slide(d, "dot", "upper", 1)
        with pytest.raises(DiagramError):
            handle_slide(d, "upper", "lower", 2)
        with pytest.raises(DiagramError):
            handle_slide(d, "upper", "missing", 1)

    def test_random_slides_preserve_homology(self, rng):
        d = build_diagram(rng.randint(-5, 5), rng.randint(-5, 5))
        want_h1, want_bd = h1(d), boundary_h1(d)
        ids = [h.id for h in d.two_handles]
        for _ in range(60):
            a, b = rng.sample(ids, 2)
            d = handle_slide(d, a, b, rng.choice((1, -1)))
            assert h1(d) == want_h1
            assert boundary_h1(d) == want_bd

    def test_slides_undo(self):
        d = build_diagram(4, -1)
        there = handle_slide(d, "upper", "lower", 1)
        back = handle_slide(there, "upper", "lower", -1)
        assert back == replace(d, attaching=None)


class TestDouble:
    def test_shape(self):
        d = double(build_diagram(3, 2))
        assert len(d.two_handles) == 6
        assert [h.id for h in d.two_handles[3:]] == \
            ["upper.m", "lower.m", "dual.m"]
        assert d.three_handles == 1 and d.four_handles == 1
        for h in d.two_handles[3:]:
            assert h.framing == 0 and h.winding == (0,)

    def test_linking_block_structure(self):
        base = build_diagram(1, -2)
        d = double(base)
        # base block survives unchanged
        for i in range(4):
            for j in range(4):
                assert d.linking[i][j] == base.linking[i][j]
        # meridian block: identity against parents, zero elsewhere
        for k, parent in enumerate(("upper", "lower", "dual")):
            mer = f"{parent}.m"
            assert d.lk(mer, parent) == 1
            assert d.lk(mer, "dot") == 0
            assert d.lk(mer, mer) == 0
            for other in ("upper", "lower", "dual"):
                if other != parent:
                    assert d.lk(mer, other) == 0
            for other_m in ("upper.m", "lower.m", "dual.m"):
                if other_m != mer:
                    assert d.lk(mer, other_m) == 0

    @given(params, params)
    def test_double_homology(self, p, q):
        assert h1(double(build_diagram(p, q))) == AbelianGroup(0, (2,))


class TestSpheres:
    @given(params, params, st.integers(-6, 6))
    def test_square_is_sum_of_framings(self, p, q, n):
        s = standard_sphere(build_diagram(p, q), n)
        assert s.class_vector == (1, 1, 0)
        assert sphere_square(s) == p + q

    def test_square_in_the_double(self):
        s = standard_sphere(double(build_diagram(2, 3)), 0)
        assert s.class_vector == (1, 1, 0, 0, 0, 0)
        assert sphere_square(s) == 5

    @given(st.integers(-6, 6))
    def test_tangle_is_a_half_twist(self, n):
        s = standard_sphere(build_diagram(0, 0), n)
        assert sphere_tangle(s) == half_twist_tangle(n)

    def test_needs_two_winding_handles(self):
        plain = KirbyDiagram(("d",), (TwoHandle("h", 1, (1,)),),
                             ((0, 1), (1, 1)))
        with pytest.raises(DiagramError):
            standard_sphere(plain, 0)
