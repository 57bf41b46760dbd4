from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lbkit.diagrams import (
    PURPLE, AnnularComponent, AnnularLink, BraidWord, DiagramError,
    half_twist_tangle, normalize_to_writhe,
)
from lbkit.homology import AbelianGroup, boundary_h1, h1
from lbkit.kirby import (
    KirbyDiagram, SphereEmbedding, TwoHandle,
    build_diagram, double, ensure_attaching, euler_characteristic,
    family_parameters, handle_slide, sphere_square, sphere_tangle,
    standard_sphere,
)
from lbkit.serialize import dumps, kirby_to_obj, load_diagram

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

    @pytest.mark.parametrize("p, q", [
        (2.5, 1), (2, True), (2.5, True), ("2", 1), (0, None), (False, 0)])
    def test_parameters_must_be_ints(self, p, q):
        with pytest.raises(DiagramError, match="family parameters must be int"):
            build_diagram(p, q)

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

    @pytest.mark.parametrize("p", [-2 ** 70 - 1, -3, 0, 1, 2 ** 70, 2 ** 71 + 5])
    @pytest.mark.parametrize("q", [-2 ** 71, -1, 0, 2, 2 ** 70 + 3])
    def test_attaching_is_the_normalized_raw_family_link(self, p, q):
        d = build_diagram(p, q)
        raw = AnnularLink(
            BraidWord(4, ((1, -1), (3, 1))),
            (AnnularComponent("upper", frozenset({1, 2}), None, p),
             AnnularComponent("lower", frozenset({3, 4}), None, q)),
            (AnnularComponent("dual", frozenset(), PURPLE, 0),))
        assert d.attaching == normalize_to_writhe(raw)
        assert d.attaching.is_normalized()
        back = ensure_attaching(load_diagram(dumps(kirby_to_obj(d))))
        assert back.attaching == d.attaching

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
    def test_refuses_a_closed_diagram(self):
        once = double(build_diagram(1, 2))
        renamed = KirbyDiagram(  # ids the next meridians would not meet
            once.dotted, tuple(TwoHandle(h.id.replace(".m", "_m"), h.framing, h.winding)
                               for h in once.two_handles),
            once.linking, once.three_handles, once.four_handles)
        for d in (once, renamed, replace(build_diagram(0, 0), four_handles=1)):
            with pytest.raises(DiagramError, match="without 3- or 4-handles"):
                double(d)

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

    def test_twists_and_class_must_be_ints(self):
        d = build_diagram(0, 0)
        for twists, vector in ((2.5, (1, 1, 0)), (True, (1, 1, 0)),
                               (0, (1, 1.0, 0))):
            with pytest.raises(DiagramError,
                               match="twist count and class vector must be int"):
                SphereEmbedding(d, twists, vector)
        with pytest.raises(DiagramError, match="must be int, not float"):
            standard_sphere(d, 2.5)

    def test_needs_two_winding_handles(self):
        plain = KirbyDiagram(("d",), (TwoHandle("h", 1, (1,)),),
                             ((0, 1), (1, 1)))
        with pytest.raises(DiagramError):
            standard_sphere(plain, 0)


# --------------------------------------------------------------------------
# the KirbyDiagram checks against their first version


def reference_kirby_check(dotted, two_handles, linking, three_handles=0,
                          four_handles=0):
    """KirbyDiagram's checks as first written (without attaching data):
    every row re-tupled and type-checked alone, and symmetry checked
    entry by entry.  Returns the stored (dotted, two_handles, linking)."""
    dotted, two_handles = tuple(dotted), tuple(two_handles)
    for x in dotted:
        if not isinstance(x, str):
            raise DiagramError(f"handle ids must be str, not {type(x).__name__}")
    linking = tuple(tuple(row) for row in linking)
    for row in linking:
        for x in row:
            if type(x) is not int:
                raise DiagramError(
                    f"linking entries must be int, not {type(x).__name__}")
    for x in (three_handles, four_handles):
        if type(x) is not int:
            raise DiagramError(f"handle counts must be int, not {type(x).__name__}")
    ids = list(dotted) + [h.id for h in two_handles]
    if len(set(ids)) != len(ids):
        raise DiagramError("handle ids must be unique")
    d, n = len(dotted), len(two_handles)
    for h in two_handles:
        if len(h.winding) != d:
            raise DiagramError(
                f"handle {h.id!r} needs one winding entry per dotted circle")
    m = linking
    if len(m) != d + n or any(len(row) != d + n for row in m):
        raise DiagramError("linking matrix must cover all dotted circles "
                           "and 2-handles")
    for i in range(d + n):
        for j in range(d + n):
            if m[i][j] != m[j][i]:
                raise DiagramError("linking matrix must be symmetric")
    for i in range(d):
        for j in range(d):
            if m[i][j] != 0:
                raise DiagramError("dotted circles must form an unlink")
        for j, h in enumerate(two_handles):
            if m[i][d + j] != h.winding[i]:
                raise DiagramError(
                    f"linking of {h.id!r} with {dotted[i]!r} must "
                    "equal its winding")
    for j, h in enumerate(two_handles):
        if m[d + j][d + j] != h.framing:
            raise DiagramError(
                f"diagonal entry of {h.id!r} must equal its framing")
    if three_handles < 0 or four_handles < 0:
        raise DiagramError("handle counts cannot be negative")
    return dotted, two_handles, linking


def kirby_outcome(build):
    """The stored fields of what ``build`` returns, or the type and message
    of what it raises."""
    try:
        d = build()
    except Exception as err:  # the type is part of the comparison
        return type(err), str(err)
    if isinstance(d, KirbyDiagram):
        return d.dotted, d.two_handles, d.linking
    return d


KIRBY_FAULTS = ("none", "asymmetric", "ragged row", "missing row",
                "non-int entry", "non-int count", "negative count",
                "duplicate id", "non-str dotted id", "winding length",
                "linked dotted circles", "winding mismatch",
                "framing mismatch")
NON_INTS = (1.0, 2.5, True, False, "1", None)


@st.composite
def kirby_cases(draw):
    """(fault, KirbyDiagram fields) of a valid diagram with 0-2 dotted
    circles and 0-3 2-handles, with at most one fault put in; rows and
    fields are sometimes lists, which must become tuples."""
    d, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    ids = draw(st.permutations(("a", "b", "c", "d", "e")))
    dotted = list(ids[:d])
    size = d + n
    m = [[0] * size for _ in range(size)]
    for i in range(d, size):
        for j in range(i, size):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    for i in range(d):
        for j in range(d, size):
            m[i][j] = m[j][i] = draw(st.integers(-2, 2))
    handles = [TwoHandle(ids[d + k], m[d + k][d + k],
                         tuple(m[i][d + k] for i in range(d)))
               for k in range(n)]
    counts = [draw(st.integers(0, 2)), draw(st.integers(0, 2))]
    fault = draw(st.sampled_from(KIRBY_FAULTS))
    i, j = draw(st.integers(0, max(size - 1, 0))), draw(st.integers(0, max(size - 1, 0)))
    if fault == "asymmetric" and size > 1 and i != j:
        m[i][j] += draw(st.sampled_from((1, -1)))
    elif fault == "ragged row" and size:
        if draw(st.booleans()):
            m[i].append(0)
        else:
            m[i].pop()
    elif fault == "missing row" and size:
        del m[i]
    elif fault == "non-int entry" and size:
        m[i][j] = draw(st.sampled_from(NON_INTS))
    elif fault == "non-int count":
        counts[draw(st.integers(0, 1))] = draw(st.sampled_from(NON_INTS))
    elif fault == "negative count":
        counts[draw(st.integers(0, 1))] = -1
    elif fault == "duplicate id" and size:
        name = (dotted + [h.id for h in handles])[i]
        if d and draw(st.booleans()):
            dotted.append(name)
        elif handles:
            handles.append(TwoHandle(name, 0, (0,) * d))
    elif fault == "non-str dotted id" and d:
        dotted[draw(st.integers(0, d - 1))] = draw(st.sampled_from((7, None, ("a",))))
    elif fault == "winding length" and n:
        k = draw(st.integers(0, n - 1))
        handles[k] = TwoHandle(handles[k].id, handles[k].framing,
                               handles[k].winding + (0,))
    elif fault == "linked dotted circles" and d == 2:
        m[0][1] = m[1][0] = 1
    elif fault == "winding mismatch" and d and n:
        k = draw(st.integers(0, n - 1))
        handles[k] = TwoHandle(handles[k].id, handles[k].framing,
                               (handles[k].winding[0] + 1,) + handles[k].winding[1:])
    elif fault == "framing mismatch" and n:
        k = draw(st.integers(0, n - 1))
        handles[k] = TwoHandle(handles[k].id, handles[k].framing + 1,
                               handles[k].winding)
    else:
        fault = "none"
    if draw(st.booleans()):
        dotted, handles, m = tuple(dotted), tuple(handles), tuple(map(tuple, m))
    return fault, (dotted, handles, m, *counts)


class TestKirbyChecksMatchReference:
    @settings(max_examples=500)
    @given(kirby_cases())
    def test_checks_and_stored_fields(self, case):
        fault, parts = case
        expected = kirby_outcome(lambda: reference_kirby_check(*parts))
        assert kirby_outcome(lambda: KirbyDiagram(*parts)) == expected
        if fault == "none":
            assert type(expected[0]) is tuple
