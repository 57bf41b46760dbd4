from collections import Counter
from dataclasses import is_dataclass

import pytest
from hypothesis import given, strategies as st

from lbkit import covers, diagrams, homology, homotopy, kirby, obstruction
from lbkit.homology import AbelianGroup
from lbkit.homotopy import (
    CrossedClass, Cycle, FingerMove, GroupMismatch, HomotopyTrace,
    InvalidTrace, Relation, WhitneyMove,
    classify, concat, connecting_homotopy, crossed_class, cycle_validate,
    empty_trace, lightbulb_check, twist_homotopy,
)
from lbkit.obstruction import NotHomotopic

Z2 = AbelianGroup(0, (2,))
Z4 = AbelianGroup(0, (4,))
Z2Z4 = AbelianGroup(0, (2, 4))


def reference_validate(t):
    """The per-cycle checks: one order computation per crossed cycle."""
    if sum(c.minima for c in t.cycles) != 2 * t.finger_count:
        return False
    if sum(c.maxima for c in t.cycles) != 2 * t.whitney_count:
        return False
    for c in t.cycles:
        if c.crossed:
            order = t.group.order(c.element)
            if order is None or order > 2:
                return False
    return True


def reference_class(t):
    """The per-cycle count: one reduction per crossed cycle."""
    counts = {el: 0 for el in t.group.elements_of_order_two()}
    for c in t.cycles:
        if c.crossed:
            el = t.group.reduce(c.element)
            if el in counts:
                counts[el] += 1
    return CrossedClass(t.group, tuple(sorted(counts.items())))


@st.composite
def z2z4_traces(draw):
    """Traces over Z/2 + Z/4 drawn from a small pool of representatives, so
    elements repeat, some are order 4, and some are unreduced."""
    elements = st.sampled_from(((0, 0), (1, 0), (0, 2), (1, 2), (3, -2),
                                (0, 1), (1, 3), (0, -1), (2, 4)))
    cycles = draw(st.lists(st.builds(Cycle, st.booleans(), elements,
                                     st.integers(0, 2), st.integers(0, 2)),
                           max_size=12))
    # the move counts the extrema ask for, sometimes one finger move off
    off = draw(st.sampled_from((0, 0, 1, -1)))
    fingers = sum(c.minima for c in cycles) // 2 + off
    whitneys = sum(c.maxima for c in cycles) // 2
    moves = ((FingerMove((1, 0)),) * max(fingers, 0)
             + (WhitneyMove((0, 2)),) * whitneys)
    return HomotopyTrace(Z2Z4, moves, tuple(cycles))


def k_fold(k, start=0):
    trace = empty_trace(Z2)
    for n in range(k):
        trace = concat(trace, twist_homotopy(start + 2 * n))
    return trace


class TestTraces:
    def test_twist_homotopy_shape(self):
        t = twist_homotopy(0)
        assert t.group == Z2
        assert (t.finger_count, t.whitney_count) == (1, 1)
        assert t.cycles == (Cycle(True, (1,), 2, 2),)
        assert cycle_validate(t)
        # the trace is the same move pattern wherever it starts
        assert twist_homotopy(-4) == t

    def test_empty_trace(self):
        t = empty_trace(Z2)
        assert t.moves == () and t.cycles == ()
        assert cycle_validate(t)
        assert crossed_class(t).is_zero

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_concat_adds_counts(self, a, b):
        t = concat(k_fold(a), k_fold(b))
        assert t.finger_count == a + b
        assert t.whitney_count == a + b
        assert len(t.cycles) == a + b

    @pytest.mark.parametrize("start", (-7, -2, 0, 3, 10))
    def test_connecting_homotopy_is_the_k_fold(self, start):
        for k in range(9):
            t = connecting_homotopy(start, start + 2 * k)
            assert t == k_fold(k, start), (start, k)
            assert t == connecting_homotopy(start + 2 * k, start)

    def test_connecting_homotopy_needs_even_difference(self):
        msg = ("twist counts 3 and 0 are not homotopic, "
               "no connecting homotopy exists")
        with pytest.raises(NotHomotopic) as err:
            connecting_homotopy(3, 0)
        assert str(err.value) == msg

    def test_concat_rejects_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            concat(empty_trace(Z2), empty_trace(Z4))

    def test_moves_must_be_moves(self):
        with pytest.raises(InvalidTrace):
            HomotopyTrace(Z2, moves=("finger",))

    def test_negative_extrema_rejected(self):
        with pytest.raises(InvalidTrace):
            Cycle(False, (1,), -1, 0)


class TestCycleValidation:
    def test_minima_must_pair_with_finger_moves(self):
        t = HomotopyTrace(Z2, moves=(FingerMove((1,)),),
                          cycles=(Cycle(False, (0,), 1, 0),))
        assert not cycle_validate(t)

    def test_maxima_must_pair_with_whitney_moves(self):
        t = HomotopyTrace(Z2, moves=(WhitneyMove((1,)),),
                          cycles=(Cycle(False, (0,), 0, 4),))
        assert not cycle_validate(t)

    def test_crossed_cycles_need_order_two_elements(self):
        bad = HomotopyTrace(Z4, cycles=(Cycle(True, (1,), 0, 0),))
        assert not cycle_validate(bad)
        good = HomotopyTrace(Z4, cycles=(Cycle(True, (2,), 0, 0),))
        assert cycle_validate(good)

    def test_split_extrema_across_cycles(self):
        t = HomotopyTrace(
            Z2, moves=(FingerMove((1,)), WhitneyMove((1,))),
            cycles=(Cycle(False, (0,), 2, 0), Cycle(False, (0,), 0, 2)))
        assert cycle_validate(t)


class TestPerElementChecks:
    @given(z2z4_traces())
    def test_trace_checks_match_the_per_cycle_reference(self, t):
        assert cycle_validate(t) == reference_validate(t)
        assert crossed_class(t) == reference_class(t)

    @given(z2z4_traces())
    def test_crossed_order_four_elements_fail_validation(self, t):
        if any(c.crossed and Z2Z4.order(c.element) == 4 for c in t.cycles):
            assert not cycle_validate(t)

    def test_repeated_elements_count_once_each(self):
        cycles = (Cycle(True, (1, 2), 0, 0),) * 3 + (
            Cycle(True, (3, -2), 0, 0), Cycle(False, (1, 0), 0, 0),
            Cycle(True, (0, 2), 0, 0))
        t = HomotopyTrace(Z2Z4, cycles=cycles)
        assert cycle_validate(t)
        c = crossed_class(t)
        assert (c.of((1, 2)), c.of((0, 2)), c.of((1, 0))) == (0, 1, 0)
        assert c == reference_class(t)


class TestCrossedClass:
    @given(st.integers(0, 8))
    def test_k_fold_class_is_k_mod_2(self, k):
        c = crossed_class(k_fold(k))
        assert c.of((1,)) == k % 2
        assert c.is_zero == (k % 2 == 0)

    def test_uncrossed_and_trivial_cycles_are_ignored(self):
        t = HomotopyTrace(Z2, cycles=(
            Cycle(False, (1,), 0, 0),   # not crossed
            Cycle(True, (0,), 0, 0),    # crossed on the identity
        ))
        assert crossed_class(t).is_zero

    def test_addition_matches_concatenation(self):
        a, b = k_fold(1), k_fold(2)
        assert crossed_class(a) + crossed_class(b) == \
            crossed_class(concat(a, b))

    def test_key_set_is_enforced(self):
        with pytest.raises(InvalidTrace):
            CrossedClass(Z2, ())
        with pytest.raises(InvalidTrace):
            CrossedClass(Z2, (((0,), 1),))
        with pytest.raises(GroupMismatch):
            CrossedClass(Z2, (((1,), 1),)) + CrossedClass(Z4, (((2,), 0),))

    def test_of_rejects_other_orders(self):
        c = crossed_class(k_fold(1))
        with pytest.raises(InvalidTrace):
            c.of((0,))

    def test_class_over_larger_torsion(self):
        t = HomotopyTrace(Z4, cycles=(Cycle(True, (2,), 0, 0),))
        c = crossed_class(t)
        assert c.of((2,)) == 1
        # reduce folds representatives into the canonical range
        assert c.of((-2,)) == 1


class TestLightbulb:
    @given(st.integers(0, 8))
    def test_true_exactly_for_even_concatenations(self, k):
        assert lightbulb_check(k_fold(k), True, True) == (k % 2 == 0)

    def test_hypotheses_are_required(self):
        t = k_fold(2)
        assert not lightbulb_check(t, False, True)
        assert not lightbulb_check(t, True, False)

    def test_invalid_traces_are_rejected(self):
        broken = HomotopyTrace(Z2, moves=(FingerMove((1,)),))
        with pytest.raises(InvalidTrace):
            lightbulb_check(broken, True, True)


class TestClassifier:
    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_grid_law(self, i, j):
        r = classify(i, j)
        assert r.equivalent
        assert r.homotopic == ((i - j) % 2 == 0)
        assert r.topologically_concordant == ((i - j) % 4 == 0)
        assert r.smoothly_isotopic == r.topologically_concordant

    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_symmetry(self, i, j):
        assert classify(i, j) == classify(j, i)

    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_closed_variant_agrees(self, i, j):
        assert classify(i, j, closed=True) == classify(i, j)

    def test_the_distinguished_pair(self):
        r = classify(0, 2)
        assert (r.equivalent, r.homotopic) == (True, True)
        assert not r.topologically_concordant
        assert not r.smoothly_isotopic
        assert r.evidence["topologically_concordant"] == \
            "boundary-link linking parity 1"
        assert r.evidence["smoothly_isotopic"] == "not concordant"

    def test_the_isotopic_pair(self):
        r = classify(0, 4)
        assert r.smoothly_isotopic
        assert "crossed-cycle class" in r.evidence["smoothly_isotopic"]

    def test_non_homotopic_pair(self):
        r = classify(0, 1)
        assert r.equivalent and not r.homotopic
        assert not r.topologically_concordant and not r.smoothly_isotopic
        assert "wirings differ" in r.evidence["homotopic"]

    def test_unreachable_isotopy_branch_is_an_invariant_error(self,
                                                              monkeypatch):
        # In this family fq of the k-step homotopy is k mod 2, which is
        # also the linking parity, so a concordant pair always gets an
        # isotopy certificate.  Force the criterion to fail to reach the
        # branch where the two disagree.
        monkeypatch.setattr(homotopy, "lightbulb_check",
                            lambda *args, **kwargs: False)
        with pytest.raises(InvalidTrace,
                           match="fq and the linking parity disagree"):
            classify(0, 4)
        with pytest.raises(InvalidTrace):
            classify(3, -1, closed=True)
        # a non-concordant pair never reaches it
        assert classify(0, 2).evidence["smoothly_isotopic"] == \
            "not concordant"

    def test_crossed_class_refuses_non_int_elements(self):
        c = crossed_class(twist_homotopy(0))
        assert c.of((3,)) == 1
        for bad in (1.0, True, "1"):
            with pytest.raises(ValueError, match="coordinates must be int"):
                c.of((bad,))

    def test_moves_cycles_and_classes_refuse_non_ints(self):
        z2 = AbelianGroup(0, (2,))
        for build in (lambda: Cycle(True, ("1",), 2, 2),
                      lambda: CrossedClass(z2, (((1,), 3.7),)),
                      lambda: CrossedClass(z2, (((True,), 1),)),
                      lambda: FingerMove((True,)),
                      lambda: WhitneyMove((1.0,))):
            with pytest.raises(InvalidTrace, match="must be int"):
                build()
        assert FingerMove([1]).element == (1,)
        assert CrossedClass(z2, (([1], 3),)).parities == (((1,), 1),)

    def test_even_pair_builds_at_most_50_dataclass_instances(self,
                                                           monkeypatch):
        """The tangle parts every model slice shares are module constants,
        so an even pair builds few objects (86 before they were)."""
        built = Counter()
        for module in (covers, diagrams, homology, homotopy, kirby,
                       obstruction):
            for cls in list(vars(module).values()):
                if (isinstance(cls, type) and is_dataclass(cls)
                        and cls.__module__ == module.__name__):
                    def counting_init(self, *args, init=cls.__init__,
                                      name=cls.__name__, **kwargs):
                        built[name] += 1
                        init(self, *args, **kwargs)
                    monkeypatch.setattr(cls, "__init__", counting_init)
        r = classify(0, 2)
        assert not r.topologically_concordant
        assert 0 < sum(built.values()) <= 50, built

    def test_relation_chain_is_enforced(self):
        with pytest.raises(ValueError):
            Relation(True, True, False, True)
        with pytest.raises(ValueError):
            Relation(True, False, True, False)
