from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lbkit.diagrams import (
    RED, BLUE, PURPLE,
    DiagramError, ColorMismatch, BadSite,
    BraidWord, AnnularComponent, AnnularLink,
    Strand, Crossing, Slot, ColoredTangle, LinkComponent, BicoloredLink,
    components_and_windings, braid_closure, braid_closure_link,
    normalize_to_writhe, half_twist_tangle, empty_tangle, reverse_mirror,
    close_tangle, stack_tangles, bicolored_linking, mirror_image,
    swap_colors, reidemeister,
)
from lbkit.covers import cyclic_cover_link
from lbkit.obstruction import clasped_side

from strategies import annular_links, braid_words


FAMILY_WORD = BraidWord(4, ((1, -1), (3, 1)))


def reference_half_twist_tangle(n, colors=(None, None)):
    """The per-crossing construction: one new Crossing per half twist."""
    ca, cb = colors
    crossings = []
    for t in range(abs(n)):
        left, right = ("a", "b") if t % 2 == 0 else ("b", "a")
        if n > 0:
            crossings.append(Crossing(left, right, 1))
        else:
            crossings.append(Crossing(right, left, -1))
    top = (Slot("a", 0, "in"), Slot("b", 0, "in"))
    if n % 2 == 0:
        bottom = (Slot("a", 1, "out"), Slot("b", 1, "out"))
    else:
        bottom = (Slot("b", 1, "out"), Slot("a", 1, "out"))
    return ColoredTangle((Strand("a", ca), Strand("b", cb)), (),
                         tuple(crossings), top, bottom)


def reference_reverse_mirror(t):
    """The per-crossing construction: one new Crossing per crossing."""
    crossings = tuple(Crossing(c.under, c.over, -c.sign) for c in t.crossings)
    flip = {"in": "out", "out": "in"}
    top = tuple(Slot(s.arc, s.end, flip[s.orientation]) for s in t.top)
    bottom = tuple(Slot(s.arc, s.end, flip[s.orientation]) for s in t.bottom)
    return ColoredTangle(t.arcs, t.closed, crossings, top, bottom)


def reference_word_self_writhe(link, cid):
    """The per-letter count: letters with both strands on the component."""
    strands = link.component(cid).strands
    return sum(sign for a, b, sign in link.word.letter_strands()
               if a in strands and b in strands)


def reference_mixed_linking(link, cid, other):
    """The per-letter count: half the letters joining the two components."""
    c1 = link.component(cid).strands
    c2 = link.component(other).strands
    total = sum(sign for a, b, sign in link.word.letter_strands()
                if (a in c1 and b in c2) or (a in c2 and b in c1))
    assert total % 2 == 0
    return total // 2


def reference_word_writhe(letter_strands, strand_set):
    """The per-lift count of the cover: letters with both strands in the set."""
    return sum(sign for a, b, sign in letter_strands
               if a in strand_set and b in strand_set)


@st.composite
def annular_links_with_split(draw):
    """``annular_links()``, some of them with a normalized split unknot."""
    link = draw(annular_links())
    if draw(st.booleans()):
        framing = draw(st.integers(-3, 3))
        unknot = AnnularComponent("s", frozenset(), PURPLE, framing,
                                  draw(st.sampled_from((1, -1))), framing)
        link = replace(link, split=(unknot,))
    return link


def compose(perm, other):
    return tuple(perm[other[i] - 1] for i in range(len(perm)))


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(DiagramError):
            BraidWord(0, ())
        with pytest.raises(DiagramError):
            BraidWord(2, ((2, 1),))
        with pytest.raises(DiagramError):
            BraidWord(2, ((0, 1),))
        with pytest.raises(DiagramError):
            BraidWord(2, ((1, 2),))

    @pytest.mark.parametrize("bad", [1.0, 2.5, True, "1", None])
    def test_strands_and_letters_must_be_ints(self, bad):
        with pytest.raises(DiagramError, match="braid strands must be int"):
            BraidWord(bad, ())
        with pytest.raises(DiagramError, match="braid letters must be int"):
            BraidWord(3, ((1, 1), (bad, 1)))
        with pytest.raises(DiagramError, match="braid letters must be int"):
            BraidWord(3, ((1, bad),))

    def test_no_letter_is_coerced(self):
        with pytest.raises(DiagramError, match="must be int, not float"):
            BraidWord(3, ((1.0, True),))
        # equal to an earlier letter, so only the type tells them apart
        with pytest.raises(DiagramError, match="must be int, not bool"):
            BraidWord(3, ((1, 1), (1, True)))
        with pytest.raises(DiagramError, match="must be int, not float"):
            BraidWord(3, ((2, -1), (2.0, -1)))

    def test_letters_must_be_pairs(self):
        with pytest.raises(DiagramError, match="pairs"):
            BraidWord(3, ((1, 1, 1),))
        with pytest.raises(DiagramError, match="pairs"):
            BraidWord(3, ((1, 1), (2,)))

    def test_first_bad_letter_is_named(self):
        with pytest.raises(DiagramError, match="position 5 out of range"):
            BraidWord(3, ((1, 1), (5, 1), (1, 1), (7, 1)))
        with pytest.raises(DiagramError, match=r"sign must be \+-1, got 3"):
            BraidWord(3, ((2, 3), (1, 2)))

    def test_letter_sequences_become_tuples(self):
        w = BraidWord(3, [[1, 1], [2, -1]])
        assert w.letters == ((1, 1), (2, -1))
        assert all(type(letter) is tuple for letter in w.letters)

    def test_permutation_of_family_word(self):
        assert FAMILY_WORD.permutation() == (2, 1, 4, 3)

    @given(braid_words(), st.integers(1, 4))
    def test_power_multiplies_letters_and_permutation(self, w, m):
        p = w.power(m)
        assert p.strands == w.strands
        assert p.letters == w.letters * m
        perm = tuple(range(1, w.strands + 1))
        for _ in range(m):
            perm = compose(w.permutation(), perm)
        assert p.permutation() == perm

    @given(braid_words())
    def test_cycles_partition_strands(self, w):
        seen = sorted(s for c in w.cycles() for s in c)
        assert seen == list(range(1, w.strands + 1))

    @given(braid_words())
    def test_windings_are_cycle_lengths(self, w):
        cw = components_and_windings(w)
        assert {c: n for c, n in cw} == {c: len(c) for c in w.cycles()}


class TestAnnularComponent:
    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_strands_must_be_ints(self, bad):
        with pytest.raises(DiagramError, match="strands of 'a' must be int"):
            AnnularComponent("a", [bad, 2])
        # a value equal to a strand already present is still refused
        with pytest.raises(DiagramError, match="strands of 'a' must be int"):
            AnnularComponent("a", (1, 2, bad))

    @pytest.mark.parametrize("field, bad", [
        ("framing", 1.0), ("framing", True), ("orientation", 1.0),
        ("orientation", True), ("kinks", True), ("kinks", "0")])
    def test_framing_orientation_and_kinks_must_be_ints(self, field, bad):
        with pytest.raises(DiagramError,
                           match="orientation and kinks of 'a' must be int"):
            AnnularComponent("a", (1,), **{field: bad})

    def test_strands_become_a_frozenset(self):
        for strands in ([2, 1], (1, 2), iter((2, 1)), frozenset({1, 2})):
            comp = AnnularComponent("a", strands)
            assert comp.strands == frozenset({1, 2})
            assert type(comp.strands) is frozenset


class TestScalarTypes:
    """Ids are exact str and signs, ends and orientations exact ints."""

    @pytest.mark.parametrize("bad", [7, ["a"], None])
    def test_ids_must_be_str(self, bad):
        with pytest.raises(DiagramError, match="component ids must be str"):
            AnnularComponent(bad, (1,))
        with pytest.raises(DiagramError, match="component ids must be str"):
            LinkComponent(bad)
        with pytest.raises(DiagramError, match="strand ids must be str"):
            Strand(bad)
        with pytest.raises(DiagramError, match="crossing strands must be str"):
            Crossing("a", bad, 1)
        with pytest.raises(DiagramError, match="slot arcs must be str"):
            Slot(bad, 0, "in")

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_signs_ends_and_orientations_must_be_ints(self, bad):
        with pytest.raises(DiagramError, match="crossing sign must be int"):
            Crossing("a", "b", bad)
        with pytest.raises(DiagramError, match="arc ends must be int"):
            Slot("a", bad, "in")
        with pytest.raises(DiagramError, match="orientation must be int"):
            LinkComponent("a", None, bad)


class TestAnnularClosure:
    def test_family_word_closure(self):
        link = braid_closure(FAMILY_WORD, ids=["u", "l"],
                             colors=[RED, BLUE], framings=[3, 2])
        by_id = {c.id: c for c in link.components}
        assert by_id["u"].strands == frozenset({1, 2})
        assert by_id["l"].strands == frozenset({3, 4})
        assert by_id["u"].color == RED and by_id["l"].color == BLUE
        assert (by_id["u"].framing, by_id["l"].framing) == (3, 2)

    def test_wrong_argument_lengths_rejected(self):
        with pytest.raises(DiagramError):
            braid_closure(FAMILY_WORD, ids=["only-one"])
        with pytest.raises(DiagramError):
            braid_closure(FAMILY_WORD, framings=[1, 2, 3])

    @given(braid_words())
    def test_normalize_realizes_framings_by_kinks(self, w):
        ncomp = len(w.cycles())
        link = braid_closure(w, framings=list(range(ncomp)))
        n = normalize_to_writhe(link)
        assert n.is_normalized()
        for before, after in zip(link.components, n.components):
            assert after.framing == before.framing
            assert after.kinks == before.framing - link.word_self_writhe(before.id)
        # idempotent
        assert normalize_to_writhe(n) == n

    def test_mixed_linking_of_family_word_vanishes(self):
        link = braid_closure(FAMILY_WORD, ids=["u", "l"])
        assert link.mixed_linking("u", "l") == 0

    def test_split_components_do_not_link_the_braid(self):
        link = braid_closure(BraidWord(2, ((1, 1),)), ids=["c"], colors=[RED])
        with_split = AnnularLink(
            word=link.word, components=link.components,
            split=(AnnularComponent("s", frozenset(), BLUE, framing=1),))
        assert with_split.mixed_linking("c", "s") == 0
        assert [c.id for c in with_split.all_components()] == ["c", "s"]


class TestLetterTable:
    @given(annular_links_with_split(), st.integers(1, 4))
    def test_counts_match_the_per_letter_references(self, link, m):
        ids = [c.id for c in link.all_components()]
        for cid in ids:
            self_sum = reference_word_self_writhe(link, cid)
            assert link.word_self_writhe(cid) == self_sum
            assert link.writhe(cid) == self_sum + link.component(cid).kinks
            for other in ids:
                if other != cid:
                    assert link.mixed_linking(cid, other) == \
                        reference_mixed_linking(link, cid, other)
        assert link.is_normalized()
        for k, comp in enumerate(link.all_components()):
            comps = list(link.all_components())
            comps[k] = replace(comp, framing=comp.framing + 1)
            shifted = replace(link, components=tuple(comps[:len(link.components)]),
                              split=tuple(comps[len(link.components):]))
            assert not shifted.is_normalized()
            again = normalize_to_writhe(shifted)
            for before, after in zip(shifted.all_components(),
                                     again.all_components()):
                assert after.kinks == before.framing - \
                    reference_word_self_writhe(shifted, before.id)
        cov = cyclic_cover_link(link, m)
        letters = cov.total.word.letter_strands()
        for comp in cov.total.all_components():
            assert comp.framing == \
                reference_word_writhe(letters, comp.strands) + comp.kinks

    def test_unknown_and_equal_ids_are_rejected(self):
        link = braid_closure(FAMILY_WORD, ids=["u", "l"])
        for call in (lambda: link.word_self_writhe("x"),
                     lambda: link.writhe("x"),
                     lambda: link.mixed_linking("u", "x"),
                     lambda: link.mixed_linking("x", "u"),
                     lambda: link.mixed_linking("u", "u")):
            with pytest.raises(DiagramError):
                call()


class TestHalfTwistTangle:
    @given(st.integers(-8, 8))
    def test_crossing_count_and_reverse_mirror(self, n):
        t = half_twist_tangle(n, (RED, BLUE))
        assert len(t.crossings) == abs(n)
        assert all(c.sign == (1 if n > 0 else -1) for c in t.crossings)
        assert reverse_mirror(t).crossings == \
            half_twist_tangle(-n, (RED, BLUE)).crossings

    @given(st.integers(-8, 8))
    def test_reverse_mirror_is_an_involution(self, n):
        t = half_twist_tangle(n, (RED, BLUE))
        assert reverse_mirror(reverse_mirror(t)) == t

    def test_zero_twists_is_crossingless(self):
        t = half_twist_tangle(0, (RED, BLUE))
        assert t.crossings == ()
        assert len(t.arcs) == 2

    @given(st.integers(-4, 4))
    def test_even_closure_links_half_the_crossings(self, k):
        t = half_twist_tangle(2 * k, (RED, BLUE))
        assert bicolored_linking(close_tangle(t)) == k

    @given(st.integers(-4, 4))
    def test_odd_closure_is_a_color_mismatch(self, k):
        # an odd twist swaps the strand ends, so like colors never meet
        with pytest.raises(ColorMismatch):
            close_tangle(half_twist_tangle(2 * k + 1, (RED, BLUE)))

    def test_empty_tangle_is_empty(self):
        assert empty_tangle() == ColoredTangle()

    @pytest.mark.parametrize("colors", ((None, None), (RED, BLUE)))
    def test_shared_crossings_match_the_per_crossing_reference(self, colors):
        for n in range(-9, 10):
            t = half_twist_tangle(n, colors)
            assert t == reference_half_twist_tangle(n, colors), n
            assert len({id(c) for c in t.crossings}) == min(abs(n), 2)
            mirrored = reverse_mirror(t)
            assert mirrored == reference_reverse_mirror(t), n
            assert len({id(c) for c in mirrored.crossings}) == min(abs(n), 2)
            assert mirror_image(t).crossings == mirrored.crossings

    @pytest.mark.parametrize("clasps", (-3, -1, 2))
    def test_reverse_mirror_of_clasped_regions_matches_the_reference(self, clasps):
        # clasped sides hold equal but separate crossing instances; mixing
        # them with a shared twist pair gives several distinct instances
        for t in (clasped_side(RED, clasps, plain_extras=1),
                  clasped_side(BLUE, clasps)):
            assert reverse_mirror(t) == reference_reverse_mirror(t)
        twist = half_twist_tangle(5, (RED, BLUE))
        mixed = replace(twist, crossings=twist.crossings
                        + (Crossing("b", "a", 1), Crossing("a", "b", -1))
                        + twist.crossings[:3])
        assert reverse_mirror(mixed) == reference_reverse_mirror(mixed)


class TestStacking:
    def test_stack_adds_crossings_and_linking(self):
        a = half_twist_tangle(2, (RED, BLUE))
        b = half_twist_tangle(4, (RED, BLUE))
        s = stack_tangles(a, b)
        assert len(s.crossings) == 6
        assert bicolored_linking(close_tangle(s)) == 3

    def test_stack_rejects_color_mismatch(self):
        a = half_twist_tangle(1, (RED, BLUE))
        b = half_twist_tangle(1, (RED, BLUE))
        # after one half twist the colors arrive swapped
        with pytest.raises(ColorMismatch):
            stack_tangles(a, b)
        # a compensating twist fixes it
        stack_tangles(a, half_twist_tangle(1, (BLUE, RED)))


class TestLinkOperations:
    def hopf_like(self):
        return braid_closure_link(BraidWord(2, ((1, 1), (1, 1))),
                                  colors=[RED, BLUE])

    def test_bicolored_linking_of_clasp(self):
        assert bicolored_linking(self.hopf_like()) == 1

    def test_linking_ignores_single_color_crossings(self):
        link = BicoloredLink(
            components=(LinkComponent("a", RED), LinkComponent("b", BLUE)),
            crossings=(Crossing("a", "a", 1), Crossing("a", "b", 1),
                       Crossing("b", "a", 1), Crossing("b", "b", -1)))
        assert bicolored_linking(link) == 1

    def test_linking_requires_two_colors(self):
        link = BicoloredLink(components=(LinkComponent("a", PURPLE),))
        with pytest.raises(DiagramError):
            bicolored_linking(link)

    def test_mirror_image_negates_linking(self):
        link = self.hopf_like()
        m = mirror_image(link)
        assert all(c.sign == -d.sign for c, d in zip(m.crossings, link.crossings))
        assert bicolored_linking(m) == -1
        assert mirror_image(m) == link

    def test_swap_colors_preserves_linking(self):
        link = self.hopf_like()
        s = swap_colors(link)
        assert {c.color for c in s.components} == {RED, BLUE}
        assert bicolored_linking(s) == bicolored_linking(link)
        assert swap_colors(s) == link

    def test_swap_colors_on_tangle_leaves_other_colors(self):
        t = ColoredTangle(closed=(Strand("x", PURPLE), Strand("y", RED)))
        s = swap_colors(t)
        assert [c.color for c in s.closed] == [PURPLE, BLUE]


class TestReidemeister:
    def three_strand_link(self):
        comps = (LinkComponent("a", RED), LinkComponent("b", BLUE),
                 LinkComponent("c", BLUE))
        crossings = (Crossing("a", "b", 1), Crossing("a", "c", 1),
                     Crossing("b", "c", -1))
        return BicoloredLink(components=comps, crossings=crossings)

    def test_r1_adds_a_kink(self):
        link = self.three_strand_link()
        out = reidemeister(link, "R1", ("a", -1))
        assert len(out.crossings) == 4
        assert out.crossings[-1] == Crossing("a", "a", -1)
        assert bicolored_linking(out) == bicolored_linking(link)

    def test_r2_adds_a_cancelling_clasp(self):
        link = self.three_strand_link()
        out = reidemeister(link, "R2", ("a", "b", 1))
        assert len(out.crossings) == 5
        assert sum(c.sign for c in out.crossings[-2:]) == 0
        assert bicolored_linking(out) == bicolored_linking(link)

    def test_r3_permutes_the_trio(self):
        link = self.three_strand_link()
        out = reidemeister(link, "R3", (0, 1, 2))
        assert sorted(out.crossings, key=repr) == \
            sorted(link.crossings, key=repr)
        assert out.crossings != link.crossings
        assert bicolored_linking(out) == bicolored_linking(link)

    def test_bad_sites(self):
        link = self.three_strand_link()
        with pytest.raises(BadSite):
            reidemeister(link, "R1", ("nope", 1))
        with pytest.raises(BadSite):
            reidemeister(link, "R1", ("a", 2))
        with pytest.raises(BadSite):
            reidemeister(link, "R2", ("a", "nope", 1))
        with pytest.raises(BadSite):
            reidemeister(link, "R3", (0, 0, 1))
        with pytest.raises(BadSite):
            reidemeister(link, "R3", (0, 1, 99))
        kinked = reidemeister(link, "R1", ("a", 1))
        with pytest.raises(BadSite):
            reidemeister(kinked, "R3", (0, 1, 3))

    def test_unknown_move_rejected(self):
        with pytest.raises(DiagramError):
            reidemeister(self.three_strand_link(), "r4", (0,))

    def test_random_move_sequences_preserve_linking(self, rng):
        link = self.three_strand_link()
        target = bicolored_linking(link)
        ids = [c.id for c in link.components]
        for _ in range(200):
            move = rng.choice(("R1", "R2", "R3"))
            if move == "R1":
                link = reidemeister(link, "R1",
                                    (rng.choice(ids), rng.choice((1, -1))))
            elif move == "R2":
                a, b = rng.sample(ids, 2)
                link = reidemeister(link, "R2", (a, b, rng.choice((1, -1))))
            else:
                n = len(link.crossings)
                site = tuple(rng.sample(range(n), 3))
                try:
                    link = reidemeister(link, "R3", site)
                except BadSite:
                    continue
            assert bicolored_linking(link) == target


# --------------------------------------------------------------------------
# the tangle and link validators against their first versions


def reference_tangle_check(arcs, closed, crossings, top, bottom):
    """The ColoredTangle checks as first written, one temporary list or
    set per check; the validator must accept and reject as this does."""
    ids = [s.id for s in arcs + closed]
    if len(set(ids)) != len(ids):
        raise DiagramError("strand ids must be unique")
    known = set(ids)
    arc_ids = {s.id for s in arcs}
    for c in crossings:
        if c.over not in known or c.under not in known:
            raise DiagramError("crossing references unknown strand")
    ends = [(slot.arc, slot.end) for slot in top + bottom]
    if len(set(ends)) != len(ends):
        raise DiagramError("an arc end may occupy only one slot")
    if set(ends) != {(a, e) for a in arc_ids for e in (0, 1)}:
        raise DiagramError("every arc must have both ends in slots, "
                           "and only arcs may have endpoints")


def reference_link_check(components, crossings):
    """The BicoloredLink checks as first written."""
    ids = [c.id for c in components]
    if len(set(ids)) != len(ids):
        raise DiagramError("component ids must be unique")
    known = set(ids)
    for c in crossings:
        if c.over not in known or c.under not in known:
            raise DiagramError("crossing references unknown component")


def check_outcome(build):
    """None when ``build`` succeeds, else the message of its DiagramError."""
    try:
        build()
    except DiagramError as err:
        return str(err)
    return None


STRAND_IDS = ("a", "b", "c", "d", "e")
any_color = st.sampled_from((RED, BLUE, PURPLE, None))
TANGLE_FAULTS = ("none", "duplicate id", "unknown strand", "missing end",
                 "extra end", "duplicate end", "closed strand end")


def insert(draw, items, item):
    items.insert(draw(st.integers(0, len(items))), item)


@st.composite
def tangle_cases(draw):
    """(fault, applied, parts): the parts of a valid tangle, as lists, with
    at most one fault put in; ``applied`` says whether it was."""
    ids = draw(st.permutations(STRAND_IDS))
    n_arcs, n_closed = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    arcs = [Strand(sid, draw(any_color)) for sid in ids[:n_arcs]]
    closed = [Strand(sid, draw(any_color))
              for sid in ids[n_arcs:n_arcs + n_closed]]
    names = ids[:n_arcs + n_closed]
    crossings = []
    if names:
        name = st.sampled_from(names)
        crossings = [Crossing(draw(name), draw(name), draw(st.sampled_from((1, -1))))
                     for _ in range(draw(st.integers(0, 4)))]
    ends = draw(st.permutations([(a.id, e) for a in arcs for e in (0, 1)]))
    slots = [Slot(arc, end, draw(st.sampled_from(("in", "out"))))
             for arc, end in ends]
    cut = draw(st.integers(0, len(slots)))
    top, bottom = slots[:cut], slots[cut:]
    wall = draw(st.sampled_from((top, bottom)))
    fault = draw(st.sampled_from(TANGLE_FAULTS))
    applied = True
    if fault == "duplicate id" and names:
        insert(draw, draw(st.sampled_from((arcs, closed))),
               Strand(draw(st.sampled_from(names)), None))
    elif fault == "unknown strand":
        known = draw(st.sampled_from(names or ("zz",)))
        pair = draw(st.sampled_from((("zz", known), (known, "zz"))))
        insert(draw, crossings, Crossing(*pair, 1))
    elif fault == "missing end" and wall:
        del wall[draw(st.integers(0, len(wall) - 1))]
    elif fault == "extra end":
        insert(draw, wall, Slot(draw(st.sampled_from(("zz", *names))),
                                draw(st.sampled_from((0, 1))), "in"))
    elif fault == "duplicate end" and slots:
        slot = draw(st.sampled_from(slots))
        insert(draw, wall, replace(slot, orientation=draw(
            st.sampled_from(("in", "out")))))
    elif fault == "closed strand end" and closed:
        insert(draw, wall, Slot(closed[0].id, 0, "out"))
    else:
        applied = fault == "none"
    return fault, applied, (arcs, closed, crossings, top, bottom)


LINK_FAULTS = ("none", "duplicate id", "unknown component")


@st.composite
def link_cases(draw):
    """(fault, parts) of a closed link, as lists, with at most one fault."""
    ids = draw(st.permutations(STRAND_IDS))[:draw(st.integers(0, 4))]
    components = [LinkComponent(cid, draw(any_color)) for cid in ids]
    crossings = []
    if ids:
        name = st.sampled_from(ids)
        crossings = [Crossing(draw(name), draw(name), 1)
                     for _ in range(draw(st.integers(0, 4)))]
    fault = draw(st.sampled_from(LINK_FAULTS))
    if fault == "duplicate id" and ids:
        insert(draw, components, LinkComponent(draw(st.sampled_from(ids))))
    elif fault == "unknown component":
        insert(draw, crossings, Crossing(draw(st.sampled_from(ids or ("zz",))),
                                         "zz", -1))
    else:
        fault = "none"
    return fault, (components, crossings)


class TestValidatorsMatchReference:
    @settings(max_examples=400)
    @given(tangle_cases())
    def test_tangle_checks(self, case):
        fault, applied, parts = case
        expected = check_outcome(
            lambda: reference_tangle_check(*map(tuple, parts)))
        assert check_outcome(lambda: ColoredTangle(*parts)) == expected
        assert (expected is None) == (fault == "none" or not applied)

    @settings(max_examples=200)
    @given(link_cases())
    def test_link_checks(self, case):
        fault, parts = case
        expected = check_outcome(
            lambda: reference_link_check(*map(tuple, parts)))
        assert check_outcome(lambda: BicoloredLink(*parts)) == expected
        assert (expected is None) == (fault == "none")

    def test_sequences_become_tuples(self):
        t = ColoredTangle([Strand("a")], [], [Crossing("a", "a", 1)],
                          [Slot("a", 0, "in")], [Slot("a", 1, "out")])
        link = BicoloredLink([LinkComponent("a")], [Crossing("a", "a", 1)])
        for value in (t.arcs, t.closed, t.crossings, t.top, t.bottom,
                      link.components, link.crossings):
            assert type(value) is tuple
