import math
from dataclasses import FrozenInstanceError, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from lbkit.covers import (
    CoverData, cyclic_cover_link, deck_image, double_cover_diagram,
    lift_sphere_tangles, lift_wiring,
)
from lbkit.diagrams import (
    RED, BLUE, AnnularComponent, AnnularLink, BraidWord, DiagramError,
    braid_closure, half_twist_tangle, normalize_to_writhe, swap_colors,
)
from lbkit.homology import AbelianGroup, boundary_h1, h1
from lbkit.kirby import (
    KirbyDiagram, TwoHandle, build_diagram, double, ensure_attaching,
    standard_sphere,
)
from lbkit.serialize import dumps, kirby_to_obj, load_diagram

from strategies import annular_links, braid_words, signs

params = st.integers(-5, 5)


def lift_framing_identity(cov):
    """Each lift's framing plus its linking with sibling lifts recovers
    (degree / gcd) times the base framing."""
    total, base = cov.total, cov.base
    for comp in total.components:
        base_comp = base.component(cov.base_of(comp.id))
        g = len(cov.lifts_of(base_comp.id))
        siblings = [c for c in cov.lifts_of(base_comp.id) if c != comp.id]
        mixed = sum(total.mixed_linking(comp.id, s) for s in siblings)
        assert comp.framing + mixed == (cov.degree // g) * base_comp.framing


class TestCyclicCoverLink:
    @given(annular_links(), st.integers(1, 4))
    def test_structure(self, link, m):
        cov = cyclic_cover_link(link, m)
        assert cov.degree == m
        assert cov.total.word == link.word.power(m)
        # one lift per sheet orbit: gcd(winding, m) for braid components,
        # m for split ones
        for c in link.components:
            assert len(cov.lifts_of(c.id)) == math.gcd(len(c.strands), m)
        for s in link.split:
            assert len(cov.lifts_of(s.id)) == m

    @given(annular_links(), st.integers(1, 4))
    def test_framing_identity(self, link, m):
        lift_framing_identity(cyclic_cover_link(link, m))

    @given(annular_links(), st.integers(1, 4))
    def test_deck_is_a_sheet_rotation(self, link, m):
        cov = cyclic_cover_link(link, m)
        deck = dict(cov.deck)
        ids = [c.id for c in cov.total.all_components()]
        assert sorted(deck) == sorted(ids)
        assert sorted(deck.values()) == sorted(ids)
        for lift, image in deck.items():
            assert cov.base_of(lift) == cov.base_of(image)
        # applying the rotation m times is the identity
        for lift in ids:
            image = lift
            for _ in range(m):
                image = deck[image]
            assert image == lift

    def test_walks_the_covering_word_once(self, monkeypatch):
        # a cover reads the power word's closure off the base word's one pass:
        # no pass over w^m, at most one over w, and no letter-by-letter listing
        link = build_diagram(3, 2).attaching
        walked, listed = [], []
        walk = BraidWord.__dict__["_walk"]  # the word's one pass, cached
        one_pass, letter_strands = walk.func, BraidWord.letter_strands

        def spy(word):
            walked.append(word)
            return one_pass(word)

        def list_spy(word):  # a second walk over the letters
            listed.append(word)
            return letter_strands(word)

        monkeypatch.setattr(walk, "func", spy)
        monkeypatch.setattr(BraidWord, "letter_strands", list_spy)
        cyclic_cover_link(link, 4)
        assert walked in ([], [link.word]) and listed == []
        # the double cover reads its linking off the covering word's table
        walked.clear()
        double_cover_diagram(build_diagram(3, 2))
        assert walked in ([], [link.word]) and listed == []
        # a fresh base word is walked exactly once, and its powers never
        walked.clear()
        word = BraidWord(4, link.word.letters)
        word.power(128)
        word.power(3).cycles()
        assert walked == [word] and listed == []

    def test_follows_the_covering_permutation_once(self, monkeypatch):
        link = build_diagram(3, 2).attaching
        word_m = link.word.power(4)
        walked = []
        permutation = BraidWord.permutation

        def spy(word):
            walked.append(word)
            return permutation(word)

        monkeypatch.setattr(BraidWord, "permutation", spy)
        cyclic_cover_link(link, 4)
        assert walked.count(word_m) == 1

    def test_degree_one_is_the_identity(self):
        link = build_diagram(3, 2).attaching
        cov = cyclic_cover_link(link, 1)
        assert cov.total == link
        assert all(lift == base for lift, base, _ in cov.component_map)

    def test_requires_normalized_framings(self):
        raw = braid_closure(BraidWord(2, ((1, 1),)), framings=[3])
        with pytest.raises(DiagramError):
            cyclic_cover_link(raw, 2)

    def test_family_degree_three_framings(self):
        cov = cyclic_cover_link(build_diagram(3, 2).attaching, 3)
        # winding 2 is coprime to 3: a single lift triple-covering the
        # base circle, so its framing triples
        by_id = {c.id: c for c in cov.total.components}
        assert set(by_id) == {"upper.0", "lower.0"}
        assert by_id["upper.0"].framing == 9
        assert by_id["lower.0"].framing == 6
        assert [s.id for s in cov.total.split] == ["dual.0", "dual.1", "dual.2"]


class TestDoubleCoverDiagram:
    def test_family_cover_matrix(self):
        cov = double_cover_diagram(build_diagram(3, 2))
        total = cov.total
        ids = [h.id for h in total.two_handles]
        assert ids == ["upper.r", "upper.b", "lower.r", "lower.b",
                       "dual.r", "dual.b"]
        assert total.linking == (
            (0, 1, 1, 1, 1, 0, 0),
            (1, 4, -1, 0, 0, 0, 0),
            (1, -1, 4, 0, 0, 0, 0),
            (1, 0, 0, 1, 1, 1, 0),
            (1, 0, 0, 1, 1, 0, 1),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
        )

    @given(params, params)
    def test_framing_multiset(self, p, q):
        cov = double_cover_diagram(build_diagram(p, q))
        framings = sorted(h.framing for h in cov.total.two_handles)
        assert framings == sorted((p + 1, p + 1, q - 1, q - 1, 0, 0))

    @given(params, params)
    def test_cover_is_simply_connected(self, p, q):
        cov = double_cover_diagram(build_diagram(p, q))
        assert h1(cov.total) == AbelianGroup(0)

    @given(params, params)
    def test_boundary_torsion_depends_only_on_p(self, p, q):
        cov = double_cover_diagram(build_diagram(p, q))
        if p == -2:
            assert boundary_h1(cov.total) == AbelianGroup(1)
        else:
            assert boundary_h1(cov.total) == \
                AbelianGroup(0, (abs(2 * p + 4),))

    def test_deck_involution(self):
        cov = double_cover_diagram(build_diagram(-1, 4))
        deck = dict(cov.deck)
        for lift, image in deck.items():
            assert deck[image] == lift
            assert lift != image
            assert cov.base_of(lift) == cov.base_of(image)
            assert cov.total.handle(lift).framing == \
                cov.total.handle(image).framing

    def test_deck_preserves_linking(self):
        cov = double_cover_diagram(build_diagram(2, -3))
        deck = dict(cov.deck)
        deck["dot"] = "dot"
        ids = ["dot"] + [h.id for h in cov.total.two_handles]
        for a in ids:
            for b in ids:
                assert cov.total.lk(a, b) == cov.total.lk(deck[a], deck[b])

    def test_rejects_non_family_diagrams(self):
        with pytest.raises(DiagramError):
            double_cover_diagram(double(build_diagram(0, 0)))


class TestSphereLifts:
    @given(st.integers(-6, 6))
    def test_two_colored_lifts_swapped_by_deck(self, n):
        s = standard_sphere(build_diagram(1, 1), n)
        first, second = lift_sphere_tangles(s)
        assert len(first.crossings) == abs(n)
        assert {a.color for a in first.arcs} == {RED, BLUE}
        assert second == swap_colors(first)
        assert first.crossings == half_twist_tangle(n, (RED, BLUE)).crossings

    @given(st.integers(-8, 8))
    def test_wiring_is_twist_parity(self, n):
        assert lift_wiring(n) == n % 2

    @pytest.mark.parametrize("twists", (True, False, 1.5, 2.0, "1"))
    def test_wiring_needs_an_exact_twist_count(self, twists):
        with pytest.raises(DiagramError, match="twist count must be int"):
            lift_wiring(twists)

    def test_deck_image_on_components_and_tangles(self):
        cov = double_cover_diagram(build_diagram(3, 2))
        assert deck_image(cov, "upper.r") == "upper.b"
        assert deck_image(cov, "dual.b") == "dual.r"
        s = standard_sphere(cov.base, 2)
        first, second = lift_sphere_tangles(s)
        assert deck_image(cov, first) == second
        assert deck_image(cov, second) == first


# --------------------------------------------------------------------------
# the double cover and its checks against their first versions


def reference_double_cover_diagram(d):
    """double_cover_diagram as first written: every cover id looked up by
    a scan of the component map and every base linking through ``d.lk``."""
    d = ensure_attaching(d)
    if d.three_handles or d.four_handles:
        raise DiagramError("the double cover construction reads an attaching "
                           "diagram, so 3- and 4-handles are not allowed")
    attaching = d.attaching
    for comp in attaching.components:
        if comp.winding % 2:
            raise DiagramError(
                f"2-handle {comp.id!r} has odd winding; its lift is a single "
                "component and does not fit the two-sheet diagram")
    for split in attaching.split:
        for comp in attaching.components:
            if comp.winding != 2 and d.lk(split.id, comp.id) != 0:
                raise DiagramError(
                    f"split component {split.id!r} links {comp.id!r}, whose "
                    "lifts cross sheets; same-sheet linking is undefined")

    cov = cyclic_cover_link(attaching, 2)
    braid_ids = [c.id for c in cov.total.components]
    order = braid_ids + [c.id for c in cov.total.split]
    braid_set = set(braid_ids)
    handles = tuple(
        TwoHandle(cid, cov.total.component(cid).framing,
                  (cov.total.component(cid).winding,))
        for cid in order)
    n = len(order)
    matrix = [[0] * (1 + n) for _ in range(1 + n)]
    for k, cid in enumerate(order):
        comp = cov.total.component(cid)
        matrix[0][1 + k] = matrix[1 + k][0] = comp.winding
        matrix[1 + k][1 + k] = comp.framing
    word = BraidWord(cov.total.word.strands, cov.total.word.letters)  # fresh
    for x in range(n):
        for y in range(x + 1, n):
            a, b = order[x], order[y]
            if a in braid_set and b in braid_set:
                value = word._linking(x, y)  # braid lifts sit at their cycle index
            elif cov.sheet_of(a) != cov.sheet_of(b):
                value = 0
            elif cov.base_of(a) == cov.base_of(b):
                value = 0
            else:
                value = d.lk(cov.base_of(a), cov.base_of(b))
            matrix[1 + x][1 + y] = matrix[1 + y][1 + x] = value
    total = KirbyDiagram(
        d.dotted, handles, tuple(tuple(row) for row in matrix),
        attaching=cov.total)
    return CoverData(d, 2, total, cov.component_map, cov.deck)


def reference_cover_check(base, degree, total, component_map, deck):
    """CoverData's checks as first written, one scan per id."""
    def row(cid):
        for r in component_map:
            if r[0] == cid:
                return r
        raise DiagramError(f"no cover component {cid!r}")

    if degree != 2:
        raise DiagramError("diagram-level cover data is for degree 2")
    if len(total.dotted) != len(base.dotted):
        raise DiagramError("the dotted circle must lift to one dotted circle")
    table = dict(deck)
    for src, dst in deck:
        if table.get(dst) != src:
            raise DiagramError("deck map must be an involution")
        if row(src)[2] == row(dst)[2]:
            raise DiagramError("deck map must exchange the sheet labels")
        if total.handle(src).framing != total.handle(dst).framing:
            raise DiagramError("deck map must preserve framings")
    for h in base.two_handles:
        lifts = tuple(c for c, b, _ in component_map if b == h.id)
        if len(lifts) != 2:
            raise DiagramError(
                f"base handle {h.id!r} must have exactly 2 lifts")


def outcome(build):
    """What ``build`` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as err:  # the type is part of the comparison
        return type(err), str(err)


def insert(draw, items, item):
    items.insert(draw(st.integers(0, len(items))), item)


COVER_FAULTS = ("none", "not an involution", "same sheet", "unequal framings",
                "wrong lift count", "unknown deck id", "unknown handle",
                "duplicate row", "degree")
SWAPPED_DECK = (("upper.r", "lower.b"), ("lower.b", "upper.r"),
                ("upper.b", "lower.r"), ("lower.r", "upper.b"),
                ("dual.r", "dual.b"), ("dual.b", "dual.r"))


@st.composite
def cover_cases(draw):
    """(fault, CoverData fields) from the cover of a family diagram, with
    at most one fault put in and both maps shuffled."""
    cov = double_cover_diagram(build_diagram(draw(params), draw(params)))
    cmap, deck = list(cov.component_map), list(cov.deck)
    ids = [c for c, _, _ in cmap]
    k = draw(st.integers(0, len(cmap) - 1))
    cid, base, sheet = cmap[k]
    other = "b" if sheet == "r" else "r"
    degree = 2
    fault = draw(st.sampled_from(COVER_FAULTS))
    if fault == "not an involution":
        src, dst = deck[k]
        deck[k] = (src, draw(st.sampled_from([c for c in ids if c != dst])))
    elif fault == "same sheet":
        cmap[k] = (cid, base, other)
    elif fault == "unequal framings":
        deck = list(SWAPPED_DECK)
    elif fault == "wrong lift count":
        cmap[k] = (cid, draw(st.sampled_from(("upper", "lower", "dual", "zz"))),
                   sheet)
    elif fault == "unknown deck id":
        src = draw(st.sampled_from(("zz.r", cid)))
        insert(draw, deck, (src, "zz.b"))
        insert(draw, deck, ("zz.b", src))
    elif fault == "unknown handle":
        cmap += [("zz.r", "upper", "r"), ("zz.b", "upper", "b")]
        insert(draw, deck, ("zz.r", "zz.b"))
        insert(draw, deck, ("zz.b", "zz.r"))
    elif fault == "duplicate row":
        insert(draw, cmap, (cid, base, other))
    elif fault == "degree":
        degree = draw(st.sampled_from((0, 1, 3)))
    cmap, deck = draw(st.permutations(cmap)), draw(st.permutations(deck))
    return fault, (cov.base, degree, cov.total, tuple(cmap), tuple(deck))


@st.composite
def json_family_diagrams(draw):
    """JSON text of a family diagram with its handles reordered and
    renamed, and perhaps one linking or winding changed so that it is no
    longer family-shaped; it always loads."""
    obj = kirby_to_obj(build_diagram(draw(params), draw(params)))
    order = draw(st.permutations(range(3)))
    names = draw(st.permutations(("upper", "lower", "dual", "a", "b")))
    handles = [obj["two_handles"][i] for i in order]
    for h, name in zip(handles, names):
        h["id"] = name
    rows = [0] + [1 + i for i in order]
    m = [[obj["linking"][r][c] for c in rows] for r in rows]
    change = draw(st.sampled_from(("none", "linking", "winding", "h3")))
    if change == "linking":
        i, j = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        value = draw(st.integers(-2, 2))
        if i == j:
            handles[i - 1]["framing"] = value
        m[i][j] = m[j][i] = value
    elif change == "winding":
        i, w = draw(st.integers(1, 3)), draw(st.sampled_from((0, 1, 2, 4)))
        handles[i - 1]["winding"] = [w]
        m[0][i] = m[i][0] = w
    elif change == "h3":
        obj["h3"] = 1
    obj["two_handles"], obj["linking"] = handles, m
    return dumps(obj)


@st.composite
def even_words(draw):
    """A braid word whose closure has only even windings: an odd power of
    the letter inside each strand pair, pure double letters between
    pairs, and perhaps one letter joining the first two pairs into a
    winding-4 component, in any order."""
    pairs = draw(st.integers(1, 3))
    blocks = [((2 * i + 1, draw(signs)),) * draw(st.sampled_from((1, 3)))
              for i in range(pairs)]
    if pairs > 1:
        blocks += [((2 * draw(st.integers(1, pairs - 1)), sign),) * 2
                   for sign in draw(st.lists(signs, max_size=3))]
        if draw(st.booleans()):
            blocks.append(((2, draw(signs)),))
    blocks = draw(st.permutations(blocks))
    return BraidWord(2 * pairs, tuple(letter for b in blocks for letter in b))


@st.composite
def attached_diagrams(draw):
    """A one-dotted-circle diagram carrying a normalized attaching link,
    up to two split unknots and arbitrary off-diagonal linking: odd
    windings and split linkings reach the checks."""
    word = draw(st.one_of(braid_words(1, 4, 4), even_words(), even_words()))
    closure = braid_closure(word, framings=[
        draw(st.integers(-3, 3)) for _ in word.cycles()])
    split = tuple(AnnularComponent(f"u{k}", frozenset(), None,
                                   draw(st.integers(-3, 3)))
                  for k in range(draw(st.integers(0, 2))))
    link = normalize_to_writhe(AnnularLink(word, closure.components, split))
    comps = link.all_components()
    n = len(comps)
    m = [[0] * (1 + n) for _ in range(1 + n)]
    for k, c in enumerate(comps):
        m[0][1 + k] = m[1 + k][0] = c.winding
        m[1 + k][1 + k] = c.framing
        for j in range(k + 1, n):
            m[1 + k][1 + j] = m[1 + j][1 + k] = draw(st.integers(-1, 1))
    handles = tuple(TwoHandle(c.id, c.framing, (c.winding,)) for c in comps)
    return KirbyDiagram(("dot",), handles, m, attaching=link)


class TestDoubleCoverMatchesReference:
    def test_family_grid(self):
        for p in range(-6, 7):
            for q in range(-6, 7):
                d = build_diagram(p, q)
                assert double_cover_diagram(d) == \
                    reference_double_cover_diagram(d), (p, q)

    @settings(max_examples=300)
    @given(json_family_diagrams())
    def test_json_loaded_diagrams(self, text):
        d = load_diagram(text)
        assert outcome(lambda: double_cover_diagram(d)) == \
            outcome(lambda: reference_double_cover_diagram(d))

    @settings(max_examples=300)
    @given(attached_diagrams())
    def test_any_attaching_link(self, d):
        assert outcome(lambda: double_cover_diagram(d)) == \
            outcome(lambda: reference_double_cover_diagram(d))

    @settings(max_examples=400)
    @given(cover_cases())
    def test_cover_checks(self, case):
        fault, parts = case
        expected = outcome(lambda: reference_cover_check(*parts))
        got = outcome(lambda: CoverData(*parts))
        assert (None if isinstance(got, CoverData) else got) == expected
        if fault == "none":
            assert expected is None

    @pytest.mark.parametrize("fault, message", [
        ("not an involution", "deck map must be an involution"),
        ("same sheet", "deck map must exchange the sheet labels"),
        ("unequal framings", "deck map must preserve framings"),
        ("wrong lift count", "base handle 'upper' must have exactly 2 lifts"),
        ("unknown deck id", "no cover component 'zz.r'"),
        ("unknown handle", "no 2-handle 'zz.r'"),
        ("degree", "diagram-level cover data is for degree 2"),
    ])
    def test_each_fault_has_its_message(self, fault, message):
        cov = double_cover_diagram(build_diagram(2, -1))
        cmap, deck, degree = list(cov.component_map), list(cov.deck), 2
        if fault == "not an involution":
            deck[0] = (deck[0][0], "lower.r")
        elif fault == "same sheet":
            cmap[0] = (cmap[0][0], cmap[0][1], "b")
        elif fault == "unequal framings":
            deck = list(SWAPPED_DECK)
        elif fault == "wrong lift count":
            cmap[1] = ("upper.b", "lower", "b")
        elif fault == "unknown deck id":
            deck[:0] = [("zz.r", "zz.b"), ("zz.b", "zz.r")]
        elif fault == "unknown handle":
            cmap += [("zz.r", "upper", "r"), ("zz.b", "upper", "b")]
            deck[:0] = [("zz.r", "zz.b"), ("zz.b", "zz.r")]
        else:
            degree = 3
        parts = (cov.base, degree, cov.total, tuple(cmap), tuple(deck))
        for check in (CoverData, reference_cover_check):
            with pytest.raises(DiagramError) as err:
                check(*parts)
            assert str(err.value) == message

    def test_cover_data_checks_through_the_base_record(self):
        # CoverData overrides _Cover's no-op __post_init__ and is not decorated
        # again: the base's generated methods build, compare and print it
        assert "__dataclass_fields__" not in vars(CoverData) and is_dataclass(CoverData)
        cov = double_cover_diagram(build_diagram(2, -1))
        again = CoverData(cov.base, 2, cov.total, cov.component_map, cov.deck)
        assert again == cov and hash(again) == hash(cov)
        assert repr(again).startswith("CoverData(base=KirbyDiagram(")
        with pytest.raises(DiagramError, match="for degree 2"):
            replace(cov, degree=3)
        with pytest.raises(FrozenInstanceError):
            again.degree = 3
