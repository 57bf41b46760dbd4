import math

import pytest
from hypothesis import given, strategies as st

from lbkit.covers import (
    cyclic_cover_link, deck_image, double_cover_diagram,
    lift_sphere_tangles, lift_wiring,
)
from lbkit.diagrams import (
    RED, BLUE, BraidWord, DiagramError, braid_closure, half_twist_tangle,
    swap_colors,
)
from lbkit.homology import AbelianGroup, boundary_h1, h1
from lbkit.kirby import build_diagram, double, standard_sphere

from strategies import annular_links

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
        link = build_diagram(3, 2).attaching
        word_m = link.word.power(4)
        walked = []
        letter_strands = BraidWord.letter_strands

        def spy(word):
            walked.append(word)
            return letter_strands(word)

        monkeypatch.setattr(BraidWord, "letter_strands", spy)
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

    def test_deck_image_on_components_and_tangles(self):
        cov = double_cover_diagram(build_diagram(3, 2))
        assert deck_image(cov, "upper.r") == "upper.b"
        assert deck_image(cov, "dual.b") == "dual.r"
        s = standard_sphere(cov.base, 2)
        first, second = lift_sphere_tangles(s)
        assert deck_image(cov, first) == second
        assert deck_image(cov, second) == first
