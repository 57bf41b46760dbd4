"""Cyclic covers of annular links and of family handle diagrams.

The solid torus unwinds along its circle factor, so the degree-m cover
of a braid closure is the closure of the m-th power of the same word on
the same strands.  Everything else is bookkeeping on top of that fact:

* a winding-w component has gcd(w, m) lifts, each winding w/gcd(w, m)
  and carrying m/gcd(w, m) copies of every normalization kink;
* a split (winding 0) component lifts to one copy per sheet;
* lift framings are read off as writhes, which is why covering demands
  input normalized via ``normalize_to_writhe``.

Each lift satisfies the framing identity

    (m/g) * base_framing = lift_framing + sum of lk(lift, sibling)

over its sibling lifts (g = number of lifts); this is asserted on every
construction.  In degree 2 the two sheets are labeled r and b and lifts
are colored red and blue accordingly; the deck involution exchanges
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import (
    BLUE,
    RED,
    AnnularComponent,
    AnnularLink,
    BicoloredLink,
    ColoredTangle,
    DiagramError,
    half_twist_tangle,
    swap_colors,
)
from .kirby import KirbyDiagram, SphereEmbedding, TwoHandle, ensure_attaching

__all__ = [
    "LinkCover", "CoverData",
    "cyclic_cover_link", "double_cover_diagram",
    "lift_sphere_tangles", "lift_wiring", "deck_image",
]


def _sheet_label(j: int, m: int) -> str:
    if m == 2:
        return ("r", "b")[j]
    return str(j)


class _CoverMixin:
    def base_of(self, cid: str) -> str:
        for cover, base, _ in self.component_map:
            if cover == cid:
                return base
        raise DiagramError(f"no cover component {cid!r}")

    def sheet_of(self, cid: str) -> str:
        for cover, _, sheet in self.component_map:
            if cover == cid:
                return sheet
        raise DiagramError(f"no cover component {cid!r}")

    def lifts_of(self, base_id: str) -> tuple[str, ...]:
        return tuple(c for c, b, _ in self.component_map if b == base_id)

    def deck_of(self, cid: str) -> str:
        for src, dst in self.deck:
            if src == cid:
                return dst
        raise DiagramError(f"no cover component {cid!r}")


@dataclass(frozen=True)
class LinkCover(_CoverMixin):
    """A cyclic cover of an annular link.

    ``component_map`` rows are (cover id, base id, sheet label); ``deck``
    pairs give the generator of the deck group on components.
    """

    base: AnnularLink
    degree: int
    total: AnnularLink
    component_map: tuple[tuple[str, str, str], ...]
    deck: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CoverData(_CoverMixin):
    """A double cover at the handle-diagram level."""

    base: KirbyDiagram
    degree: int
    total: KirbyDiagram
    component_map: tuple[tuple[str, str, str], ...]
    deck: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.degree != 2:
            raise DiagramError("diagram-level cover data is for degree 2")
        if len(self.total.dotted) != len(self.base.dotted):
            raise DiagramError("the dotted circle must lift to one dotted circle")
        deck = dict(self.deck)
        for src, dst in self.deck:
            if deck.get(dst) != src:
                raise DiagramError("deck map must be an involution")
            if self.sheet_of(src) == self.sheet_of(dst):
                raise DiagramError("deck map must exchange the sheet labels")
            if self.total.handle(src).framing != self.total.handle(dst).framing:
                raise DiagramError("deck map must preserve framings")
        for h in self.base.two_handles:
            expected = 2
            lifts = self.lifts_of(h.id)
            if len(lifts) != expected:
                raise DiagramError(
                    f"base handle {h.id!r} must have exactly {expected} lifts")


def _word_writhe(letter_strands, strand_set) -> int:
    return sum(sign for a, b, sign in letter_strands
               if a in strand_set and b in strand_set)


def cyclic_cover_link(link: AnnularLink, m: int) -> LinkCover:
    """Degree-m cyclic cover of an annular link.

    The input must be normalized (framing = writhe per component); the
    output is normalized again, with lift framings equal to their
    writhes in the covered diagram.  Degree 1 returns the link itself.
    """
    if m < 1:
        raise DiagramError("cover degree must be at least 1")
    if not link.is_normalized():
        raise DiagramError("framings must be normalized to writhe before "
                           "covering (use normalize_to_writhe)")
    word_m = link.word.power(m)
    perm = link.word.permutation()
    cycles = word_m.cycles()
    cycle_of = {s: cyc for cyc in cycles for s in cyc}
    letters = word_m.letter_strands()

    named: dict = {}
    cover_map: list[tuple[str, str, str]] = []
    deck: list[tuple[str, str]] = []
    lift_names: dict[str, list[str]] = {}
    for comp in link.components:
        length = comp.winding
        g = math.gcd(length, m)
        names = []
        rep = min(comp.strands)
        for j in range(g):
            cyc = cycle_of[rep]
            label = _sheet_label(j, m)
            name = comp.id if m == 1 else f"{comp.id}.{label}"
            color = (RED, BLUE)[j] if m == 2 else comp.color
            kinks = comp.kinks * (m // g)
            framing = _word_writhe(letters, cyc) + kinks
            named[cyc] = AnnularComponent(
                name, cyc, color, framing, comp.orientation, kinks)
            cover_map.append((name, comp.id, label))
            names.append(name)
            rep = perm[rep - 1]
        lift_names[comp.id] = names
        deck.extend((names[j], names[(j + 1) % g]) for j in range(g))

    components = tuple(named[cyc] for cyc in cycles)

    split = []
    for comp in link.split:
        copies = []
        for j in range(m):
            label = _sheet_label(j, m)
            name = comp.id if m == 1 else f"{comp.id}.{label}"
            color = (RED, BLUE)[j] if m == 2 else comp.color
            split.append(AnnularComponent(
                name, frozenset(), color, comp.framing, comp.orientation,
                comp.kinks))
            cover_map.append((name, comp.id, label))
            copies.append(name)
        deck.extend((copies[j], copies[(j + 1) % m]) for j in range(m))

    total = AnnularLink(word_m, components, tuple(split))

    for comp in link.components:
        g = math.gcd(comp.winding, m)
        for name in lift_names[comp.id]:
            siblings = sum(total.mixed_linking(name, other)
                           for other in lift_names[comp.id] if other != name)
            if (m // g) * comp.framing != \
                    total.component(name).framing + siblings:
                raise DiagramError(
                    f"framing identity failed for lift {name!r}")

    return LinkCover(link, m, total, tuple(cover_map), tuple(deck))


def double_cover_diagram(d: KirbyDiagram) -> CoverData:
    """Double cover of a family handle diagram.

    Requires one dotted circle and even windings throughout.  The cover
    keeps the dotted circle, lifts every 2-handle per the annular
    algorithm, and fills in the linking matrix: braid lifts link as the
    covered diagram shows, while a split lift links only same-sheet
    lifts, with the base linking number.
    """
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
    split_ids = [c.id for c in cov.total.split]
    order = braid_ids + split_ids
    braid_set = set(braid_ids)

    handles = tuple(
        TwoHandle(cid,
                  cov.total.component(cid).framing,
                  (cov.total.component(cid).winding,))
        for cid in order)

    n = len(order)
    matrix = [[0] * (1 + n) for _ in range(1 + n)]
    for k, cid in enumerate(order):
        comp = cov.total.component(cid)
        matrix[0][1 + k] = matrix[1 + k][0] = comp.winding
        matrix[1 + k][1 + k] = comp.framing
    for x in range(n):
        for y in range(x + 1, n):
            a, b = order[x], order[y]
            if a in braid_set and b in braid_set:
                value = cov.total.mixed_linking(a, b)
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


def lift_sphere_tangles(s: SphereEmbedding) -> tuple[ColoredTangle, ColoredTangle]:
    """Cross-sections of the two sphere lifts in the two lifted balls.

    The slicing ball is evenly covered, so each lifted ball carries a
    full copy of the sphere's half-twist tangle; the red arc belongs to
    one sphere lift and the blue arc to the other, and the second ball's
    copy is the first with colors exchanged (the deck image).
    """
    ensure_attaching(s.ambient)
    at_zero = half_twist_tangle(s.twists, (RED, BLUE))
    return at_zero, swap_colors(at_zero)


def lift_wiring(twists: int) -> int:
    """Which bottom slot of the lifted ball tangle the red arc reaches.

    Two spheres are homotopic exactly when their lifts wire the ball
    boundaries the same way, i.e. when this index agrees.
    """
    t = half_twist_tangle(twists, (RED, BLUE))
    for k, slot in enumerate(t.bottom):
        if t.color_of(slot.arc) == RED:
            return k
    raise DiagramError("lifted tangle has no red arc")


def deck_image(cover, obj):
    """Apply the deck transformation to a cover-indexed object.

    Component ids map through the deck pairs; colored tangles and links
    exchange red and blue; a (ball index, tangle) pair moves to the
    other ball with colors exchanged.  Framings and crossing signs are
    untouched.
    """
    if isinstance(obj, str):
        return cover.deck_of(obj)
    if isinstance(obj, (ColoredTangle, BicoloredLink)):
        return swap_colors(obj)
    if isinstance(obj, tuple) and len(obj) == 2 and obj[0] in (0, 1):
        ball, tangle = obj
        return 1 - ball, swap_colors(tangle)
    raise DiagramError("deck image applies to component ids, colored "
                       "diagrams, or (ball, tangle) pairs")
