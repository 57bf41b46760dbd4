"""Cyclic covers of annular links and of family handle diagrams.

The solid torus unwinds along its circle factor, so the degree-m cover
of a braid closure is the closure of ``word.power(m)``, the m-th power
of the same word, whose cycles and letter sums the power reads off the
base word's one pass, so no cover walks its m copies.  The rest are
covering rules, read off that word:

* a winding-w component has gcd(w, m) lifts, each winding w/gcd(w, m)
  and carrying m/gcd(w, m) copies of every normalization kink;
* a split (winding 0) component lifts to one copy per sheet, so a cover
  past ``MAX_POWER_LETTERS`` letters and split lifts together is refused
  before any lift is built; each component's sheet labels, colors and
  lift names are worked out once, and its map rows, deck pairs and split
  lifts are read off them in one pass;
* lift framings are read off as writhes, which is why covering demands
  input normalized via ``normalize_to_writhe``.

Each lift satisfies the framing identity

    (m/g) * base_framing = lift_framing + sum of lk(lift, sibling)

over its sibling lifts (g = number of lifts).  Every construction
checks it on each braid lift and raises ``DiagramError`` when it fails;
split lifts have no siblings to link and satisfy it trivially.  In
degree 2 the two sheets are labeled r and b and lifts are colored red
and blue accordingly; the deck involution exchanges them.  The lifts and
the covering link and diagram are built unchecked from checked records;
the framing identity and the ``CoverData`` certificate still run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .diagrams import (
    BLUE,
    MAX_POWER_LETTERS,
    RED,
    AnnularComponent,
    AnnularLink,
    BicoloredLink,
    ColoredTangle,
    DiagramError,
    _TWIST_BOTTOM,
    half_twist_tangle,
    swap_colors,
)
from .homology import _built, _require_exact
from .kirby import (KirbyDiagram, SphereEmbedding, TwoHandle, _require_unique,
                    ensure_attaching)

__all__ = [
    "LinkCover", "CoverData",
    "cyclic_cover_link", "double_cover_diagram",
    "lift_sphere_tangles", "lift_wiring", "deck_image",
]


_DOUBLE_LABELS, _DOUBLE_COLORS = ("r", "b"), (RED, BLUE)  # of the two sheets in degree 2


def _lookup(table: dict, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise DiagramError(f"no {what} {key!r}") from None


@dataclass(frozen=True)
class _Cover:
    """A cyclic cover: the base, the degree and the covering object.

    ``component_map`` rows are (cover id, base id, sheet label); ``deck``
    pairs give the generator of the deck group on components.
    """

    base: AnnularLink | KirbyDiagram
    degree: int
    total: AnnularLink | KirbyDiagram
    component_map: tuple[tuple[str, str, str], ...]
    deck: tuple[tuple[str, str], ...]

    @staticmethod
    def _row(rows, cid: str) -> tuple:
        for row in rows:
            if row[0] == cid:
                return row
        raise DiagramError(f"no cover component {cid!r}")

    def base_of(self, cid: str) -> str:
        return self._row(self.component_map, cid)[1]

    def sheet_of(self, cid: str) -> str:
        return self._row(self.component_map, cid)[2]

    def lifts_of(self, base_id: str) -> tuple[str, ...]:
        return tuple(c for c, b, _ in self.component_map if b == base_id)

    def deck_of(self, cid: str) -> str:
        return self._row(self.deck, cid)[1]

    def __post_init__(self):
        """No checks here; ``CoverData`` overrides this with its own."""


class LinkCover(_Cover):
    """A cyclic cover of an annular link."""


class CoverData(_Cover):
    """A double cover at the handle-diagram level."""

    def __post_init__(self):
        if self.degree != 2:
            raise DiagramError("diagram-level cover data is for degree 2")
        if len(self.total.dotted) != len(self.base.dotted):
            raise DiagramError("the dotted circle must lift to one dotted circle")
        sheet = {c: s for c, _, s in reversed(self.component_map)}  # first row wins
        framing = {h.id: h.framing for h in self.total.two_handles}
        bases = [b for _, b, _ in self.component_map]
        deck = dict(self.deck)
        for src, dst in self.deck:
            if deck.get(dst) != src:
                raise DiagramError("deck map must be an involution")
            if (_lookup(sheet, src, "cover component")
                    == _lookup(sheet, dst, "cover component")):
                raise DiagramError("deck map must exchange the sheet labels")
            if _lookup(framing, src, "2-handle") != _lookup(framing, dst, "2-handle"):
                raise DiagramError("deck map must preserve framings")
        for h in self.base.two_handles:
            if bases.count(h.id) != 2:
                raise DiagramError(
                    f"base handle {h.id!r} must have exactly 2 lifts")


def cyclic_cover_link(link: AnnularLink, m: int) -> LinkCover:
    """Degree-m cyclic cover of an annular link.

    The input must be normalized (framing = writhe per component); the
    output is normalized again, with lift framings equal to their
    writhes in the covered diagram.  Degree 1 returns the link itself.
    """
    _require_exact(int, (m,), "cover degree", DiagramError)
    if m < 1:
        raise DiagramError("cover degree must be at least 1")
    if not link.is_normalized():
        raise DiagramError("framings must be normalized to writhe before "
                           "covering (use normalize_to_writhe)")
    word_m = link.word.power(m)  # refuses m * letters past MAX_POWER_LETTERS
    if m * (len(link.word.letters) + len(link.split)) > MAX_POWER_LETTERS:
        raise DiagramError(f"a cyclic cover may have at most {MAX_POWER_LETTERS} letters "
                           "and split lifts (MAX_POWER_LETTERS)")
    perm, cycles = link.word.permutation(), word_m.cycles()

    lifts = [None] * len(cycles)
    split = []
    cover_map: list[tuple[str, str, str]] = []
    deck: list[tuple[str, str]] = []
    for comp in link.all_components():
        g = math.gcd(comp.winding, m)
        kinks = comp.kinks * (m // g)
        labels, colors = ((_DOUBLE_LABELS[:g], _DOUBLE_COLORS[:g]) if m == 2
                          else (tuple(map(str, range(g))), [comp.color] * g))
        names = [comp.id] if m == 1 else [f"{comp.id}.{label}" for label in labels]
        cover_map += zip(names, repeat(comp.id), labels)
        deck += zip(names, names[1:] + names[:1])
        if not comp.strands:
            # the winding-0 case: gcd(0, m) = m lifts, one per sheet, no strands
            # to follow, and (the input being normalized) framed by their kinks
            split += [_built(AnnularComponent, name, frozenset(), color, kinks,
                             comp.orientation, kinks) for name, color in zip(names, colors)]
            continue
        ks, rep = [], min(comp.strands)
        for name, color in zip(names, colors):
            k = word_m._cycle_of(rep)
            lifts[k] = _built(AnnularComponent, name, cycles[k], color,
                              word_m._self_writhe(k) + kinks, comp.orientation, kinks)
            ks.append(k)
            rep = perm[rep - 1]
        for k in ks:
            siblings = sum(word_m._linking(k, other) for other in ks if other != k)
            if (m // g) * comp.framing != lifts[k].framing + siblings:
                raise DiagramError(
                    f"framing identity failed for lift {lifts[k].id!r}")

    total = _built(AnnularLink, word_m, tuple(lifts), tuple(split))
    return _built(LinkCover, link, m, total, tuple(cover_map), tuple(deck))


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
    # the attaching ids are the 2-handle ids, so every lookup below hits
    row = {hid: k for k, hid in
           enumerate(list(d.dotted) + [h.id for h in d.two_handles])}
    for split in attaching.split:
        for comp in attaching.components:
            if comp.winding != 2 and d.linking[row[split.id]][row[comp.id]] != 0:
                raise DiagramError(
                    f"split component {split.id!r} links {comp.id!r}, whose "
                    "lifts cross sheets; same-sheet linking is undefined")

    cov = cyclic_cover_link(attaching, 2)
    comps = cov.total.all_components()
    nbraid = len(cov.total.components)
    lift = {cid: (row[base], sheet) for cid, base, sheet in cov.component_map}
    _require_unique([*d.dotted, *lift])  # a lift id may be the dotted circle's
    handles = tuple(_built(TwoHandle, c.id, c.framing, (c.winding,)) for c in comps)

    n = len(comps)
    matrix = [[0] * (1 + n) for _ in range(1 + n)]
    word = cov.total.word  # braid lifts sit at their cycle index
    for x, a in enumerate(comps):
        matrix[0][1 + x] = matrix[1 + x][0] = a.winding
        matrix[1 + x][1 + x] = a.framing
        base_a, sheet_a = lift[a.id]
        for y in range(x + 1, n):
            if y < nbraid:
                value = word._linking(x, y)
            else:
                # the two lifts of one base component lie on different sheets
                base_b, sheet_b = lift[comps[y].id]
                value = d.linking[base_a][base_b] if sheet_a == sheet_b else 0
            matrix[1 + x][1 + y] = matrix[1 + y][1 + x] = value

    total = _built(KirbyDiagram, d.dotted, handles, tuple(map(tuple, matrix)), 0, 0,
                   cov.total)
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

    Read off the bottom wall ``half_twist_tangle`` picks by twist parity (its
    red arc is ``"a"``).  Two spheres are homotopic exactly when their lifts
    wire the ball boundaries the same way, i.e. when this index agrees.
    """
    _require_exact(int, (twists,), "twist count", DiagramError)
    return [slot.arc for slot in _TWIST_BOTTOM[twists % 2]].index("a")


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
