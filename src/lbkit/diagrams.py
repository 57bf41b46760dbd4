"""Combinatorial link and tangle diagrams.

Every quantity downstream (framings, linking parities, cover data) is
computable from a Gauss-style count, so diagrams here record only what
such a count can see: which components cross, with what sign, plus
boundary bookkeeping for tangles.  No planar embedding is stored.

Three diagram types:

* ``AnnularLink``: a braid closure in a solid torus, with optional
  split unknot components sitting in a ball away from the braid axis.
* ``ColoredTangle``: a rectangular tangle in a ball, with ordered
  endpoint slots on the top and bottom walls.
* ``BicoloredLink``: a closed diagram whose components carry colors.

Conventions, fixed once and used by every module:

* a positive crossing is right handed; taking the mirror image flips
  every sign;
* in a braid letter the strand entering from the left passes over for
  a positive letter and under for a negative one;
* framings are integer labels carried by components, independent of the
  diagram writhe; ``normalize_to_writhe`` inserts kinks when the two
  must agree (covers read framings off the diagram, so they require
  normalized input);
* the linking number between the red and the blue part of a diagram is
  half the signed sum of red-blue crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, product
from operator import attrgetter

from .homology import _require_exact

RED = "red"
BLUE = "blue"
PURPLE = "purple"

_COMPONENT_COLORS = (RED, BLUE, PURPLE, None)
_IN = "in"
_OUT = "out"
_ID = attrgetter("id")
_SLOT_END = attrgetter("arc", "end")

__all__ = [
    "RED", "BLUE", "PURPLE",
    "DiagramError", "ColorMismatch", "OrientationMismatch", "BadSite",
    "BraidWord", "AnnularComponent", "AnnularLink",
    "Strand", "Crossing", "Slot", "ColoredTangle",
    "LinkComponent", "BicoloredLink",
    "components_and_windings", "braid_closure", "braid_closure_link",
    "normalize_to_writhe",
    "half_twist_tangle", "empty_tangle", "reverse_mirror", "close_tangle",
    "stack_tangles",
    "bicolored_linking", "mirror_image", "swap_colors", "reidemeister",
]


class DiagramError(ValueError):
    """Malformed diagram data or an operation applied outside its domain."""


class ColorMismatch(DiagramError):
    """A closure or gluing would join strands of different colors."""


class OrientationMismatch(DiagramError):
    """A closure or gluing would join two heads or two tails."""


class BadSite(DiagramError):
    """A Reidemeister move was requested at a site without its pattern."""


# --------------------------------------------------------------------------
# braid words and annular links


@dataclass(frozen=True)
class BraidWord:
    """A braid word: generator positions are 1-based, signs are +-1."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _require_exact(int, (self.strands,), "braid strands", DiagramError)
        if self.strands < 1:
            raise DiagramError("a braid word needs at least one strand")
        letters = tuple(map(tuple, self.letters))
        object.__setattr__(self, "letters", letters)
        _require_exact(int, chain.from_iterable(letters), "braid letters", DiagramError)
        for letter in dict.fromkeys(letters):
            if len(letter) != 2:
                raise DiagramError("braid letters must be (position, sign) pairs")
            pos, sign = letter
            if not 1 <= pos <= self.strands - 1:
                raise DiagramError(f"letter position {pos} out of range")
            if sign not in (1, -1):
                raise DiagramError(f"letter sign must be +-1, got {sign}")

    def power(self, m: int) -> "BraidWord":
        if m < 0:
            raise DiagramError("braid word powers must be non-negative")
        return BraidWord(self.strands, self.letters * m)

    def letter_strands(self) -> tuple[tuple[int, int, int], ...]:
        """For each letter, the two strands it crosses and its sign.

        Strands are named by their starting position, 1-based; the first
        entry of each triple is the strand entering from the left.
        """
        arrangement = list(range(1, self.strands + 1))
        out = []
        for pos, sign in self.letters:
            a, b = arrangement[pos - 1], arrangement[pos]
            out.append((a, b, sign))
            arrangement[pos - 1], arrangement[pos] = b, a
        return tuple(out)

    def permutation(self) -> tuple[int, ...]:
        """Image of each strand under the closure, as a 1-based tuple."""
        arrangement = list(range(1, self.strands + 1))
        for pos, _ in self.letters:
            arrangement[pos - 1], arrangement[pos] = arrangement[pos], arrangement[pos - 1]
        image = [0] * self.strands
        for position, strand in enumerate(arrangement, start=1):
            image[strand - 1] = position
        return tuple(image)

    def cycles(self) -> tuple[frozenset, ...]:
        """Cycles of the closure permutation, sorted by smallest strand."""
        return self._cycles

    # once per word: every AnnularLink built over the word checks against them
    @cached_property
    def _cycles(self) -> tuple[frozenset, ...]:
        perm = self.permutation()
        seen = set()
        out = []
        for start in range(1, self.strands + 1):
            if start in seen:
                continue
            cyc = []
            s = start
            while s not in seen:
                seen.add(s)
                cyc.append(s)
                s = perm[s - 1]
            out.append(frozenset(cyc))
        return tuple(sorted(out, key=min))


def components_and_windings(word: BraidWord) -> tuple[tuple[frozenset, int], ...]:
    """Closure components of a braid word with their winding numbers.

    Each component is the strand set of a permutation cycle; its winding
    around the braid axis equals the cycle length.
    """
    return tuple((cyc, len(cyc)) for cyc in word.cycles())


@dataclass(frozen=True)
class AnnularComponent:
    """One component of an annular link.

    ``strands`` is empty for a split unknot sitting in a ball away from
    the braid axis (winding 0).  ``kinks`` counts signed curls inserted
    by writhe normalization.
    """

    id: str
    strands: frozenset
    color: str | None = None
    framing: int = 0
    orientation: int = 1
    kinks: int = 0

    def __post_init__(self):
        _require_exact(str, (self.id,), "component ids", DiagramError)
        strands = tuple(self.strands)
        _require_exact(int, strands, "strands of {!r}", DiagramError, self.id)
        object.__setattr__(self, "strands", frozenset(strands))
        _require_exact(int, (self.framing, self.orientation, self.kinks),
                       "framing, orientation and kinks of {!r}", DiagramError, self.id)
        if self.color not in _COMPONENT_COLORS:
            raise DiagramError(f"unknown color {self.color!r}")
        if self.orientation not in (1, -1):
            raise DiagramError("orientation must be +-1")

    @property
    def winding(self) -> int:
        return len(self.strands)


@dataclass(frozen=True)
class AnnularLink:
    """A braid closure in the solid torus plus optional split unknots.

    ``components`` must list one entry per permutation cycle of the
    word, ordered by smallest strand; the framing label of a component
    is independent data and need not match the diagram writhe.
    """

    word: BraidWord
    components: tuple[AnnularComponent, ...]
    split: tuple[AnnularComponent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "split", tuple(self.split))
        cycles = self.word.cycles()
        if len(cycles) != len(self.components):
            raise DiagramError("one component per braid cycle is required")
        for comp, cyc in zip(self.components, cycles):
            if comp.strands != cyc:
                raise DiagramError(
                    f"component {comp.id!r} does not match the braid cycles "
                    "(components must be listed by smallest strand)")
        for comp in self.split:
            if comp.strands:
                raise DiagramError("split components must not use braid strands")
        ids = [c.id for c in self.components + self.split]
        if len(set(ids)) != len(ids):
            raise DiagramError("component ids must be unique")

    def all_components(self) -> tuple[AnnularComponent, ...]:
        return self.components + self.split

    def component(self, cid: str) -> AnnularComponent:
        for comp in self.all_components():
            if comp.id == cid:
                return comp
        raise DiagramError(f"no component {cid!r}")

    def _letter_table(self) -> dict:
        """``_letter_sums`` of the word, keyed by component id."""
        return _letter_sums(self.word, {s: comp.id for comp in self.components
                                        for s in comp.strands})

    def word_self_writhe(self, cid: str) -> int:
        """Signed self-crossings of a component contributed by the word."""
        self.component(cid)  # an unknown id raises
        return self._letter_table().get((cid, cid), 0)

    def writhe(self, cid: str) -> int:
        """Diagram self-writhe: word contribution plus inserted kinks."""
        return self.word_self_writhe(cid) + self.component(cid).kinks

    def mixed_linking(self, cid: str, other: str) -> int:
        """Linking number of two distinct components of the closure."""
        if cid == other:
            raise DiagramError("mixed linking needs two distinct components")
        self.component(cid)
        self.component(other)
        return _half_sum(self._letter_table(), cid, other)

    def is_normalized(self) -> bool:
        sums = self._letter_table()
        return all(sums.get((c.id, c.id), 0) + c.kinks == c.framing
                   for c in self.all_components())


def _letter_sums(word: BraidWord, owner: dict) -> dict:
    """Signed sum of the letters between each pair of closure cycles.

    ``owner`` maps every strand to a key naming its cycle.  One pass over
    ``word.letter_strands()`` attributes each letter to the pair of cycles
    it crosses: keys are pairs (k, l) with k <= l, and (k, k) holds the
    self-crossings of cycle k.  Pairs no letter crosses are absent.
    """
    sums: dict = {}
    for a, b, sign in word.letter_strands():
        k, l = owner[a], owner[b]
        key = (k, l) if k <= l else (l, k)
        sums[key] = sums.get(key, 0) + sign
    return sums


def _half_sum(sums: dict, k, l) -> int:
    """Linking number of the distinct cycles k and l of a letter table."""
    total = sums.get((k, l) if k <= l else (l, k), 0)
    if total % 2:
        raise DiagramError("crossings between closed components must pair up")
    return total // 2


def braid_closure(word: BraidWord, *, ids=None, colors=None, framings=None) -> AnnularLink:
    """Annular link of a braid closure, components in canonical order."""
    cycles = word.cycles()
    n = len(cycles)
    ids = list(ids) if ids is not None else [f"c{i}" for i in range(n)]
    colors = list(colors) if colors is not None else [None] * n
    framings = list(framings) if framings is not None else [0] * n
    if not len(ids) == len(colors) == len(framings) == n:
        raise DiagramError(f"expected data for {n} components")
    comps = tuple(
        AnnularComponent(ids[i], cycles[i], colors[i], framings[i])
        for i in range(n))
    return AnnularLink(word, comps)


def normalize_to_writhe(link: AnnularLink) -> AnnularLink:
    """Insert kinks so every component's writhe equals its framing label.

    The framing labels are unchanged; only the kink counts move.  Covers
    require this because a diagram-level cover can only transport
    framings that are visible as writhe.
    """
    sums = link._letter_table()  # split components have no entry: kinks = framing
    comps = tuple(
        AnnularComponent(c.id, c.strands, c.color, c.framing, c.orientation,
                         c.framing - sums.get((c.id, c.id), 0))
        for c in link.all_components())
    k = len(link.components)
    return AnnularLink(link.word, comps[:k], comps[k:])


# --------------------------------------------------------------------------
# tangles


@dataclass(frozen=True)
class Strand:
    id: str
    color: str | None = None

    def __post_init__(self):
        _require_exact(str, (self.id,), "strand ids", DiagramError)
        if self.color not in _COMPONENT_COLORS:
            raise DiagramError(f"unknown color {self.color!r}")


@dataclass(frozen=True)
class Crossing:
    over: str
    under: str
    sign: int

    def __post_init__(self):
        _require_exact(str, (self.over, self.under), "crossing strands", DiagramError)
        _require_exact(int, (self.sign,), "crossing sign", DiagramError)
        if self.sign not in (1, -1):
            raise DiagramError("crossing sign must be +-1")


@dataclass(frozen=True)
class Slot:
    """An endpoint slot on a tangle wall: which arc end sits there and
    whether the strand runs into or out of the tangle."""

    arc: str
    end: int
    orientation: str

    def __post_init__(self):
        _require_exact(str, (self.arc,), "slot arcs", DiagramError)
        _require_exact(int, (self.end,), "arc ends", DiagramError)
        if self.end not in (0, 1):
            raise DiagramError("arc ends are numbered 0 and 1")
        if self.orientation not in (_IN, _OUT):
            raise DiagramError("slot orientation must be 'in' or 'out'")


@dataclass(frozen=True)
class ColoredTangle:
    """A tangle in a ball with ordered top and bottom endpoint slots."""

    arcs: tuple[Strand, ...] = ()
    closed: tuple[Strand, ...] = ()
    crossings: tuple[Crossing, ...] = ()
    top: tuple[Slot, ...] = ()
    bottom: tuple[Slot, ...] = ()

    def __post_init__(self):
        for name in ("arcs", "closed", "crossings", "top", "bottom"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        arcs, closed = self.arcs, self.closed
        arc_ids = set(map(_ID, arcs))
        known = arc_ids.union(map(_ID, closed))
        if len(known) != len(arcs) + len(closed):
            raise DiagramError("strand ids must be unique")
        for c in self.crossings:
            if c.over not in known or c.under not in known:
                raise DiagramError("crossing references unknown strand")
        slots = self.top + self.bottom
        ends = set(map(_SLOT_END, slots))
        if len(ends) != len(slots):
            raise DiagramError("an arc end may occupy only one slot")
        if ends != set(product(arc_ids, (0, 1))):
            raise DiagramError("every arc must have both ends in slots, "
                               "and only arcs may have endpoints")

    def color_of(self, sid: str) -> str | None:
        for s in self.arcs + self.closed:
            if s.id == sid:
                return s.color
        raise DiagramError(f"no strand {sid!r}")

    @property
    def is_empty(self) -> bool:
        return not (self.arcs or self.closed or self.crossings)


def empty_tangle() -> ColoredTangle:
    return ColoredTangle()


# The immutable parts half-twist tangles share: walls (bottom by twist
# parity) and the crossing pair of each sign.
_TWIST_TOP = (Slot("a", 0, _IN), Slot("b", 0, _IN))
_TWIST_BOTTOM = ((Slot("a", 1, _OUT), Slot("b", 1, _OUT)),
                 (Slot("b", 1, _OUT), Slot("a", 1, _OUT)))
_POSITIVE_PAIR = (Crossing("a", "b", 1), Crossing("b", "a", 1))
_NEGATIVE_PAIR = (Crossing("b", "a", -1), Crossing("a", "b", -1))


def half_twist_tangle(n: int, colors=(None, None)) -> ColoredTangle:
    """Two arcs with |n| half twists of sign sgn(n).

    The arcs enter at the top and leave at the bottom; an odd number of
    half twists swaps which arc exits where.  Colors default to none so
    the same constructor serves both plain sphere slices and their
    red/blue lifts.  The half twists alternate between two crossings, and
    the crossing tuple repeats those two shared immutable instances
    rather than holding |n| copies.
    """
    ca, cb = colors
    arcs = (Strand("a", ca), Strand("b", cb))
    pair = _POSITIVE_PAIR if n > 0 else _NEGATIVE_PAIR
    k = abs(n)
    return ColoredTangle(arcs, (), pair * (k // 2) + pair[:k % 2],
                         _TWIST_TOP, _TWIST_BOTTOM[n % 2])


def _map_crossings(crossings, image) -> tuple:
    """``tuple(image(c) for c in crossings)``, calling ``image`` once per
    distinct crossing instance.

    Crossings are immutable, so positions may share one instance
    (``half_twist_tangle`` builds only two); the result shares its
    instances the same way.  ``image`` must depend only on the crossing.
    """
    images = {}
    out = []
    for c in crossings:
        new = images.get(id(c))
        if new is None:
            new = images[id(c)] = image(c)
        out.append(new)
    return tuple(out)


def _flip(c: Crossing) -> Crossing:
    return Crossing(c.under, c.over, -c.sign)


_REVERSE = {_IN: _OUT, _OUT: _IN}


def _reversed(wall) -> tuple:
    return tuple(Slot(s.arc, s.end, _REVERSE[s.orientation]) for s in wall)


def reverse_mirror(t: ColoredTangle) -> ColoredTangle:
    """Reverse every orientation and flip every crossing.

    This is the end-swap a product region induces on its far wall:
    reverse_mirror(half_twist_tangle(n)) has the crossing list of
    half_twist_tangle(-n).  Each distinct crossing instance of ``t`` is
    flipped once, so the result shares its immutable crossings the way
    ``t`` does.
    """
    return ColoredTangle(t.arcs, t.closed, _map_crossings(t.crossings, _flip),
                         _reversed(t.top), _reversed(t.bottom))


class _Merge:
    """Union-find over strand keys, with deterministic class listing."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x = p
            p = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass(frozen=True)
class LinkComponent:
    id: str
    color: str | None = None
    orientation: int = 1

    def __post_init__(self):
        _require_exact(str, (self.id,), "component ids", DiagramError)
        _require_exact(int, (self.orientation,), "orientation", DiagramError)
        if self.color not in _COMPONENT_COLORS:
            raise DiagramError(f"unknown color {self.color!r}")
        if self.orientation not in (1, -1):
            raise DiagramError("orientation must be +-1")


@dataclass(frozen=True)
class BicoloredLink:
    """A closed diagram: colored components and signed crossings."""

    components: tuple[LinkComponent, ...] = ()
    crossings: tuple[Crossing, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "crossings", tuple(self.crossings))
        known = set(map(_ID, self.components))
        if len(known) != len(self.components):
            raise DiagramError("component ids must be unique")
        for c in self.crossings:
            if c.over not in known or c.under not in known:
                raise DiagramError("crossing references unknown component")

    def color_of(self, cid: str) -> str | None:
        for c in self.components:
            if c.id == cid:
                return c.color
        raise DiagramError(f"no component {cid!r}")


def close_tangle(t: ColoredTangle) -> BicoloredLink:
    """Close a tangle by joining top slot k to bottom slot k.

    The join arcs carry no crossings, so the closure is unique.  Colors
    must agree at matched slots and the strands must run through the
    joins head to tail.
    """
    if len(t.top) != len(t.bottom):
        raise ColorMismatch("closure needs equally many top and bottom slots")
    merge = _Merge()
    for k, (ts, bs) in enumerate(zip(t.top, t.bottom)):
        if t.color_of(ts.arc) != t.color_of(bs.arc):
            raise ColorMismatch(
                f"slot {k}: cannot join {t.color_of(ts.arc)!r} to {t.color_of(bs.arc)!r}")
        if ts.orientation == bs.orientation:
            raise OrientationMismatch(f"slot {k}: strands do not run head to tail")
        merge.union(ts.arc, bs.arc)
    rename = {}
    comps = []
    for s in t.arcs:
        root = merge.find(s.id)
        if root not in rename:
            rename[root] = root
            comps.append(LinkComponent(root, t.color_of(root)))
    for s in t.closed:
        comps.append(LinkComponent(s.id, s.color))
    def target(sid):
        return merge.find(sid) if any(a.id == sid for a in t.arcs) else sid
    crossings = tuple(Crossing(target(c.over), target(c.under), c.sign)
                      for c in t.crossings)
    return BicoloredLink(tuple(comps), crossings)


def stack_tangles(upper: ColoredTangle, lower: ColoredTangle) -> ColoredTangle:
    """Glue the bottom wall of ``upper`` to the top wall of ``lower``."""
    if len(upper.bottom) != len(lower.top):
        raise ColorMismatch("stacking needs matching wall widths")
    up = {s.id: ("u", s.id) for s in upper.arcs + upper.closed}
    lo = {s.id: ("l", s.id) for s in lower.arcs + lower.closed}
    merge = _Merge()
    for k, (bs, ts) in enumerate(zip(upper.bottom, lower.top)):
        if upper.color_of(bs.arc) != lower.color_of(ts.arc):
            raise ColorMismatch(f"wall slot {k}: colors differ")
        if bs.orientation == ts.orientation:
            raise OrientationMismatch(f"wall slot {k}: strands do not run head to tail")
        merge.union(up[bs.arc], lo[ts.arc])
    # Deterministic ids for the merged strands.
    order = ([up[s.id] for s in upper.arcs] + [lo[s.id] for s in lower.arcs]
             + [up[s.id] for s in upper.closed] + [lo[s.id] for s in lower.closed])
    color = {up[s.id]: s.color for s in upper.arcs + upper.closed}
    color.update({lo[s.id]: s.color for s in lower.arcs + lower.closed})
    name = {}
    for key in order:
        root = merge.find(key)
        if root not in name:
            name[root] = f"s{len(name)}"
    def rename(key):
        return name[merge.find(key)]
    arcs, closed, seen = [], [], set()
    open_ends = {rename(up[s.arc]) for s in upper.top}
    open_ends |= {rename(lo[s.arc]) for s in lower.bottom}
    for key in order:
        nid = rename(key)
        if nid in seen:
            continue
        seen.add(nid)
        strand = Strand(nid, color[key])
        (arcs if nid in open_ends else closed).append(strand)
    crossings = [Crossing(rename(up[c.over]), rename(up[c.under]), c.sign)
                 for c in upper.crossings]
    crossings += [Crossing(rename(lo[c.over]), rename(lo[c.under]), c.sign)
                  for c in lower.crossings]
    top = tuple(Slot(rename(up[s.arc]), s.end, s.orientation) for s in upper.top)
    bottom = tuple(Slot(rename(lo[s.arc]), s.end, s.orientation) for s in lower.bottom)
    return ColoredTangle(tuple(arcs), tuple(closed), tuple(crossings), top, bottom)


# --------------------------------------------------------------------------
# closed-diagram operations


def braid_closure_link(word: BraidWord, colors=None) -> BicoloredLink:
    """Closure of a braid word as a closed diagram in the 3-sphere.

    Components are named c0, c1, ... by smallest strand; ``colors``
    assigns one color per component in that order.
    """
    cycles = word.cycles()
    if colors is None:
        colors = [None] * len(cycles)
    if len(colors) != len(cycles):
        raise DiagramError(f"expected {len(cycles)} colors")
    owner = {}
    comps = []
    for i, cyc in enumerate(cycles):
        cid = f"c{i}"
        comps.append(LinkComponent(cid, colors[i]))
        for s in cyc:
            owner[s] = cid
    crossings = []
    for a, b, sign in word.letter_strands():
        if sign > 0:
            crossings.append(Crossing(owner[a], owner[b], 1))
        else:
            crossings.append(Crossing(owner[b], owner[a], -1))
    return BicoloredLink(tuple(comps), tuple(crossings))


def bicolored_linking(link: BicoloredLink) -> int:
    """Half the signed sum of crossings between red and blue components.

    Same-color and self crossings do not count.  Every component must be
    colored; a closed diagram always has an even mixed count, so the
    result is an integer.
    """
    for comp in link.components:
        if comp.color not in (RED, BLUE):
            raise DiagramError(f"component {comp.id!r} is not colored red or blue")
    color = {c.id: c.color for c in link.components}
    total = sum(c.sign for c in link.crossings if color[c.over] != color[c.under])
    if total % 2:
        raise DiagramError("mixed crossings of a closed diagram must pair up")
    return total // 2


def mirror_image(d):
    """Flip every crossing of a tangle or link."""
    return replace(d, crossings=_map_crossings(d.crossings, _flip))


def swap_colors(d):
    """Exchange red and blue on a tangle or link; other colors stay."""
    flip = {RED: BLUE, BLUE: RED}
    def strands(items):
        return tuple(replace(s, color=flip.get(s.color, s.color)) for s in items)
    if isinstance(d, ColoredTangle):
        return replace(d, arcs=strands(d.arcs), closed=strands(d.closed))
    if isinstance(d, BicoloredLink):
        return replace(d, components=strands(d.components))
    raise DiagramError("swap_colors expects a tangle or a link")


def _component_ids(d):
    if isinstance(d, ColoredTangle):
        return [s.id for s in d.arcs + d.closed]
    if isinstance(d, BicoloredLink):
        return [c.id for c in d.components]
    raise DiagramError("Reidemeister moves expect a tangle or a link")


def reidemeister(d, move: str, site):
    """Apply a Reidemeister move at the given site.

    The diagram types here see only crossing lists, so the moves act on
    that data: R1 adds a kink (component, sign), R2 adds a cancelling
    clasp (over, under, sign), and R3 slides a strand across a crossing,
    which permutes the three chosen crossings without changing either
    the count or any linking number.  Sites that do not match the
    pattern raise BadSite.
    """
    ids = set(_component_ids(d))
    if move == "R1":
        try:
            comp, sign = site
        except (TypeError, ValueError):
            raise BadSite("R1 site is (component, sign)") from None
        if comp not in ids or sign not in (1, -1):
            raise BadSite(f"no R1 site at {site!r}")
        return replace(d, crossings=d.crossings + (Crossing(comp, comp, sign),))
    if move == "R2":
        try:
            over, under, sign = site
        except (TypeError, ValueError):
            raise BadSite("R2 site is (over, under, sign)") from None
        if over not in ids or under not in ids or sign not in (1, -1):
            raise BadSite(f"no R2 site at {site!r}")
        extra = (Crossing(over, under, sign), Crossing(over, under, -sign))
        return replace(d, crossings=d.crossings + extra)
    if move == "R3":
        try:
            i, j, k = site
        except (TypeError, ValueError):
            raise BadSite("R3 site is three crossing indices") from None
        n = len(d.crossings)
        if len({i, j, k}) != 3 or not all(0 <= x < n for x in (i, j, k)):
            raise BadSite(f"no R3 site at {site!r}")
        trio = [d.crossings[x] for x in (i, j, k)]
        pairs = [frozenset((c.over, c.under)) for c in trio]
        if any(len(p) != 2 for p in pairs):
            raise BadSite("R3 does not apply to kinks")
        strands = frozenset().union(*pairs)
        if len(strands) != 3 or len(set(pairs)) != 3:
            raise BadSite("R3 needs three mutually crossing strands")
        # Some strand must be the one slid across: over in two crossings.
        if not any(sum(c.over == s for c in trio) == 2 for s in strands):
            raise BadSite("R3 needs a strand passing over two of the crossings")
        new = list(d.crossings)
        new[i], new[j], new[k] = new[k], new[i], new[j]
        return replace(d, crossings=tuple(new))
    raise DiagramError(f"unknown Reidemeister move {move!r}")
