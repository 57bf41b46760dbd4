"""The linking-parity obstruction to concordance of twisted spheres.

A concordance between two sphere lifts meets the cylinder over the
slicing ball in a surface whose boundary is a closed red/blue link: the
inner ball's tangle at one end, the reverse mirror of the other ball's
tangle at the far end, and four side tangles (one per color per end)
running along the cylinder wall.  A concordance forces that boundary
link's red-blue linking number to be even, so an odd value obstructs.

The evaluators below compute that linking number two ways and check
they agree: globally, from the assembled link, and as the sum of a core
term (inner and outer tangles alone) plus one closure term per side.
The global count merges every region into one ``BicoloredLink``, which
its checking constructor builds, and counts its crossings.  The terms
build no link: each is read off its tangles' own strand colors, run by
run, with the same checks and messages as ``bicolored_linking`` on the
merge or closure it stands for, and a side object serving several sides
is counted once.  For the model slices of the twist family the core
works out to half the twist difference, which is where the mod-4
classification comes from.  A model slice, its twist tangles and their
reverse mirror are built unchecked (``_built``) from checked parts: the
shared arcs, crossings, walls and trivial sides; the merged link stays
checked, so the global count does not rest on them.  Both ends come from
``_twist_end``, at most 2,048 tangles by count, typed so ``True`` misses ``1``.

The closed-manifold variant adds two cap links and their per-color
winding numbers; symmetry of the caps and of the sides keeps every
added term even, so the parity is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagrams import (
    BLUE,
    RED,
    BicoloredLink,
    ColorMismatch,
    ColoredTangle,
    Crossing,
    DiagramError,
    LinkComponent,
    Runs,
    Slot,
    Strand,
    _half_mixed_sum,
    bicolored_linking,
    half_twist_tangle,
    reverse_mirror,
)
from .homology import _built, _require_exact

__all__ = [
    "NotHomotopic",
    "ConcordanceSlice", "ClosedCaseData",
    "trivial_side", "clasped_side", "cap_link",
    "model_slice", "closed_model_data",
    "assemble_link", "closure_of_side", "side_linking",
    "slice_linking", "closed_case_linking",
    "side_symmetry_holds", "cap_symmetry_holds",
    "concordance_obstruction",
]


class NotHomotopic(ValueError):
    """The two spheres are not homotopic, so no concordance slice exists."""


_SIDE_NAMES = ("side_plus_red", "side_plus_blue",
               "side_minus_red", "side_minus_blue")
_SIDE_COLORS = (RED, BLUE, RED, BLUE)


@dataclass(frozen=True)
class ConcordanceSlice:
    """Boundary data of a hypothetical concordance over the slicing ball.

    ``inner`` is the tangle at the near end of the cylinder, ``outer``
    the (reverse-mirrored) tangle at the far end.  Each side tangle
    carries at most one through-arc, of the color in its name, plus any
    closed components; an empty side is the degenerate case of an empty
    slice.  Per color, the inner arc, outer arc, and both side
    through-arcs must all be present or all absent.
    """

    inner: ColoredTangle
    outer: ColoredTangle
    side_plus_red: ColoredTangle
    side_plus_blue: ColoredTangle
    side_minus_red: ColoredTangle
    side_minus_blue: ColoredTangle

    def __post_init__(self):
        sides = self._sides()
        for name, color, side in zip(_SIDE_NAMES, _SIDE_COLORS, sides):
            if len(side.arcs) > 1:
                raise ColorMismatch(
                    f"{name} must have at most one through-arc")
            if side.arcs and side.arcs[0].color != color:
                raise ColorMismatch(
                    f"{name} through-arc must be colored {color}")
        ends = ((self.inner, "inner"), (self.outer, "outer"))
        for tangle, which in ends:
            for arc in tangle.arcs:
                if arc.color not in (RED, BLUE):
                    raise ColorMismatch(
                        f"{which} arcs must be red or blue, got {arc.color!r}")
        # A side's through-arc has its side's color (checked above), so a
        # color is present when either of its two sides has an arc.
        for color, plus, minus in ((RED, sides[0], sides[2]),
                                   (BLUE, sides[1], sides[3])):
            present = bool(plus.arcs or minus.arcs)
            for tangle, which in ends:
                count = [arc.color for arc in tangle.arcs].count(color)
                if count > 1:
                    raise ColorMismatch(f"expected at most one {color} arc")
                if (count == 1) != present:
                    raise ColorMismatch(
                        f"{which} tangle must have a {color} arc exactly when "
                        "the matching sides do")
            if bool(plus.arcs) != bool(minus.arcs):
                raise ColorMismatch(
                    f"the two {color} sides must both be present or absent")

    def _sides(self):
        return (self.side_plus_red, self.side_plus_blue,
                self.side_minus_red, self.side_minus_blue)


def trivial_side(color: str) -> ColoredTangle:
    """A product side: one straight through-arc, nothing else."""
    return ColoredTangle(
        arcs=(Strand("t", color),),
        top=(Slot("t", 0, "in"),),
        bottom=(Slot("t", 1, "out"),),
    )


# The sides of every model slice; tangles are immutable, so one of each
# color serves them all.
_TRIVIAL_RED = trivial_side(RED)
_TRIVIAL_BLUE = trivial_side(BLUE)


@lru_cache(maxsize=2048, typed=True)  # typed: True and 1.0 miss 1's entry, and are refused
def _twist_end(n: int, outer: bool) -> ColoredTangle:
    """A model slice's twist-n end: the inner tangle, or (outer) its reverse mirror."""
    return reverse_mirror(_twist_end(n, False)) if outer else half_twist_tangle(n, (RED, BLUE))


def clasped_side(color: str, clasps: int = 0,
                 plain_extras: int = 0) -> ColoredTangle:
    """A through-arc clasped ``clasps`` times with one closed component of
    the opposite color (closure linking ``clasps``), plus
    ``plain_extras`` unlinked closed components of its own color."""
    _require_exact(int, (clasps, plain_extras), "clasps and plain extras", DiagramError)
    other = BLUE if color == RED else RED
    sign = 1 if clasps >= 0 else -1
    closed = (Strand("u", other),) + tuple(
        Strand(f"e{k}", color) for k in range(plain_extras))
    return ColoredTangle(
        arcs=(Strand("t", color),),
        closed=closed,
        crossings=Runs((((Crossing("t", "u", sign),), 2 * abs(clasps)),)),
        top=(Slot("t", 0, "in"),),
        bottom=(Slot("t", 1, "out"),),
    )


def cap_link(linking: int) -> BicoloredLink:
    """A red/blue cap link with red-blue linking number ``linking``."""
    _require_exact(int, (linking,), "cap linking", DiagramError)
    sign = 1 if linking >= 0 else -1
    return BicoloredLink(
        components=(LinkComponent("r", RED), LinkComponent("b", BLUE)),
        crossings=Runs((((Crossing("r", "b", sign),), 2 * abs(linking)),)))


def model_slice(i: int, j: int) -> ConcordanceSlice:
    """The model slice between the twist-i and twist-j spheres.

    Inner tangle: the lifted ball tangle of the first sphere.  Outer:
    the reverse mirror of the second sphere's, as the far end of a
    product region presents it.  Sides: trivial, symmetric under the
    color exchange.  Both ends come from the ``_twist_end`` memo.
    """
    _require_exact(int, (i, j), "twist count", DiagramError)  # a list is no memo key
    # one red and one blue arc at each end, one arc of its color per side
    return _built(ConcordanceSlice, _twist_end(i, False), _twist_end(j, True),
                  _TRIVIAL_RED, _TRIVIAL_BLUE, _TRIVIAL_RED, _TRIVIAL_BLUE)


def _one_through_arc(t: ColoredTangle) -> ColoredTangle:
    if len(t.arcs) != 1:
        raise DiagramError("a side closure needs exactly one through-arc")
    return t


def closure_of_side(t: ColoredTangle) -> BicoloredLink:
    """Close a side tangle's through-arc around the cylinder wall.

    The closing arc runs through the wall without new crossings, so the
    closure is unique: the through-arc becomes a closed component and
    everything else is carried over.
    """
    return BicoloredLink(tuple([LinkComponent(s.id, s.color)
                                for s in _one_through_arc(t).arcs + t.closed]), t.crossings)


def side_linking(t: ColoredTangle) -> int:
    """Red-blue linking of a side's closure, read off the side; 0 if empty."""
    if t.is_empty:
        return 0
    return _half_mixed_sum((("", _one_through_arc(t).arcs + t.closed, t.crossings),))


# The component each color's arcs fuse into, shared by every merge.
_FUSED = {color: LinkComponent(color, color) for color in (RED, BLUE)}


def _merge_regions(regions) -> BicoloredLink:
    """Merge tangles into one closed diagram: arcs fuse into one
    component per color, closed components are kept with region-prefixed
    ids.  Each distinct crossing of a region is renamed once."""
    present, closed, runs = set(), [], []
    for label, tangle in regions:
        rename = {arc.id: arc.color for arc in tangle.arcs}
        present.update(rename.values())
        if not (tangle.closed or tangle.crossings.runs):
            continue  # arcs alone: only their colors enter
        for s in tangle.closed:
            new = rename[s.id] = f"{label}.{s.id}"
            closed.append(LinkComponent(new, s.color))
        runs += tangle.crossings.map(
            lambda c: Crossing(rename[c.over], rename[c.under], c.sign)).runs
    colors = [_FUSED[color] for color in (RED, BLUE) if color in present]
    return BicoloredLink(tuple(colors + closed), Runs(runs))


def assemble_link(s: ConcordanceSlice) -> BicoloredLink:
    """The boundary link of the slice, as a closed red/blue diagram.

    Arcs of one color across the inner tangle, the outer tangle, and the
    two matching sides chain into a single closed component; closed
    components of every region come along unchanged.  An empty slice
    gives the empty link.
    """
    regions = [("inner", s.inner), ("outer", s.outer)]
    regions += list(zip(("side+r", "side+b", "side-r", "side-b"), s._sides()))
    return _merge_regions(regions)


def slice_linking(s: ConcordanceSlice) -> int:
    """Red-blue linking of the assembled boundary link.

    Computed as core term plus one closure term per side, each read off
    its tangles' own strands, then checked against the direct count on
    the assembled link; the two ways agree because regions never share crossings.
    """
    value = _half_mixed_sum([(f"{label}.", t.arcs + t.closed, t.crossings)
                             for label, t in (("inner", s.inner), ("outer", s.outer))])
    distinct = {id(t): t for t in s._sides()}  # by id: hashing a tangle expands its word
    term = {key: side_linking(t) for key, t in distinct.items()}
    value += sum(term[id(t)] for t in s._sides())
    if value != bicolored_linking(assemble_link(s)):
        raise DiagramError(
            "side decomposition disagrees with the assembled link")
    return value


def side_symmetry_holds(s: ConcordanceSlice) -> bool:
    """Whether each end's red and blue sides have equal closure linking.

    Holds whenever the blue side is the deck image of the red side, and
    forces the per-end side sums to be even.
    """
    return (side_linking(s.side_plus_red) == side_linking(s.side_plus_blue)
            and side_linking(s.side_minus_red) == side_linking(s.side_minus_blue))


@dataclass(frozen=True)
class ClosedCaseData:
    """Extra boundary data when the ambient manifold is closed.

    The concordance complement then contributes two cap links and
    per-color winding counts around the cylinder; the winding integers
    are independent data (the links do not remember the circle factor).
    """

    slice: ConcordanceSlice
    cap_plus: BicoloredLink
    cap_minus: BicoloredLink
    red_winding_plus: int = 0
    red_winding_minus: int = 0
    blue_winding_plus: int = 0
    blue_winding_minus: int = 0

    def __post_init__(self):
        _require_exact(int, (self.red_winding_plus, self.red_winding_minus,
                             self.blue_winding_plus, self.blue_winding_minus),
                       "windings", DiagramError)


def closed_model_data(s: ConcordanceSlice) -> ClosedCaseData:
    """Degenerate closed-case data: empty caps, zero windings."""
    empty = BicoloredLink()
    return ClosedCaseData(s, empty, empty)


def cap_symmetry_holds(d: ClosedCaseData) -> bool:
    """Whether the two caps agree in linking and in both color windings."""
    return (bicolored_linking(d.cap_plus) == bicolored_linking(d.cap_minus)
            and d.red_winding_plus == d.red_winding_minus
            and d.blue_winding_plus == d.blue_winding_minus)


def _closed_extras(d: ClosedCaseData) -> int:
    """The closed-case terms beyond the slice value: both cap linkings
    and all four winding counts."""
    windings = (d.red_winding_plus + d.red_winding_minus
                + d.blue_winding_plus + d.blue_winding_minus)
    return windings + bicolored_linking(d.cap_plus) + bicolored_linking(d.cap_minus)


def closed_case_linking(d: ClosedCaseData) -> int:
    """Boundary-link linking in the closed case: the slice value plus
    cap linkings plus all four winding counts.  Degenerates to
    slice_linking when the extras vanish."""
    return slice_linking(d.slice) + _closed_extras(d)


def _model_obstruction(i: int, j: int, closed: bool):
    """The model slice between the twist-i and twist-j spheres, its
    boundary-link linking ``lk_L`` and the obstruction parity, each
    computed once.  Raises NotHomotopic for an odd difference."""
    _require_exact(int, (i, j), "twist counts", DiagramError)
    _require_exact(bool, (closed,), "closed", DiagramError)
    if (i - j) % 2:
        raise NotHomotopic(
            f"twist counts {i} and {j} differ in parity; the spheres are "
            "not homotopic and no slice connects them")
    s = model_slice(i, j)
    lk = slice_linking(s)
    value = lk + _closed_extras(closed_model_data(s)) if closed else lk
    return s, lk, value % 2


def concordance_obstruction(i: int, j: int, closed: bool = False) -> int:
    """Parity obstruction between the twist-i and twist-j spheres.

    Builds the model slice and returns the boundary link's linking
    parity: 1 obstructs any concordance, 0 is consistent with one.  The
    value works out to ((i - j) / 2) mod 2.
    """
    return _model_obstruction(i, j, closed)[2]
