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
For the model slices of the twist family the core works out to half the
twist difference, which is where the mod-4 classification comes from.

The closed-manifold variant adds two cap links and their per-color
winding numbers; symmetry of the caps and of the sides keeps every
added term even, so the parity is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    BLUE,
    RED,
    BicoloredLink,
    ColorMismatch,
    ColoredTangle,
    Crossing,
    DiagramError,
    LinkComponent,
    Slot,
    Strand,
    bicolored_linking,
    half_twist_tangle,
    reverse_mirror,
)

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


def _arc_of_color(t: ColoredTangle, color: str):
    arcs = [s for s in t.arcs if s.color == color]
    if len(arcs) > 1:
        raise ColorMismatch(f"expected at most one {color} arc")
    return arcs[0] if arcs else None


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
        for name, color in zip(_SIDE_NAMES, _SIDE_COLORS):
            side = getattr(self, name)
            if len(side.arcs) > 1:
                raise ColorMismatch(
                    f"{name} must have at most one through-arc")
            if side.arcs and side.arcs[0].color != color:
                raise ColorMismatch(
                    f"{name} through-arc must be colored {color}")
        for tangle, which in ((self.inner, "inner"), (self.outer, "outer")):
            for arc in tangle.arcs:
                if arc.color not in (RED, BLUE):
                    raise ColorMismatch(
                        f"{which} arcs must be red or blue, got {arc.color!r}")
        for color in (RED, BLUE):
            present = self._color_present(color)
            sides = [getattr(self, name)
                     for name, c in zip(_SIDE_NAMES, _SIDE_COLORS) if c == color]
            for tangle, which in ((self.inner, "inner"), (self.outer, "outer")):
                if (_arc_of_color(tangle, color) is not None) != present:
                    raise ColorMismatch(
                        f"{which} tangle must have a {color} arc exactly when "
                        "the matching sides do")
            if any(bool(s.arcs) != present for s in sides):
                raise ColorMismatch(
                    f"the two {color} sides must both be present or absent")

    def _color_present(self, color: str) -> bool:
        return any(s.arcs and s.arcs[0].color == color
                   for s, c in zip(self._sides(), _SIDE_COLORS) if c == color)

    def _sides(self):
        return tuple(getattr(self, name) for name in _SIDE_NAMES)


def trivial_side(color: str) -> ColoredTangle:
    """A product side: one straight through-arc, nothing else."""
    return ColoredTangle(
        arcs=(Strand("t", color),),
        top=(Slot("t", 0, "in"),),
        bottom=(Slot("t", 1, "out"),),
    )


def clasped_side(color: str, clasps: int = 0,
                 plain_extras: int = 0) -> ColoredTangle:
    """A through-arc clasped ``clasps`` times with one closed component of
    the opposite color (closure linking ``clasps``), plus
    ``plain_extras`` unlinked closed components of its own color."""
    other = BLUE if color == RED else RED
    sign = 1 if clasps >= 0 else -1
    closed = (Strand("u", other),) + tuple(
        Strand(f"e{k}", color) for k in range(plain_extras))
    return ColoredTangle(
        arcs=(Strand("t", color),),
        closed=closed,
        crossings=tuple(Crossing("t", "u", sign)
                        for _ in range(2 * abs(clasps))),
        top=(Slot("t", 0, "in"),),
        bottom=(Slot("t", 1, "out"),),
    )


def cap_link(linking: int) -> BicoloredLink:
    """A red/blue cap link with red-blue linking number ``linking``."""
    sign = 1 if linking >= 0 else -1
    return BicoloredLink(
        components=(LinkComponent("r", RED), LinkComponent("b", BLUE)),
        crossings=tuple(Crossing("r", "b", sign)
                        for _ in range(2 * abs(linking))))


def model_slice(i: int, j: int) -> ConcordanceSlice:
    """The model slice between the twist-i and twist-j spheres.

    Inner tangle: the lifted ball tangle of the first sphere.  Outer:
    the reverse mirror of the second sphere's, as the far end of a
    product region presents it.  Sides: trivial, symmetric under the
    color exchange.
    """
    return ConcordanceSlice(
        inner=half_twist_tangle(i, (RED, BLUE)),
        outer=reverse_mirror(half_twist_tangle(j, (RED, BLUE))),
        side_plus_red=trivial_side(RED),
        side_plus_blue=trivial_side(BLUE),
        side_minus_red=trivial_side(RED),
        side_minus_blue=trivial_side(BLUE),
    )


def closure_of_side(t: ColoredTangle) -> BicoloredLink:
    """Close a side tangle's through-arc around the cylinder wall.

    The closing arc runs through the wall without new crossings, so the
    closure is unique: the through-arc becomes a closed component and
    everything else is carried over.
    """
    if len(t.arcs) != 1:
        raise DiagramError("a side closure needs exactly one through-arc")
    arc = t.arcs[0]
    comps = (LinkComponent(arc.id, arc.color),) + tuple(
        LinkComponent(s.id, s.color) for s in t.closed)
    return BicoloredLink(comps, t.crossings)


def side_linking(t: ColoredTangle) -> int:
    """Red-blue linking of a side's closure; 0 for an empty side."""
    if t.is_empty:
        return 0
    return bicolored_linking(closure_of_side(t))


def _merge_regions(regions) -> BicoloredLink:
    """Merge tangles into one closed diagram: arcs fuse into one
    component per color, closed components are kept with region-prefixed
    ids."""
    components = []
    present = set()
    for _, tangle in regions:
        for arc in tangle.arcs:
            present.add(arc.color)
    for color in (RED, BLUE):
        if color in present:
            components.append(LinkComponent(color, color))
    rename = {}
    for label, tangle in regions:
        for arc in tangle.arcs:
            rename[(label, arc.id)] = arc.color
        for s in tangle.closed:
            new = f"{label}.{s.id}"
            rename[(label, s.id)] = new
            components.append(LinkComponent(new, s.color))
    crossings = []
    for label, tangle in regions:
        for c in tangle.crossings:
            crossings.append(Crossing(
                rename[(label, c.over)], rename[(label, c.under)], c.sign))
    return BicoloredLink(tuple(components), tuple(crossings))


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


def _core_linking(s: ConcordanceSlice) -> int:
    """Linking contribution of the inner and outer tangles alone."""
    core = _merge_regions([("inner", s.inner), ("outer", s.outer)])
    return bicolored_linking(core)


def slice_linking(s: ConcordanceSlice) -> int:
    """Red-blue linking of the assembled boundary link.

    Computed as core term plus one closure term per side, then checked
    against the direct count on the assembled link; the two ways agree
    because regions never share crossings.
    """
    value = _core_linking(s) + sum(side_linking(t) for t in s._sides())
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


def closed_model_data(s: ConcordanceSlice) -> ClosedCaseData:
    """Degenerate closed-case data: empty caps, zero windings."""
    empty = BicoloredLink()
    return ClosedCaseData(s, empty, empty)


def cap_symmetry_holds(d: ClosedCaseData) -> bool:
    """Whether the two caps agree in linking and in both color windings."""
    return (bicolored_linking(d.cap_plus) == bicolored_linking(d.cap_minus)
            and d.red_winding_plus == d.red_winding_minus
            and d.blue_winding_plus == d.blue_winding_minus)


def closed_case_linking(d: ClosedCaseData) -> int:
    """Boundary-link linking in the closed case: the slice value plus
    cap linkings plus all four winding counts.  Degenerates to
    slice_linking when the extras vanish."""
    windings = (d.red_winding_plus + d.red_winding_minus
                + d.blue_winding_plus + d.blue_winding_minus)
    return (slice_linking(d.slice) + windings
            + bicolored_linking(d.cap_plus) + bicolored_linking(d.cap_minus))


def concordance_obstruction(i: int, j: int, closed: bool = False) -> int:
    """Parity obstruction between the twist-i and twist-j spheres.

    Builds the model slice and returns the boundary link's linking
    parity: 1 obstructs any concordance, 0 is consistent with one.  The
    value works out to ((i - j) / 2) mod 2.
    """
    if (i - j) % 2:
        raise NotHomotopic(
            f"twist counts {i} and {j} differ in parity; the spheres are "
            "not homotopic and no slice connects them")
    s = model_slice(i, j)
    if closed:
        value = closed_case_linking(closed_model_data(s))
    else:
        value = slice_linking(s)
    return value % 2
