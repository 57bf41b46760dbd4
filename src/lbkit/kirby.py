"""Handle decompositions of 4-manifolds as dotted-circle diagrams.

A diagram here is: one implicit 0-handle, dotted circles for 1-handles,
framed 2-handle curves with winding vectors over the dotted circles, and
bare counts of 3- and 4-handles.  The full pairwise linking matrix is
stored explicitly because homology reads it directly.

The distinguished family built by ``build_diagram(p, q)`` has one dotted
circle and three 2-handles: two curves winding twice around the dotted
circle (framed p and q) and a 0-framed dual curve linking the q-framed
one exactly once.  That single linking is what makes the dual handle's
core close up to a sphere meeting the twisted spheres once (so the pair
has a common dual), and it is what a slide over the dual uses to change
q by 2.  The twisted spheres studied downstream live in these manifolds:
``standard_sphere`` records their class over the 2-handles and their
twist count, from which the slice tangle and the self-intersection
square are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .diagrams import (
    PURPLE,
    AnnularComponent,
    AnnularLink,
    BraidWord,
    ColoredTangle,
    DiagramError,
    half_twist_tangle,
    normalize_to_writhe,
)
from .homology import _require_exact

__all__ = [
    "TwoHandle", "KirbyDiagram", "SphereEmbedding",
    "build_diagram", "euler_characteristic", "handle_slide", "double",
    "family_parameters", "ensure_attaching",
    "standard_sphere", "sphere_square", "sphere_tangle",
]


@dataclass(frozen=True)
class TwoHandle:
    """A framed 2-handle: its attaching curve is recorded through the
    winding vector (one algebraic winding per dotted circle)."""

    id: str
    framing: int
    winding: tuple[int, ...]

    def __post_init__(self):
        _require_exact(str, (self.id,), "handle ids", DiagramError)
        if type(self.winding) is not tuple:
            object.__setattr__(self, "winding", tuple(self.winding))
        _require_exact(int, (self.framing,), "framing of {!r}", DiagramError, self.id)
        _require_exact(int, self.winding, "winding of {!r}", DiagramError, self.id)


@dataclass(frozen=True)
class KirbyDiagram:
    """Immutable handle-decomposition data.

    ``linking`` is the symmetric matrix over dotted circles followed by
    2-handles, in storage order; diagonal entries are 0 for dotted
    circles and the framing for 2-handles, and the dotted-circle block
    must vanish (dotted circles span an unlink).  ``attaching``
    optionally carries the 2-handle curves as an annular link around the
    dotted circle; it is required by covering constructions and dropped
    by operations that leave the braid-closure form.
    """

    dotted: tuple[str, ...]
    two_handles: tuple[TwoHandle, ...]
    linking: tuple[tuple[int, ...], ...]
    three_handles: int = 0
    four_handles: int = 0
    attaching: AnnularLink | None = None

    def __post_init__(self):
        if type(self.dotted) is not tuple:
            object.__setattr__(self, "dotted", tuple(self.dotted))
        if type(self.two_handles) is not tuple:
            object.__setattr__(self, "two_handles", tuple(self.two_handles))
        _require_exact(str, self.dotted, "handle ids", DiagramError)
        m = tuple(map(tuple, self.linking))
        object.__setattr__(self, "linking", m)
        _require_exact(int, chain.from_iterable(m), "linking entries", DiagramError)
        _require_exact(int, (self.three_handles, self.four_handles),
                       "handle counts", DiagramError)
        ids = list(self.dotted) + [h.id for h in self.two_handles]
        if len(set(ids)) != len(ids):
            raise DiagramError("handle ids must be unique")
        d, n = len(self.dotted), len(self.two_handles)
        for h in self.two_handles:
            if len(h.winding) != d:
                raise DiagramError(
                    f"handle {h.id!r} needs one winding entry per dotted circle")
        if len(m) != d + n or any(len(row) != d + n for row in m):
            raise DiagramError("linking matrix must cover all dotted circles "
                               "and 2-handles")
        if m != tuple(zip(*m)):
            raise DiagramError("linking matrix must be symmetric")
        for i in range(d):
            for j in range(d):
                if m[i][j] != 0:
                    raise DiagramError("dotted circles must form an unlink")
            for j, h in enumerate(self.two_handles):
                if m[i][d + j] != h.winding[i]:
                    raise DiagramError(
                        f"linking of {h.id!r} with {self.dotted[i]!r} must "
                        "equal its winding")
        for j, h in enumerate(self.two_handles):
            if m[d + j][d + j] != h.framing:
                raise DiagramError(
                    f"diagonal entry of {h.id!r} must equal its framing")
        if self.three_handles < 0 or self.four_handles < 0:
            raise DiagramError("handle counts cannot be negative")
        if self.attaching is not None:
            self._check_attaching()

    def _check_attaching(self):
        if len(self.dotted) != 1:
            raise DiagramError("attaching data requires exactly one dotted "
                               "circle (the braid axis)")
        by_id = {c.id: c for c in self.attaching.all_components()}
        if set(by_id) != {h.id for h in self.two_handles}:
            raise DiagramError("attaching components must match 2-handle ids")
        for h in self.two_handles:
            comp = by_id[h.id]
            if comp.winding != h.winding[0]:
                raise DiagramError(
                    f"attaching winding of {h.id!r} disagrees with the diagram")
            if comp.framing != h.framing:
                raise DiagramError(
                    f"attaching framing of {h.id!r} disagrees with the diagram")

    def handle(self, hid: str) -> TwoHandle:
        for h in self.two_handles:
            if h.id == hid:
                return h
        raise DiagramError(f"no 2-handle {hid!r}")

    def index(self, hid: str) -> int:
        """Row index of a dotted circle or 2-handle in the linking matrix."""
        ids = list(self.dotted) + [h.id for h in self.two_handles]
        try:
            return ids.index(hid)
        except ValueError:
            raise DiagramError(f"no handle {hid!r}") from None

    def lk(self, a: str, b: str) -> int:
        return self.linking[self.index(a)][self.index(b)]


def euler_characteristic(d: KirbyDiagram) -> int:
    """Alternating handle-count sum, with the single implicit 0-handle."""
    return 1 - len(d.dotted) + len(d.two_handles) - d.three_handles + d.four_handles


_FAMILY_WORD = BraidWord(4, ((1, -1), (3, 1)))


def _family_attaching(first: TwoHandle, second: TwoHandle,
                      dual: TwoHandle) -> AnnularLink:
    """The family attaching link of these handles, normalized to writhe.

    ``first`` takes a negative and ``second`` a positive half twist on
    disjoint strand pairs: the sign split that makes the two curves'
    double covers come out framed f+1 and f-1.  ``dual`` is split.
    """
    return normalize_to_writhe(AnnularLink(
        _FAMILY_WORD,
        (AnnularComponent(first.id, frozenset({1, 2}), None, first.framing),
         AnnularComponent(second.id, frozenset({3, 4}), None, second.framing)),
        (AnnularComponent(dual.id, frozenset(), PURPLE, dual.framing),)))


def build_diagram(p: int, q: int) -> KirbyDiagram:
    """The two-parameter family: one dotted circle, two doubly-winding
    2-handles framed p and q, and a 0-framed dual curve linking the
    q-framed handle once and the p-framed handle not at all.

    The lopsided dual linking is forced twice over: the twisted spheres
    (class upper+lower) must meet the dual sphere once, and a slide of
    the lower handle over the dual must reproduce the (p, q+-2) diagram
    exactly.  It also makes the boundary homology of the diagram and of
    its double cover independent of q, as the slide equivalence demands.

    The returned diagram carries its attaching link (already normalized
    to writhe) so that covers can be taken directly.
    """
    _require_exact(int, (p, q), "family parameters", DiagramError)
    handles = (
        TwoHandle("upper", p, (2,)),
        TwoHandle("lower", q, (2,)),
        TwoHandle("dual", 0, (0,)),
    )
    return KirbyDiagram(
        dotted=("dot",),
        two_handles=handles,
        linking=(
            (0, 2, 2, 0),
            (2, p, 0, 0),
            (2, 0, q, 1),
            (0, 0, 1, 0),
        ),
        attaching=_family_attaching(*handles),
    )


def handle_slide(d: KirbyDiagram, a: str, b: str, eps: int) -> KirbyDiagram:
    """Slide 2-handle ``a`` over 2-handle ``b`` (band sum with sign eps).

    The linking matrix transforms by the unimodular congruence that adds
    eps times the b row/column to the a row/column; the new framing of a
    is read off the new diagonal, which works out to
    framing(a) + framing(b) + 2*eps*lk(a,b).  Homology computed from the
    matrices is unchanged.  The braid-closure attaching form does not
    survive a band sum, so the result carries no attaching link.
    """
    if eps not in (1, -1):
        raise DiagramError("slide sign must be +-1")
    if a == b:
        raise DiagramError("cannot slide a handle over itself")
    if a in d.dotted or b in d.dotted:
        raise DiagramError("handle slides apply to 2-handles only")
    ia, ib = d.index(a), d.index(b)
    m = [list(row) for row in d.linking]
    size = len(m)
    for k in range(size):
        m[ia][k] += eps * m[ib][k]
    for k in range(size):
        m[k][ia] += eps * m[k][ib]
    ja = ia - len(d.dotted)
    jb = ib - len(d.dotted)
    hb = d.two_handles[jb]
    handles = list(d.two_handles)
    old = handles[ja]
    handles[ja] = TwoHandle(
        old.id,
        m[ia][ia],
        tuple(w + eps * wb for w, wb in zip(old.winding, hb.winding)),
    )
    return KirbyDiagram(
        d.dotted, tuple(handles), tuple(tuple(row) for row in m),
        d.three_handles, d.four_handles, attaching=None)


def double(d: KirbyDiagram) -> KirbyDiagram:
    """Glue the manifold to itself along its boundary.

    Diagrammatically: one new 0-framed 2-handle on the meridian of each
    existing 2-handle curve (linking its parent once and nothing else),
    one 3-handle per dotted circle, and one 4-handle.
    """
    dcount, n = len(d.dotted), len(d.two_handles)
    meridians = tuple(
        TwoHandle(f"{h.id}.m", 0, (0,) * dcount) for h in d.two_handles)
    size = dcount + 2 * n
    m = [[0] * size for _ in range(size)]
    for i in range(dcount + n):
        for j in range(dcount + n):
            m[i][j] = d.linking[i][j]
    for k in range(n):
        parent = dcount + k
        mer = dcount + n + k
        m[parent][mer] = m[mer][parent] = 1
    return KirbyDiagram(
        d.dotted, d.two_handles + meridians,
        tuple(tuple(row) for row in m),
        d.three_handles + dcount, d.four_handles + 1,
        attaching=None)


def _family_handles(d: KirbyDiagram) -> tuple[TwoHandle, TwoHandle, TwoHandle]:
    """The (p-handle, q-handle, dual) of a family-shaped diagram.

    The two winding-2 handles are told apart by the dual: the q-handle
    links it once, the p-handle not at all.  Raises DiagramError when
    the diagram does not have the family shape.
    """
    if len(d.dotted) != 1 or len(d.two_handles) != 3:
        raise DiagramError("not a family diagram: wrong handle counts")
    if d.three_handles or d.four_handles:
        raise DiagramError("not a family diagram: has 3- or 4-handles")
    wound = [h for h in d.two_handles if h.winding == (2,)]
    flat = [h for h in d.two_handles if h.winding == (0,)]
    if len(wound) != 2 or len(flat) != 1:
        raise DiagramError("not a family diagram: winding vector pattern "
                           "must be two 2s and one 0")
    dual = flat[0]
    if dual.framing != 0:
        raise DiagramError("not a family diagram: dual curve must be 0-framed")
    if d.lk(wound[0].id, wound[1].id) != 0:
        raise DiagramError("not a family diagram: winding curves must not link")
    links = sorted(wound, key=lambda h: d.lk(dual.id, h.id))
    if d.lk(dual.id, links[0].id) != 0 or d.lk(dual.id, links[1].id) != 1:
        raise DiagramError("not a family diagram: dual must link exactly one "
                           "winding curve, once")
    return links[0], links[1], dual


def family_parameters(d: KirbyDiagram) -> tuple[int, int]:
    """The (p, q) of a diagram with the built family's shape: p is the
    framing of the winding handle away from the dual, q of the one the
    dual links."""
    ph, qh, _ = _family_handles(d)
    return ph.framing, qh.framing


def ensure_attaching(d: KirbyDiagram) -> KirbyDiagram:
    """Return d with its attaching link populated.

    Diagrams that already carry one pass through; otherwise the diagram
    must have the built family's shape, and the attaching link is
    reconstructed with the diagram's own handle ids.  The p-handle (the
    winding handle away from the dual) takes the negative half twist,
    the branch whose cover framings shift up by one.
    """
    if d.attaching is not None:
        return d
    return replace(d, attaching=_family_attaching(*_family_handles(d)))


@dataclass(frozen=True)
class SphereEmbedding:
    """An embedded sphere in a family manifold: its homology class over
    the 2-handles plus the twist count of its slice tangle."""

    ambient: KirbyDiagram
    twists: int
    class_vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_vector", tuple(self.class_vector))
        _require_exact(int, (self.twists, *self.class_vector),
                       "twist count and class vector", DiagramError)
        if len(self.class_vector) != len(self.ambient.two_handles):
            raise DiagramError("class vector needs one entry per 2-handle")


def standard_sphere(d: KirbyDiagram, twists: int) -> SphereEmbedding:
    """The twist-family sphere: class 1 on each winding 2-handle, 0 on
    the dual and on any meridians.  The class is independent of the
    twist count; only the slice tangle changes.
    """
    vector = tuple(1 if any(w != 0 for w in h.winding) else 0
                   for h in d.two_handles)
    if sum(vector) != 2:
        raise DiagramError("the standard sphere needs exactly two winding "
                           "2-handles in the ambient diagram")
    return SphereEmbedding(d, twists, vector)


def sphere_square(s: SphereEmbedding) -> int:
    """Self-intersection of the sphere class: the class vector paired
    with itself under the 2-handle block of the linking matrix."""
    d = len(s.ambient.dotted)
    m = s.ambient.linking
    v = s.class_vector
    return sum(v[i] * v[j] * m[d + i][d + j]
               for i in range(len(v)) for j in range(len(v)))


def sphere_tangle(s: SphereEmbedding) -> ColoredTangle:
    """Cross-section of the sphere in the slicing ball: an uncolored
    tangle with one half twist per twist of the sphere."""
    return half_twist_tangle(s.twists)
