"""Combinatorial link and tangle diagrams.

Every quantity downstream (framings, linking parities, cover data) is
computable from a Gauss-style count, so diagrams here record only what
such a count can see: which components cross, with what sign, plus
boundary bookkeeping for tangles.  No planar embedding is stored, and
crossing words are ``Runs``, handled per run rather than per position.

Three diagram types:

* ``AnnularLink``: a braid closure in a solid torus, with optional
  split unknot components sitting in a ball away from the braid axis.
* ``ColoredTangle``: a rectangular tangle in a ball, with ordered
  endpoint slots on the top and bottom walls.
* ``BicoloredLink``: a closed diagram whose components carry colors.

A ``BraidWord`` owns its closure data, from one pass over its letters; a
power's (a cover's word is ``power(m)``) is read off that same pass. Annular
links, closed diagrams and covers ask the word's methods for it, by cycle index.

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

import reprlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain, product, repeat, starmap
from math import lcm
from operator import attrgetter, eq, itemgetter
from typing import NamedTuple

from .homology import _built, _require_exact

RED = "red"
BLUE = "blue"
PURPLE = "purple"

_COMPONENT_COLORS = (RED, BLUE, PURPLE, None)
_IN = "in"
_OUT = "out"
_ID = attrgetter("id")
_SLOT_END = attrgetter("arc", "end")
_BLOCK = itemgetter(0)
# The most letters a braid word's power may have, and strands a braid word may
# have: refused before a power's letters, or a word's per-strand pass, are built.
MAX_POWER_LETTERS = 1 << 22
MAX_STRANDS = 1 << 16

__all__ = [
    "RED", "BLUE", "PURPLE", "MAX_POWER_LETTERS", "MAX_STRANDS",
    "DiagramError", "ColorMismatch", "OrientationMismatch", "BadSite",
    "BraidWord", "AnnularComponent", "AnnularLink",
    "Runs", "Strand", "Crossing", "Slot", "ColoredTangle",
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


class Runs:
    """An immutable sequence of ``(block, count)`` runs, each the tuple ``block``
    repeated ``count`` times.  ``len``, iteration, indexing, slicing, ``==`` and
    ``hash`` see the expanded tuple; equal neighbouring blocks merge.  ``len()``
    fails past ``sys.maxsize``, so counts and truth tests read the runs instead."""

    __slots__ = ("_runs", "_len")
    runs = property(attrgetter("_runs"))

    def __init__(self, runs=()):
        kept, size = [], 0
        for block, count in runs:
            if count < 0:
                raise DiagramError(f"run counts must be non-negative, got {count}")
            if block and count:
                block = tuple(block)
                size += len(block) * count
                if kept and kept[-1][0] == block:
                    block, count = kept[-1][0], kept.pop()[1] + count
                kept.append((block, count))
        self._runs, self._len = tuple(kept), size

    @staticmethod
    def of(items) -> "Runs":  # items itself, or one run of it
        return items if type(items) is Runs else Runs(((tuple(items), 1),))

    @staticmethod
    def _direct(runs: tuple, size: int) -> "Runs":  # runs already merged: no re-check
        out = object.__new__(Runs)
        out._runs, out._len = runs, size
        return out

    def items(self):
        """Every item, once per run instead of once per position."""
        runs = self._runs
        return runs[0][0] if len(runs) == 1 else chain.from_iterable(map(_BLOCK, runs))

    def map(self, image) -> "Runs":
        """Each block's image, ``image`` called once per distinct item; built
        directly, merging only neighbours whose images are equal, as ``__init__`` would."""
        memo, kept = {}, []
        for block, count in self._runs:
            images = []
            for x in block:
                if (y := memo.get(x, memo)) is memo:  # memo itself marks an item not mapped yet
                    y = memo[x] = image(x)
                images.append(y)
            block = tuple(images)
            if kept and kept[-1][0] == block:
                block, count = kept[-1][0], kept.pop()[1] + count
            kept.append((block, count))
        return Runs._direct(tuple(kept), self._len)

    def __len__(self):
        return self._len

    def __bool__(self):
        return bool(self._runs)

    def __iter__(self):
        return chain.from_iterable(chain.from_iterable(starmap(repeat, self._runs)))

    def __getitem__(self, index):  # O(runs + items picked), past sys.maxsize too
        picked = range(self._len)[index]
        one = type(picked) is not range
        up = (picked,) if one else picked if picked.step > 0 else picked[::-1]
        out, runs, base, size = [], iter(self._runs), 0, 0
        for k in up:
            while k >= base + size:
                base, (block, count) = base + size, next(runs)
                size = len(block) * count
            out.append(block[(k - base) % len(block)])
        return out[0] if one else tuple(out if up is picked else reversed(out))

    def _replaced(self, items: dict) -> "Runs":
        """This sequence with the item at each position key of ``items``
        replaced, in O(runs + keys): only the copies of a block holding a
        replaced position are written out."""
        out, base, todo = [], 0, sorted(items, reverse=True)
        for block, count in self._runs:
            width, done = len(block), 0
            while todo and todo[-1] < base + width * count:
                q, copy = (todo[-1] - base) // width, list(block)
                while todo and (todo[-1] - base) // width == q:
                    at = todo.pop()
                    copy[(at - base) % width] = items[at]
                out += [(block, q - done), (tuple(copy), 1)]
                done = q + 1
            out.append((block, count - done))
            base += width * count
        return Runs(out)

    def __eq__(self, other):
        if not isinstance(other, (Runs, tuple)):
            return NotImplemented
        size = other._len if type(other) is Runs else len(other)  # len() caps at sys.maxsize
        return self._runs == getattr(other, "_runs", None) or (
            self._len == size and all(map(eq, self, other)))

    def __hash__(self):
        """The hash of the expanded tuple, so equal sequences hash alike however
        they are cut into runs.  It expands the sequence, in time and memory
        linear in its length: the one accepted exception to run-level cost, as
        no run-length form of a sequence is unique."""
        return hash(tuple(self))

    def __add__(self, other):
        if type(other) is not Runs:
            if not isinstance(other, (Runs, tuple)):
                return NotImplemented
            other = Runs.of(other)
        a, b = self._runs, other._runs
        if a and b and a[-1][0] == b[0][0]:  # both merged already: only the junction can
            a, b = a[:-1], ((a[-1][0], a[-1][1] + b[0][1]),) + b[1:]
        out = object.__new__(Runs)  # inline: a call here costs concat's doubling 6%
        out._runs, out._len = a + b, self._len + other._len
        return out

    def __radd__(self, other):
        return Runs.of(other) + self if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return f"Runs({self._runs!r})"


# --------------------------------------------------------------------------
# braid words and annular links


@dataclass(frozen=True)
class BraidWord:
    """A braid word: generator positions are 1-based, signs are +-1.

    The closure record is cached from one pass over the letters, in space
    bounded by the square of the strand count, and read only through
    ``permutation``, ``cycles``, ``_cycle_of``, ``_self_writhe`` and ``_linking``.
    ``power(m)`` reads its pass off this one: copy u crosses pi^-u(a) and pi^-u(b)
    where copy 0 crosses a and b, and pi^-u repeats with the order of pi.
    """

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _require_exact(int, (self.strands,), "braid strands", DiagramError)
        if not 1 <= self.strands <= MAX_STRANDS:
            raise DiagramError(f"a braid word may have at most {MAX_STRANDS} strands (MAX_STRANDS)"
                               if self.strands > 0 else "a braid word needs at least one strand")
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
        _require_exact(int, (m,), "braid word powers", DiagramError)
        if m < 0:
            raise DiagramError("braid word powers must be non-negative")
        if len(self.letters) * m > MAX_POWER_LETTERS:
            raise DiagramError(f"a braid word power may have at most {MAX_POWER_LETTERS} "
                               "letters (MAX_POWER_LETTERS)")
        # copies of checked letters, m checked exact: nothing to re-check
        # (an empty word stays empty: `() * m` overflows past sys.maxsize)
        word = _built(BraidWord, self.strands, self.letters * m if self.letters else ())
        perm, pairs = self._walk  # the power's pass, read off this one
        inv = dict(zip(perm, range(1, len(perm) + 1)))  # pi^-1
        order, sums = lcm(*map(len, self.cycles())), {}
        for (a, b), total in pairs.items():  # zero sums stay, as in a walk
            for t in range(min(m, order)):  # the copies u < m with u = t mod order
                sums[a, b] = sums.get((a, b), 0) + total * ((m - 1 - t) // order + 1)
                a, b = inv[a], inv[b]
        image, step, k = tuple(range(1, len(perm) + 1)), perm, m % order  # pi^m, by squaring
        while k:
            image = tuple(step[s - 1] for s in image) if k & 1 else image
            step, k = tuple(step[s - 1] for s in step), k >> 1
        object.__setattr__(word, "_walk", (image, sums))
        return word

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
        return self._walk[0]

    def cycles(self) -> tuple[frozenset, ...]:
        """Cycles of the closure permutation, sorted by smallest strand."""
        return self._closure.cycles

    def _self_writhe(self, k: int) -> int:
        """Signed self-crossings of cycle ``k``; 0 past the last cycle."""
        return self._closure.sums.get((k, k), 0)

    def _linking(self, k: int, l: int) -> int:
        """Linking number of distinct cycles k and l; 0 past the last cycle."""
        total = self._closure.sums.get((k, l) if k <= l else (l, k), 0)
        if total % 2:
            raise DiagramError("crossings between closed components must pair up")
        return total // 2

    def _cycle_of(self, strand: int) -> int:
        """Index of the cycle through ``strand``."""
        return self._closure.owner[strand]

    # The one pass over the letters: the closure permutation, and the signed
    # sum of the letters whose left and right strands are a and b, by (a, b).
    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], dict]:
        arrangement = list(range(1, self.strands + 1))
        pairs: dict = {}
        for pos, sign in self.letters:
            a, b = arrangement[pos - 1], arrangement[pos]
            pairs[a, b] = pairs.get((a, b), 0) + sign
            arrangement[pos - 1], arrangement[pos] = b, a
        image = [0] * self.strands
        for position, strand in enumerate(arrangement, start=1):
            image[strand - 1] = position
        return tuple(image), pairs

    @cached_property
    def _closure(self) -> _Closure:
        perm, owner, cycles = self.permutation(), {}, []
        for start in range(1, self.strands + 1):  # a new cycle's start is its minimum
            cyc, s = [], start
            while s not in owner:
                owner[s] = len(cycles)
                cyc.append(s)
                s = perm[s - 1]
            if cyc:
                cycles.append(frozenset(cyc))
        sums: dict = {}
        for (a, b), total in self._walk[1].items():
            k, l = owner[a], owner[b]
            key = (k, l) if k <= l else (l, k)
            sums[key] = sums.get(key, 0) + total
        return _Closure(tuple(cycles), owner, sums)


class _Closure(NamedTuple):
    """A braid word's closure cycles and its letter sums by cycle pair."""

    cycles: tuple[frozenset, ...]
    owner: dict  # strand -> index of its cycle
    sums: dict  # (k, l), k <= l -> signed sum of the letters crossing cycles k and l


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
            raise DiagramError(f"unknown color {reprlib.repr(self.color)}")
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
    is independent data and need not match the diagram writhe.  So a
    braid component sits at its cycle index, and writhes and linking
    numbers read the word's letter sums at that position; split
    components come after every cycle and have no entry.
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

    def _position(self, cid: str) -> int:
        """Index of ``cid`` in ``all_components()``: a braid component's cycle
        index, which keys the word's letter sums, or past every cycle."""
        for k, comp in enumerate(self.all_components()):
            if comp.id == cid:
                return k
        raise DiagramError(f"no component {cid!r}")

    def component(self, cid: str) -> AnnularComponent:
        return self.all_components()[self._position(cid)]

    def word_self_writhe(self, cid: str) -> int:
        """Signed self-crossings of a component contributed by the word."""
        return self.word._self_writhe(self._position(cid))

    def writhe(self, cid: str) -> int:
        """Diagram self-writhe: word contribution plus inserted kinks."""
        return self.word_self_writhe(cid) + self.component(cid).kinks

    def mixed_linking(self, cid: str, other: str) -> int:
        """Linking number of two distinct components of the closure."""
        if cid == other:
            raise DiagramError("mixed linking needs two distinct components")
        return self.word._linking(self._position(cid), self._position(other))

    def is_normalized(self) -> bool:
        return all(self.word._self_writhe(k) + c.kinks == c.framing
                   for k, c in enumerate(self.all_components()))


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
    comps = tuple(  # a split component has self-writhe 0: kinks = framing
        AnnularComponent(c.id, c.strands, c.color, c.framing, c.orientation,
                         c.framing - link.word._self_writhe(k))
        for k, c in enumerate(link.all_components()))
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
            raise DiagramError(f"unknown color {reprlib.repr(self.color)}")


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
    crossings: Runs = Runs()
    top: tuple[Slot, ...] = ()
    bottom: tuple[Slot, ...] = ()

    def __post_init__(self):
        for name in ("arcs", "closed", "top", "bottom"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "crossings", Runs.of(self.crossings))
        _require_exact(int, [n for _, n in self.crossings.runs], "run counts", DiagramError)
        arcs, closed = self.arcs, self.closed
        arc_ids = set(map(_ID, arcs))
        known = arc_ids.union(map(_ID, closed))
        if len(known) != len(arcs) + len(closed):
            raise DiagramError("strand ids must be unique")
        for c in self.crossings.items():
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
# parity), the crossing pairs (each the other's flip) and arcs per colors.
_TWIST_TOP = (Slot("a", 0, _IN), Slot("b", 0, _IN))
_TWIST_BOTTOM = ((Slot("a", 1, _OUT), Slot("b", 1, _OUT)),
                 (Slot("b", 1, _OUT), Slot("a", 1, _OUT)))
_POSITIVE_PAIR = (Crossing("a", "b", 1), Crossing("b", "a", 1))
_NEGATIVE_PAIR = (Crossing("b", "a", -1), Crossing("a", "b", -1))
_FLIPPED = dict(zip(_POSITIVE_PAIR + _NEGATIVE_PAIR, _NEGATIVE_PAIR + _POSITIVE_PAIR))
_twist_arcs = lru_cache(maxsize=16)(lambda ca, cb: (Strand("a", ca), Strand("b", cb)))


def half_twist_tangle(n: int, colors=(None, None)) -> ColoredTangle:
    """Two arcs with |n| half twists of sign sgn(n).

    The arcs enter at the top and leave at the bottom; an odd number of
    half twists swaps which arc exits where.  Colors default to none so
    the same constructor serves both plain sphere slices and their
    red/blue lifts.  The half twists alternate between two shared
    crossings, so the crossing word is two runs: the pair |n| // 2 times,
    then its first crossing |n| % 2 times.
    """
    _require_exact(int, (n,), "twist count", DiagramError)
    ca, cb = colors  # Strand names an unknown, maybe unhashable, color
    arcs = (_twist_arcs(ca, cb) if ca in _COMPONENT_COLORS and cb in _COMPONENT_COLORS
            else (Strand("a", ca), Strand("b", cb)))
    pair = _POSITIVE_PAIR if n > 0 else _NEGATIVE_PAIR
    k = abs(n)
    runs = ((pair, k // 2),) * (k > 1) + ((pair[:1], 1),) * (k % 2)  # unequal blocks: none merge
    # checked arcs, crossings and walls on the arcs' ids, n exact: nothing to re-check
    return _built(ColoredTangle, arcs, (), Runs._direct(runs, k), _TWIST_TOP, _TWIST_BOTTOM[n % 2])


def _flip(c: Crossing) -> Crossing:
    return _FLIPPED.get(c) or Crossing(c.under, c.over, -c.sign)


_REVERSE = {_IN: _OUT, _OUT: _IN}


@lru_cache(maxsize=32)
def _reversed(wall) -> tuple:
    return tuple(Slot(s.arc, s.end, _REVERSE[s.orientation]) for s in wall)


def reverse_mirror(t: ColoredTangle) -> ColoredTangle:
    """Reverse every orientation and flip every crossing.

    This is the end-swap a product region induces on its far wall:
    reverse_mirror(half_twist_tangle(n)) has the crossing list of
    half_twist_tangle(-n), in the same runs.
    """
    if not isinstance(t, ColoredTangle):
        raise DiagramError(f"reverse_mirror expects a ColoredTangle, not {type(t).__name__}")
    # its checked strands; flips and reversals from Crossing and Slot, same ends
    return _built(ColoredTangle, t.arcs, t.closed, t.crossings.map(_flip),
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
            raise DiagramError(f"unknown color {reprlib.repr(self.color)}")
        if self.orientation not in (1, -1):
            raise DiagramError("orientation must be +-1")


@dataclass(frozen=True)
class BicoloredLink:
    """A closed diagram: colored components and signed crossings."""

    components: tuple[LinkComponent, ...] = ()
    crossings: Runs = Runs()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "crossings", Runs.of(self.crossings))
        _require_exact(int, [n for _, n in self.crossings.runs], "run counts", DiagramError)
        known = set(map(_ID, self.components))
        if len(known) != len(self.components):
            raise DiagramError("component ids must be unique")
        for c in self.crossings.items():
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
    target = {s.id: merge.find(s.id) for s in t.arcs}
    comps = [LinkComponent(root, t.color_of(root))
             for root in dict.fromkeys(target.values())]
    comps += [LinkComponent(s.id, s.color) for s in t.closed]
    return BicoloredLink(tuple(comps), t.crossings.map(lambda c: Crossing(
        target.get(c.over, c.over), target.get(c.under, c.under), c.sign)))


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
    def moved(keys):
        return lambda c: Crossing(rename(keys[c.over]), rename(keys[c.under]), c.sign)
    crossings = upper.crossings.map(moved(up)) + lower.crossings.map(moved(lo))
    top = tuple(Slot(rename(up[s.arc]), s.end, s.orientation) for s in upper.top)
    bottom = tuple(Slot(rename(lo[s.arc]), s.end, s.orientation) for s in lower.bottom)
    return ColoredTangle(tuple(arcs), tuple(closed), crossings, top, bottom)


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
    names = [f"c{i}" for i in range(len(cycles))]
    comps = tuple(map(LinkComponent, names, colors))
    name = {s: names[word._cycle_of(s)] for s in range(1, word.strands + 1)}
    return BicoloredLink(comps, tuple(
        Crossing(name[a], name[b], 1) if sign > 0 else Crossing(name[b], name[a], -1)
        for a, b, sign in word.letter_strands()))


def bicolored_linking(link: BicoloredLink) -> int:
    """Half the signed sum of crossings between red and blue components.

    Same-color and self crossings do not count.  Every component must be
    colored; a closed diagram always has an even mixed count, so the
    result is an integer.
    """
    return _half_mixed_sum((("", link.components, link.crossings),))


def _half_mixed_sum(parts) -> int:
    """``bicolored_linking`` of the merge of ``(id prefix, strands, crossings)``
    parts, read off each part's own strand colors without building it."""
    total = 0
    for prefix, strands, crossings in parts:
        for s in strands:
            if s.color not in (RED, BLUE):
                raise DiagramError(f"component {prefix + s.id!r} is not colored red or blue")
        color = {s.id: s.color for s in strands}
        for block, n in crossings.runs:
            total += n * sum(c.sign for c in block if color[c.over] != color[c.under])
    if total % 2:
        raise DiagramError("mixed crossings of a closed diagram must pair up")
    return total // 2


def mirror_image(d):
    """Flip every crossing of a tangle or link."""
    return replace(d, crossings=d.crossings.map(_flip))


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
    the count or any linking number; it rewrites only the block copies
    holding them, so a word past sys.maxsize takes it in memory bounded
    by its runs.  Sites that do not match the pattern raise BadSite.
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
        n = d.crossings._len  # from the runs: len() caps at sys.maxsize
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
        moved = dict(zip((i, j, k), (trio[2], trio[0], trio[1])))
        return replace(d, crossings=d.crossings._replaced(moved))
    raise DiagramError(f"unknown Reidemeister move {move!r}")
