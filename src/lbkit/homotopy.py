"""Symbolic regular-homotopy traces and the sphere-pair classifier.

A regular homotopy between embedded spheres is recorded by its moves
(finger moves create double-point pairs, Whitney moves cancel them) and
by the double-point cycles of its track, each carrying an element of the
ambient fundamental group (abelian here).  Geometry enters only through
two counting facts: every finger move contributes two minima of the
track and every Whitney move two maxima, and a cycle that double covers
its image ("crossed") must carry an element of order at most 2.

Recording, per order-2 element, the parity of crossed cycles carrying it
gives a class that is additive under concatenation.  The classifier
combines three computations: lift wirings decide homotopy, the linking
parity obstruction decides concordance, and the crossed-cycle class
feeds the isotopy criterion (spheres with a common dual are smoothly
isotopic when the class vanishes).  Non-isotopy is only ever concluded
from non-concordance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .covers import lift_wiring
from .homology import AbelianGroup, _require_exact
from .obstruction import NotHomotopic, concordance_obstruction

__all__ = [
    "GroupMismatch", "InvalidTrace",
    "FingerMove", "WhitneyMove", "Cycle", "HomotopyTrace",
    "CrossedClass", "Relation",
    "empty_trace", "twist_homotopy", "concat", "connecting_homotopy",
    "crossed_class", "cycle_validate", "lightbulb_check", "classify",
]


class GroupMismatch(ValueError):
    """Traces over different groups cannot be combined."""


class InvalidTrace(ValueError):
    """A trace failed the move/cycle counting checks."""


@dataclass(frozen=True)
class FingerMove:
    element: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "element", tuple(self.element))
        _require_exact(int, self.element, "group elements", InvalidTrace)


@dataclass(frozen=True)
class WhitneyMove:
    element: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "element", tuple(self.element))
        _require_exact(int, self.element, "group elements", InvalidTrace)


@dataclass(frozen=True)
class Cycle:
    """A double-point cycle of the homotopy track."""

    crossed: bool
    element: tuple[int, ...]
    minima: int
    maxima: int

    def __post_init__(self):
        object.__setattr__(self, "element", tuple(self.element))
        _require_exact(int, self.element, "group elements", InvalidTrace)
        if self.minima < 0 or self.maxima < 0:
            raise InvalidTrace("extremum counts cannot be negative")


@dataclass(frozen=True)
class HomotopyTrace:
    """Moves and cycles of one regular homotopy.

    Construction does not enforce the counting invariants; that is what
    ``cycle_validate`` reports, so invalid hypothetical traces can be
    represented and rejected.
    """

    group: AbelianGroup
    moves: tuple = ()
    cycles: tuple[Cycle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        object.__setattr__(self, "cycles", tuple(self.cycles))
        for move in self.moves:
            if not isinstance(move, (FingerMove, WhitneyMove)):
                raise InvalidTrace("moves must be finger or Whitney moves")

    @property
    def finger_count(self) -> int:
        return sum(1 for m in self.moves if isinstance(m, FingerMove))

    @property
    def whitney_count(self) -> int:
        return sum(1 for m in self.moves if isinstance(m, WhitneyMove))


def empty_trace(group: AbelianGroup) -> HomotopyTrace:
    return HomotopyTrace(group)


_Z2 = AbelianGroup(0, (2,))
# The moves and cycle of a twist step, the same for every step.
_STEP_MOVES = (FingerMove((1,)), WhitneyMove((1,)))
_STEP_CYCLES = (Cycle(True, (1,), 2, 2),)


def twist_homotopy(n: int) -> HomotopyTrace:
    """The homotopy carrying the twist-n sphere to the twist-(n+2) one.

    One finger move and one Whitney move, both along the generator of
    the ambient Z/2, leaving a single crossed cycle on the generator
    with the forced two minima and two maxima.  The trace data does not
    depend on n; the parameter records which sphere the homotopy starts
    at.
    """
    del n
    return HomotopyTrace(_Z2, moves=_STEP_MOVES, cycles=_STEP_CYCLES)


def concat(a: HomotopyTrace, b: HomotopyTrace) -> HomotopyTrace:
    """Run one homotopy after the other."""
    if a.group != b.group:
        raise GroupMismatch("traces live over different groups")
    return HomotopyTrace(a.group, a.moves + b.moves, a.cycles + b.cycles)


def connecting_homotopy(i: int, j: int) -> HomotopyTrace:
    """The homotopy from the twist-i to the twist-j sphere (either order).

    It is the one-step homotopy from min(i, j) run |i - j| / 2 times.
    A step's trace data does not depend on where it starts, so the run
    is built by doubling: O(log k) ``concat`` calls copying O(k) moves
    in all, where step-by-step concatenation copies O(k^2).
    """
    if (i - j) % 2:
        raise NotHomotopic(f"twist counts {i} and {j} are not homotopic, "
                           "no connecting homotopy exists")
    one = twist_homotopy(min(i, j))
    trace = empty_trace(_Z2)
    for bit in bin(abs(i - j) // 2)[2:]:
        if trace.moves:
            trace = concat(trace, trace)
        if bit == "1":
            trace = concat(trace, one)
    return trace


def cycle_validate(t: HomotopyTrace) -> bool:
    """Counting checks: minima pair with finger moves, maxima with
    Whitney moves, and crossed cycles carry order <= 2 elements (each
    distinct element is checked once, in order of first appearance)."""
    if sum(c.minima for c in t.cycles) != 2 * t.finger_count:
        return False
    if sum(c.maxima for c in t.cycles) != 2 * t.whitney_count:
        return False
    for element in dict.fromkeys(c.element for c in t.cycles if c.crossed):
        order = t.group.order(element)
        if order is None or order > 2:
            return False
    return True


@dataclass(frozen=True)
class CrossedClass:
    """Parity, per order-2 group element, of crossed cycles carrying it.

    The key set is exactly the order-2 elements of the group; classes
    over the same group add componentwise mod 2.
    """

    group: AbelianGroup
    parities: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        pairs = tuple((tuple(el), bit) for el, bit in self.parities)
        _require_exact(int, [x for el, bit in pairs for x in (*el, bit)],
                       "class elements and bits", InvalidTrace)
        parities = tuple(sorted((el, bit % 2) for el, bit in pairs))
        object.__setattr__(self, "parities", parities)
        expected = self.group.elements_of_order_two()
        if tuple(el for el, _ in parities) != expected:
            raise InvalidTrace(
                "class keys must be exactly the order-2 elements of the group")

    def of(self, element) -> int:
        target = self.group.reduce(element)
        for el, bit in self.parities:
            if el == target:
                return bit
        raise InvalidTrace(f"{element!r} has order other than 2 in this group")

    @property
    def is_zero(self) -> bool:
        return all(bit == 0 for _, bit in self.parities)

    def __add__(self, other: "CrossedClass") -> "CrossedClass":
        if self.group != other.group:
            raise GroupMismatch("classes live over different groups")
        other_bits = dict(other.parities)
        return CrossedClass(self.group, tuple(
            (el, (bit + other_bits[el]) % 2) for el, bit in self.parities))


def crossed_class(t: HomotopyTrace) -> CrossedClass:
    """The Z/2 class of a trace: uncrossed cycles are ignored, crossed
    cycles on the trivial element contribute to no key.  The class is
    additive, so crossed cycles are counted per element carried and each
    distinct element is reduced once."""
    counts = {el: 0 for el in t.group.elements_of_order_two()}
    crossed = Counter(c.element for c in t.cycles if c.crossed)
    for element, n in crossed.items():
        el = t.group.reduce(element)
        if el in counts:
            counts[el] += n
    return CrossedClass(
        t.group, tuple((el, n % 2) for el, n in sorted(counts.items())))


def lightbulb_check(t: HomotopyTrace, common_dual: bool,
                    dual_disjoint_support: bool) -> bool:
    """Isotopy criterion for homotopic spheres with a common dual.

    True when the dual hypotheses hold and the trace's crossed-cycle
    class vanishes; the trace must pass validation first.
    """
    if not cycle_validate(t):
        raise InvalidTrace("trace fails the move/cycle counting checks")
    return bool(common_dual and dual_disjoint_support and crossed_class(t).is_zero)


@dataclass(frozen=True)
class Relation:
    """How a pair of twisted spheres compare, with the reasoning used.

    Isotopic spheres are concordant and concordant spheres are
    homotopic; construction rejects data violating that chain.
    Equivalence (an ambient diffeomorphism taking one sphere pair to the
    other) is independent of the chain.
    """

    equivalent: bool
    homotopic: bool
    topologically_concordant: bool
    smoothly_isotopic: bool
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.smoothly_isotopic and not self.topologically_concordant:
            raise ValueError("isotopic spheres must be concordant")
        if self.topologically_concordant and not self.homotopic:
            raise ValueError("concordant spheres must be homotopic")


def classify(i: int, j: int, closed: bool = False) -> Relation:
    """Compare the twist-i and twist-j spheres.

    Equivalence always holds in this family (common dual, equal
    squares).  Homotopy is decided by lift wirings, concordance by the
    linking parity obstruction, and isotopy by the lightbulb criterion
    on the connecting homotopy; a non-concordant pair is reported
    non-isotopic by contraposition.
    """
    evidence = {
        "equivalent": "common dual sphere and equal squares yield an "
                      "ambient diffeomorphism of pairs",
    }
    homotopic = lift_wiring(i) == lift_wiring(j)
    if not homotopic:
        evidence["homotopic"] = ("lift wirings differ: the sphere lifts "
                                 "wire the covered balls differently")
        evidence["topologically_concordant"] = "not homotopic"
        evidence["smoothly_isotopic"] = "not homotopic"
        return Relation(True, False, False, False, evidence)
    evidence["homotopic"] = "lift wirings agree"

    parity = concordance_obstruction(i, j, closed)
    concordant = parity == 0
    evidence["topologically_concordant"] = (
        f"boundary-link linking parity {parity}")

    isotopic = lightbulb_check(connecting_homotopy(i, j), common_dual=True,
                               dual_disjoint_support=True)
    if isotopic:
        evidence["smoothly_isotopic"] = ("crossed-cycle class of the "
                                         "connecting homotopy is zero")
    elif not concordant:
        evidence["smoothly_isotopic"] = "not concordant"
    else:
        # fq of the k-step homotopy is k mod 2, as is the linking parity.
        raise InvalidTrace(
            f"twist counts {i} and {j}: the crossed-cycle class (fq) is "
            "nonzero but the linking parity is 0; fq and the linking "
            "parity disagree")
    return Relation(True, True, concordant, isotopic, evidence)
