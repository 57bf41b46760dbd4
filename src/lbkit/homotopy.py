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

``concat`` and ``crossed_class`` build their records unchecked
(``_built``) from traces they first require to be ``HomotopyTrace``s,
which their constructor has checked; the functions taking a trace refuse
anything else with ``InvalidTrace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .covers import lift_wiring
from .diagrams import DiagramError, Runs
from .homology import AbelianGroup, _built, _require_exact
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
class _Move:
    """A move along a group element; the subclass names its kind."""

    element: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "element", tuple(self.element))
        _require_exact(int, self.element, "group elements", InvalidTrace)


class FingerMove(_Move):
    """Creates a pair of double points."""


class WhitneyMove(_Move):
    """Cancels a pair of double points."""


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
        _require_exact(int, (self.minima, self.maxima), "extremum counts", InvalidTrace)
        _require_exact(bool, (self.crossed,), "crossed", InvalidTrace)
        if self.minima < 0 or self.maxima < 0:
            raise InvalidTrace("extremum counts cannot be negative")


@dataclass(frozen=True)
class HomotopyTrace:
    """Moves and cycles of one regular homotopy.

    Construction does not enforce the counting invariants; that is what
    ``cycle_validate`` reports, so invalid hypothetical traces can be
    represented and rejected.  Moves and cycles are ``Runs``.
    """

    group: AbelianGroup
    moves: Runs = Runs()
    cycles: Runs = Runs()

    def __post_init__(self):
        if not isinstance(self.group, AbelianGroup):
            raise InvalidTrace(f"a trace's group must be an AbelianGroup, not "
                               f"{type(self.group).__name__}")
        object.__setattr__(self, "moves", Runs.of(self.moves))
        object.__setattr__(self, "cycles", Runs.of(self.cycles))
        _require_exact(int, [n for _, n in self.moves.runs + self.cycles.runs],
                       "run counts", InvalidTrace)
        for move in self.moves.items():
            if not isinstance(move, (FingerMove, WhitneyMove)):
                raise InvalidTrace("moves must be finger or Whitney moves")

    @cached_property
    def finger_count(self) -> int:
        return sum(n for b, n in self.moves.runs for m in b if isinstance(m, FingerMove))

    @cached_property
    def whitney_count(self) -> int:
        return sum(n for b, n in self.moves.runs for m in b if isinstance(m, WhitneyMove))


def empty_trace(group: AbelianGroup) -> HomotopyTrace:
    return HomotopyTrace(group)


def _require_trace(t) -> None:
    if not isinstance(t, HomotopyTrace):
        raise InvalidTrace(f"expected a HomotopyTrace, not {type(t).__name__}")


_Z2 = AbelianGroup(0, (2,))
_NO_STEPS = empty_trace(_Z2)
_STEP = HomotopyTrace(_Z2, (FingerMove((1,)), WhitneyMove((1,))),
                      (Cycle(True, (1,), 2, 2),))
_cached_order_two = lru_cache(maxsize=64)(AbelianGroup.elements_of_order_two)


def _order_two(group: AbelianGroup) -> tuple[tuple[int, ...], ...]:
    """The group's order-2 elements, memoized only when 2**factors * arity,
    which bounds the listing's coordinates, is at most 2**16: so at most
    2**12 elements and about 0.6 MB an entry.  Larger groups are listed per
    call (one (2,) * 16 listing holds 11 MB)."""
    if group.arity << len(group.invariant_factors) > 1 << 16:
        return group.elements_of_order_two()
    return _cached_order_two(group)


def twist_homotopy(n: int) -> HomotopyTrace:
    """The homotopy carrying the twist-n sphere to the twist-(n+2) one.

    One finger move and one Whitney move, both along the generator of
    the ambient Z/2, leaving a single crossed cycle on the generator
    with the forced two minima and two maxima.  The trace data does not
    depend on n; the parameter records which sphere the homotopy starts
    at.
    """
    _require_exact(int, (n,), "twist count", DiagramError)
    return _STEP


def concat(a: HomotopyTrace, b: HomotopyTrace) -> HomotopyTrace:
    """Run one homotopy after the other."""
    if not (type(a) is type(b) is HomotopyTrace):
        _require_trace(a)
        _require_trace(b)
    if a.group is not b.group and a.group != b.group:
        raise GroupMismatch("traces live over different groups")
    # the runs of two checked traces, joined: nothing to re-check
    return _built(HomotopyTrace, a.group, a.moves + b.moves, a.cycles + b.cycles)


def connecting_homotopy(i: int, j: int) -> HomotopyTrace:
    """The homotopy from the twist-i to the twist-j sphere (either order).

    It is the one-step homotopy from min(i, j) run |i - j| / 2 times.
    A step's trace data does not depend on where it starts, so the run
    is built by doubling: O(log k) ``concat`` calls, each O(runs), since
    joining equal steps merges them into one run of each.
    """
    _require_exact(int, (i, j), "twist counts", DiagramError)
    if (i - j) % 2:
        raise NotHomotopic(f"twist counts {i} and {j} are not homotopic, "
                           "no connecting homotopy exists")
    one = twist_homotopy(min(i, j))
    trace = _NO_STEPS
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
    _require_trace(t)
    fingers = whitneys = minima = maxima = 0  # counted in one pass each over moves and cycles
    for block, n in t.moves.runs:
        for move in block:
            if isinstance(move, FingerMove):
                fingers += n
            elif isinstance(move, WhitneyMove):
                whitneys += n
    for block, n in t.cycles.runs:
        for c in block:
            minima, maxima = minima + n * c.minima, maxima + n * c.maxima
    if minima != 2 * fingers or maxima != 2 * whitneys:
        return False
    for element in dict.fromkeys(c.element for c in t.cycles.items() if c.crossed):
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
        expected = _order_two(self.group)
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
    additive, so each crossed cycle of a run is reduced once and counted
    as many times as the run repeats."""
    _require_trace(t)
    counts = {el: 0 for el in _order_two(t.group)}
    for block, n in t.cycles.runs:
        for c in block:
            el = t.group.reduce(c.element) if c.crossed else None
            if el in counts:
                counts[el] += n
    # the keys are _order_two(group), sorted; the exact-int counts reduce mod 2
    return _built(CrossedClass, t.group, tuple((el, n % 2) for el, n in counts.items()))


def lightbulb_check(t: HomotopyTrace, common_dual: bool,
                    dual_disjoint_support: bool) -> bool:
    """Isotopy criterion for homotopic spheres with a common dual.

    True when the dual hypotheses hold and the trace's crossed-cycle
    class vanishes; the trace must pass validation first.
    """
    _require_exact(bool, (common_dual, dual_disjoint_support),
                   "lightbulb hypotheses", InvalidTrace)
    if not cycle_validate(t):
        raise InvalidTrace("trace fails the move/cycle counting checks")
    return common_dual and dual_disjoint_support and crossed_class(t).is_zero


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
    _require_exact(bool, (closed,), "closed", DiagramError)
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
