"""Exact integer linear algebra for diagram homology.

Smith normal form over the integers, presentation cokernels, and the
2-torsion bookkeeping needed by the crossed-cycle calculus.  All
arithmetic is done with Python integers, so there is no overflow and
no tolerance anywhere in this module.  A group lists its order-2 elements once
and keeps them, as a braid word keeps its closure data, within two size bounds.

One elimination serves both ``smith_normal_form`` and
``invariant_factors``.  Pivoting is deterministic: the pivot is the
entry of smallest nonzero absolute value in the trailing block, ties
broken by lowest (row, col) in row-major order, and the scan stops at
the first unit.  The pivot's column and then its row are cleared by
Bezout steps (Kannan and Bachem 1979; Cohen, *A Course in Computational
Algebraic Number Theory*, Alg. 2.4.14): an entry the pivot divides loses
a multiple of the pivot's line, and any other entry x is combined with
the pivot p by the unimodular 2x2 move from the extended gcd, which
makes the pivot ±gcd(p, x) and the entry zero in one step.  The
clearing repeats only while the pivot strictly shrinks.  A row holding
an entry the pivot does not divide is then added to the pivot's row,
which enforces the divisibility chain (no such scan follows a unit
pivot), and a negative pivot's row is negated.  The transforms are an
identity border: ``smith_normal_form`` eliminates [[m, I], [I, 0]],
whose row and column moves carry u and v along, so identical input
yields identical u and v; they are certified (u * m * v = d, u and v
unimodular) but appear in no output.  d, u, v, the cokernel group and
the matrices ``h1`` and ``boundary_h1`` read off a checked diagram are
built by ``_built``, without re-checking what they hold by construction.
``_built`` calls a builder generated once per record class, as dataclasses
generate ``__init__``: it sets the record's whole field dict as one dict
display, so a derived record reads its fields as fast as a constructed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import gcd

__all__ = [
    "IntMatrix",
    "AbelianGroup",
    "smith_normal_form",
    "invariant_factors",
    "cokernel",
    "h1",
    "boundary_h1",
    "torsion_order2",
    "MAX_TWO_TORSION",
]

MAX_TWO_TORSION = 1 << 16  # the most elements of order at most 2 a group lists


def _require_exact(kind, values, what: str, error=ValueError, subject=None) -> None:
    """Refuse any of ``values`` whose type is not exactly ``kind`` (int,
    str or bool): a bool is not an int, and nothing is coerced.  ``what`` names
    the values; a ``{!r}`` in it is filled with ``subject`` only on failure,
    so constructors on hot paths pay no formatting."""
    for x in values:
        if type(x) is not kind:
            what = what.format(subject)
            raise error(f"{what} must be {kind.__name__}, not {type(x).__name__}")


def _built(cls, *values):
    """A ``cls`` record of ``values`` in field order, without its constructor's
    checks: only for fields copied or computed exactly from checked records."""
    try:
        return _builder(cls)(*values)
    except TypeError:  # the builder's one failure: a wrong number of values
        n = len(cls.__dataclass_fields__)
        raise TypeError(f"{cls.__name__} has {n} fields, got {len(values)} values") from None


@cache
def _builder(cls):
    """``cls``'s builder, generated on first use as dataclasses generate
    ``__init__``: it sets the new record's fields as one dict display."""
    args = [f"_{k}" for k in range(len(cls.__dataclass_fields__))]
    fields = ", ".join(map("{!r}: {}".format, cls.__dataclass_fields__, args))
    scope = {"cls": cls, "new": object.__new__, "setattr": object.__setattr__}
    exec(f"def build({', '.join(args)}):\n"
         f" obj = new(cls)\n setattr(obj, '__dict__', {{{fields}}})\n return obj", scope)
    return scope["build"]


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # exact-int dimensions, tested inline: every matrix built passes here
        if not (type(self.rows) is type(self.cols) is int
                and self.rows >= 0 and self.cols >= 0):
            _require_exact(int, (self.rows, self.cols), "matrix dimensions")
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry data")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            _require_exact(int, row, "entries")
        # stored as row tuples, so equal to and hashed like tuple rows
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))

    @classmethod
    def from_rows(cls, rows, cols=None):
        data = tuple(map(tuple, rows))
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n):
        _require_exact(int, (n,), "matrix dimensions")
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def _xgcd(a, b):
    """(g, s, r) with s * a + r * b = g = ±gcd(a, b), for b != 0."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        r0, r1 = r1, r0 - q * r1
    return a, s0, r0


def _eliminate(a, nrows, ncols):
    """Diagonalize the leading ``nrows`` x ``ncols`` block of ``a`` in place
    with unimodular row and column moves.

    Pivots, cleared entries and the divisibility scan stay inside the
    block, but every row move spans the whole row and every column move
    the whole column, so a border beside or below the block records the
    moves.  On return the block's diagonal is non-negative and satisfies
    the divisibility chain.
    """
    t = 0
    limit = min(nrows, ncols)
    border = a[nrows:]  # only column moves touch these rows, in place
    while t < limit:
        best = 0
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    if x < 0:
                        x = -x
                    if not best or x < best:
                        best, bi, bj = x, i, j
                        if x == 1:
                            break
            if best == 1:
                break
        if not best:
            break
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        at = a[t]
        p = at[t]
        while True:
            # Clear column t below the pivot.  A Bezout step replaces rows
            # t and i by (s, r; -x/g, p/g) times them, which is unimodular,
            # makes the pivot g = ±gcd(p, x) and zeros the entry.
            for i in range(t + 1, nrows):
                ai = a[i]
                x = ai[t]
                if not x:
                    continue
                if x % p:
                    g, s, r = _xgcd(p, x)
                    c, d = -x // g, p // g
                    a[i] = [c * y + d * z for y, z in zip(at, ai)]
                    at = a[t] = [s * y + r * z for y, z in zip(at, ai)]
                    p = g
                else:
                    q = x // p
                    ai[t] = 0
                    for j in range(t + 1, len(ai)):
                        ai[j] -= q * at[j]
            # Clear row t right of the pivot, the same with columns.
            shrunk = False
            for j in range(t + 1, ncols):
                x = at[j]
                if not x:
                    continue
                if x % p:
                    g, s, r = _xgcd(p, x)
                    c, d = -x // g, p // g
                    for row in a[t:]:
                        y, z = row[t], row[j]
                        row[t], row[j] = s * y + r * z, c * y + d * z
                    p = g
                    shrunk = True
                else:
                    # Before any Bezout step column t is zero below the
                    # pivot inside the block, so only the border moves.
                    q = x // p
                    at[j] = 0
                    for row in a[t + 1:] if shrunk else border:
                        row[j] -= q * row[t]
            if shrunk:
                # Column steps may have refilled column t; go again.
                continue
            if p == 1 or p == -1:
                break
            # Row and column t are clear; enforce the divisibility chain
            # by adding a row with an entry the pivot does not divide.
            stray = None
            for i in range(t + 1, nrows):
                ai = a[i]
                for j in range(t + 1, ncols):
                    if ai[j] % p:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            at = a[t] = [y + z for y, z in zip(at, a[stray])]
        if p < 0:
            a[t] = [-x for x in at]
        t += 1
    return a


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u * m * v = d in Smith normal form.

    u and v are unimodular; the diagonal of d is non-negative and each
    entry divides the next.  They are read off one elimination of
    [[m, I], [I, 0]].
    """
    if not isinstance(m, IntMatrix):
        raise ValueError(f"expected an IntMatrix, not {type(m).__name__}")
    r, c = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(r)] for i, row in enumerate(m.entries)]
    a += [[int(i == k) for k in range(c)] + [0] * r for i in range(c)]
    _eliminate(a, r, c)
    return (
        _built(IntMatrix, r, c, tuple(tuple(row[:c]) for row in a[:r])),
        _built(IntMatrix, r, r, tuple(tuple(row[c:]) for row in a[:r])),
        _built(IntMatrix, c, c, tuple(tuple(row[:c]) for row in a[r:])),
    )


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order.

    The same elimination as ``smith_normal_form``, without the border.
    """
    if not isinstance(m, IntMatrix):
        raise ValueError(f"expected an IntMatrix, not {type(m).__name__}")
    a = [list(row) for row in m.entries]
    _eliminate(a, m.rows, m.cols)
    out = []
    for i in range(min(m.rows, m.cols)):
        d = a[i][i]
        if d == 0:
            break
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class AbelianGroup:
    """Canonical form of a finitely generated abelian group.

    free_rank copies of Z plus one cyclic factor per invariant factor.
    Every invariant factor is at least 2 and divides the next, so two
    groups are isomorphic exactly when these dataclasses are equal.

    Elements are tuples of length len(invariant_factors) + free_rank,
    torsion coordinates first.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        _require_exact(int, (self.free_rank,), "free rank")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        facs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        _require_exact(int, facs, "invariant factors")
        if any(d < 2 for d in facs):
            raise ValueError("invariant factors must be at least 2")
        for d, e in zip(facs, facs[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def arity(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    def reduce(self, element) -> tuple[int, ...]:
        element = tuple(element)
        _require_exact(int, element, "coordinates")
        if len(element) != self.arity:
            raise ValueError(
                f"element has {len(element)} coordinates, expected {self.arity}")
        k = len(self.invariant_factors)
        torsion = tuple(c % d for c, d in zip(element, self.invariant_factors))
        return torsion + element[k:]

    def add(self, x, y) -> tuple[int, ...]:
        return self.reduce(tuple(a + b for a, b in zip(self.reduce(x), self.reduce(y))))

    def order(self, element):
        """Order of the element, or None when it is infinite."""
        el = self.reduce(element)
        k = len(self.invariant_factors)
        if any(el[k:]):
            return None
        n = 1
        for c, d in zip(el, self.invariant_factors):
            if c:
                m = d // gcd(c, d)
                n = n * m // gcd(n, m)
        return n

    def elements_of_order_two(self) -> tuple[tuple[int, ...], ...]:
        """All elements of order exactly 2, in lexicographic order, listed once and kept on
        the group; refused before they are built past MAX_TWO_TORSION elements of order at
        most 2 (2**k, k even factors) or 64 * MAX_TWO_TORSION coordinates ((2**k - 1) * arity)."""
        return self._order_two

    @cached_property
    def _order_two(self) -> tuple[tuple[int, ...], ...]:
        k = sum(d % 2 == 0 for d in self.invariant_factors)
        if 1 << k > MAX_TWO_TORSION:
            raise ValueError(f"a group with {k} even invariant factors has 2**{k} elements of "
                             f"order at most 2, past {MAX_TWO_TORSION} (MAX_TWO_TORSION)")
        coordinates = ((1 << k) - 1) * self.arity
        if coordinates > 64 * MAX_TWO_TORSION:
            raise ValueError(f"a group with {k} even invariant factors and arity {self.arity} "
                             f"lists {coordinates} coordinates of elements of order 2, past "
                             f"{64 * MAX_TWO_TORSION} (64 * MAX_TWO_TORSION)")
        choices = [(0, d // 2) if d % 2 == 0 else (0,) for d in self.invariant_factors]
        # only nonzero combos get a tail: a group with no even factor builds none
        return tuple(sorted(combo + (0,) * self.free_rank
                            for combo in product(*choices) if any(combo)))


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Cokernel of the map Z^cols -> Z^rows given by the matrix; like
    ``invariant_factors``, it refuses anything but an ``IntMatrix``."""
    diag = invariant_factors(m)
    return _built(AbelianGroup, m.rows - len(diag), tuple(d for d in diag if d > 1))


def torsion_order2(group: AbelianGroup) -> frozenset:
    """The set of order-2 elements, in canonical coordinates."""
    return frozenset(group.elements_of_order_two())


def h1(diagram) -> AbelianGroup:
    """First homology of the 4-manifold presented by a Kirby diagram.

    Dotted circles generate, 2-handles relate through their winding
    vectors; 3- and 4-handles do not enter.
    """
    ndot = len(diagram.dotted)
    rows = tuple(tuple(h.winding[i] for h in diagram.two_handles) for i in range(ndot))
    return cokernel(_built(IntMatrix, ndot, len(diagram.two_handles), rows))


def boundary_h1(diagram) -> AbelianGroup:
    """First homology of the boundary 3-manifold.

    Each dotted circle is traded for a 0-framed unknot, which is
    exactly how the diagram already stores its linking matrix, so this
    is the cokernel of the full matrix.  Only meaningful when the
    diagram has no 3- or 4-handles.
    """
    if diagram.three_handles or diagram.four_handles:
        raise ValueError("boundary homology needs a diagram without 3- or 4-handles")
    n = len(diagram.linking)
    return cokernel(_built(IntMatrix, n, n, diagram.linking))
