"""Exact integer linear algebra for diagram homology.

Smith normal form over the integers, presentation cokernels, and the
2-torsion bookkeeping needed by the crossed-cycle calculus.  All
arithmetic is done with Python integers, so there is no overflow and
no tolerance anywhere in this module.

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
pivot), and a negative pivot's row is negated.  Identical input
therefore yields identical transform matrices; they are certified
(u * m * v = d, u and v unimodular) but appear in no output.
"""

from __future__ import annotations

from dataclasses import dataclass
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
]


def _require_exact(kind, values, what: str, error=ValueError, subject=None) -> None:
    """Refuse any of ``values`` whose type is not exactly ``kind`` (int
    or str): a bool is not an int, and nothing is coerced.  ``what`` names
    the values; a ``{!r}`` in it is filled with ``subject`` only on failure,
    so constructors on hot paths pay no formatting."""
    for x in values:
        if type(x) is not kind:
            what = what.format(subject)
            raise error(f"{what} must be {kind.__name__}, not {type(x).__name__}")


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry data")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            _require_exact(int, row, "entries")

    @classmethod
    def from_rows(cls, rows, cols=None):
        data = tuple(map(tuple, rows))
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _xgcd(a, b):
    """(g, s, r) with s * a + r * b = g = ±gcd(a, b), for b != 0."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - q * s1
        r0, r1 = r1, r0 - q * r1
    return a, s0, r0


def _eliminate(a, nrows, ncols, u=None, v=None):
    """Diagonalize ``a`` in place with unimodular row and column moves.

    On return the diagonal is non-negative and satisfies the
    divisibility chain.  ``u`` and ``v``, when given as identity lists,
    accumulate the row and column operations so that u * a_in * v = a_out.
    """
    t = 0
    limit = min(nrows, ncols)
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
            if u is not None:
                u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            if v is not None:
                for row in v:
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
                    if u is not None:
                        ut, ui = u[t], u[i]
                        u[t] = [s * y + r * z for y, z in zip(ut, ui)]
                        u[i] = [c * y + d * z for y, z in zip(ut, ui)]
                    p = g
                else:
                    q = x // p
                    ai[t] = 0
                    for j in range(t + 1, ncols):
                        ai[j] -= q * at[j]
                    if u is not None:
                        u[i] = [z - q * y for y, z in zip(u[t], u[i])]
            # Clear row t right of the pivot, the same with columns.
            shrunk = False
            for j in range(t + 1, ncols):
                x = at[j]
                if not x:
                    continue
                if x % p:
                    g, s, r = _xgcd(p, x)
                    c, d = -x // g, p // g
                    for i in range(t, nrows):
                        row = a[i]
                        y, z = row[t], row[j]
                        row[t], row[j] = s * y + r * z, c * y + d * z
                    if v is not None:
                        for row in v:
                            y, z = row[t], row[j]
                            row[t], row[j] = s * y + r * z, c * y + d * z
                    p = g
                    shrunk = True
                else:
                    q = x // p
                    if shrunk:
                        for i in range(t, nrows):
                            row = a[i]
                            row[j] -= q * row[t]
                    else:
                        # Column t is still zero below the pivot.
                        at[j] = 0
                    if v is not None:
                        for row in v:
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
            if u is not None:
                u[t] = [y + z for y, z in zip(u[t], u[stray])]
        if p < 0:
            a[t] = [-x for x in at]
            if u is not None:
                u[t] = [-x for x in u[t]]
        t += 1
    return a


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u * m * v = d in Smith normal form.

    u and v are unimodular; the diagonal of d is non-negative and each
    entry divides the next.
    """
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    _eliminate(a, m.rows, m.cols, u, v)
    return (
        IntMatrix.from_rows(a, m.cols),
        IntMatrix.from_rows(u, m.rows),
        IntMatrix.from_rows(v, m.cols),
    )


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order.

    The same elimination as ``smith_normal_form``, with no transform
    matrices accumulated.
    """
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
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def arity(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.arity

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
        """All elements of order exactly 2, in lexicographic order."""
        choices = []
        for d in self.invariant_factors:
            choices.append((0, d // 2) if d % 2 == 0 else (0,))
        tail = (0,) * self.free_rank
        out = []
        for combo in product(*choices):
            if any(combo):
                out.append(combo + tail)
        return tuple(sorted(out))


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Cokernel of the map Z^cols -> Z^rows given by the matrix."""
    diag = invariant_factors(m)
    return AbelianGroup(
        free_rank=m.rows - len(diag),
        invariant_factors=tuple(d for d in diag if d > 1),
    )


def torsion_order2(group: AbelianGroup) -> frozenset:
    """The set of order-2 elements, in canonical coordinates."""
    return frozenset(group.elements_of_order_two())


def h1(diagram) -> AbelianGroup:
    """First homology of the 4-manifold presented by a Kirby diagram.

    Dotted circles generate, 2-handles relate through their winding
    vectors; 3- and 4-handles do not enter.
    """
    ndot = len(diagram.dotted)
    rows = [[h.winding[i] for h in diagram.two_handles] for i in range(ndot)]
    return cokernel(IntMatrix.from_rows(rows, len(diagram.two_handles)))


def boundary_h1(diagram) -> AbelianGroup:
    """First homology of the boundary 3-manifold.

    Each dotted circle is traded for a 0-framed unknot, which is
    exactly how the diagram already stores its linking matrix, so this
    is the cokernel of the full matrix.  Only meaningful when the
    diagram has no 3- or 4-handles.
    """
    if diagram.three_handles or diagram.four_handles:
        raise ValueError("boundary homology needs a diagram without 3- or 4-handles")
    return cokernel(IntMatrix.from_rows(diagram.linking))
