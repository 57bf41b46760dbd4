"""Exact integer linear algebra for diagram homology.

Smith normal form over the integers, presentation cokernels, and the
2-torsion bookkeeping needed by the crossed-cycle calculus.  All
arithmetic is done with Python integers, so there is no overflow and
no tolerance anywhere in this module.

Pivoting is deterministic: the pivot is always the entry of smallest
nonzero absolute value in the trailing block, ties broken by lowest
(row, col) in row-major order.  Identical input therefore yields
identical transform matrices, which keeps serialized output stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows, cols=None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _eliminate(a, nrows, ncols, u=None, v=None):
    """Diagonalize ``a`` in place with unimodular row and column moves.

    On return the diagonal is non-negative and satisfies the
    divisibility chain.  ``u`` and ``v``, when given as identity lists,
    accumulate the row and column operations so that u * a_in * v = a_out.
    """
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = None
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    if x < 0:
                        x = -x
                    if best is None or x < best[0]:
                        best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
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
        p = a[t][t]
        at = a[t]
        dirty = False
        for i in range(t + 1, nrows):
            x = a[i][t]
            if x:
                q = x // p
                if q:
                    ai = a[i]
                    for j in range(t, ncols):
                        ai[j] -= q * at[j]
                    if u is not None:
                        ui, ut = u[i], u[t]
                        for j in range(len(ui)):
                            ui[j] -= q * ut[j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            x = at[j]
            if x:
                q = x // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    if v is not None:
                        for row in v:
                            row[j] -= q * row[t]
                if at[j]:
                    dirty = True
        if dirty:
            continue
        # Row and column t are clear; enforce the divisibility chain.
        p = a[t][t]
        stray = None
        for i in range(t + 1, nrows):
            ai = a[i]
            for j in range(t + 1, ncols):
                if ai[j] % p:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            ai, at = a[stray], a[t]
            for j in range(ncols):
                at[j] += ai[j]
            if u is not None:
                us, ut = u[stray], u[t]
                for j in range(len(ut)):
                    ut[j] += us[j]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
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


def invariant_factors(m) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order.

    Accepts an IntMatrix or a plain list of rows.  This is the fast
    path used by the homology computations: no transform matrices are
    accumulated.
    """
    if isinstance(m, IntMatrix):
        a = [list(row) for row in m.entries]
        nrows, ncols = m.rows, m.cols
    else:
        a = [list(row) for row in m]
        nrows = len(a)
        ncols = len(a[0]) if a else 0
    _eliminate(a, nrows, ncols)
    out = []
    for i in range(min(nrows, ncols)):
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
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
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
        element = tuple(int(x) for x in element)
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
                from math import gcd
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


def cokernel(m) -> AbelianGroup:
    """Cokernel of the map Z^cols -> Z^rows given by the matrix."""
    if isinstance(m, IntMatrix):
        nrows = m.rows
    else:
        nrows = len(m)
    diag = invariant_factors(m)
    return AbelianGroup(
        free_rank=nrows - len(diag),
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
