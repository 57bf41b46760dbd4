import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from lbkit.homology import (
    IntMatrix, AbelianGroup, smith_normal_form, invariant_factors,
    cokernel, h1, boundary_h1, torsion_order2, MAX_TWO_TORSION,
)
from lbkit.kirby import build_diagram, double

from strategies import int_matrices


def exact_det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(m, k):
    """gcd of all k x k minors, the k-th determinantal divisor."""
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = [[m.entries[r][c] for c in cols] for r in rows]
            g = math.gcd(g, exact_det(sub))
    return g


def divisor_factors(m):
    """Invariant factors via determinantal divisors, an elimination-free
    route: the k-th factor is d_k / d_(k-1)."""
    out, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        d = minor_gcd(m, k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


# The benchmark's large shapes, square 4x4 to 8x8, and a few rectangular
# ones up to 8; with entries up to 50 the elimination chains Bezout steps
# and its transform entries run to hundreds of bits.
LARGE_SHAPES = tuple((n, n) for n in range(4, 9)) + ((4, 7), (7, 4), (5, 8), (8, 6))


def assert_decomposition(m, d, u, v):
    """u * m * v = d with u and v unimodular."""
    assert (u.rows, u.cols) == (m.rows, m.rows)
    assert (v.rows, v.cols) == (m.cols, m.cols)
    prod = [[sum(u.entries[i][k] * m.entries[k][l] * v.entries[l][j]
                 for k in range(m.rows) for l in range(m.cols))
             for j in range(m.cols)] for i in range(m.rows)]
    assert tuple(tuple(r) for r in prod) == d.entries
    assert abs(exact_det(u.entries)) == 1
    assert abs(exact_det(v.entries)) == 1


def smith_diagonal(d):
    """The nonzero diagonal of d, after checking that d is diagonal and
    non-negative with trailing zeros and a divisibility chain."""
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    assert all(d.entries[i][j] == 0
               for i in range(d.rows) for j in range(d.cols) if i != j)
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero  # zeros trail
    assert all(x > 0 for x in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    return tuple(nonzero)


class TestSmithNormalForm:
    @given(int_matrices())
    def test_decomposition_is_exact_and_unimodular(self, m):
        assert_decomposition(m, *smith_normal_form(m))

    @given(int_matrices())
    def test_diagonal_divisibility_chain(self, m):
        smith_diagonal(smith_normal_form(m)[0])

    @settings(max_examples=200)
    @given(int_matrices(bound=50, shapes=LARGE_SHAPES))
    def test_certificate_at_large_shapes(self, m):
        d, u, v = smith_normal_form(m)
        assert_decomposition(m, d, u, v)
        assert invariant_factors(m) == smith_diagonal(d)
        assert smith_normal_form(m) == (d, u, v)

    @given(int_matrices(max_dim=6, bound=50))
    def test_matches_sympy(self, m):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import Matrix, ZZ
        theirs = normalforms.invariant_factors(Matrix(m.entries), domain=ZZ)
        assert invariant_factors(m) == tuple(abs(int(x)) for x in theirs if x)

    @given(int_matrices(max_dim=3, bound=3))
    def test_matches_determinantal_divisor_oracle(self, m):
        assert invariant_factors(m) == divisor_factors(m)

    def test_exhaustive_2x2_small_entries(self):
        for flat in itertools.product(range(-2, 3), repeat=4):
            m = IntMatrix(2, 2, (flat[:2], flat[2:]))
            assert invariant_factors(m) == divisor_factors(m), flat

    def test_known_forms(self):
        m = IntMatrix(2, 3, ((2, 0, 0), (0, 3, 0)))
        assert invariant_factors(m) == (1, 6)
        assert invariant_factors(IntMatrix(2, 2, ((0, 0), (0, 0)))) == ()
        assert invariant_factors(IntMatrix(3, 3, (
            (2, 0, 0), (0, 0, 0), (0, 0, 4)))) == (2, 4)
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            m = IntMatrix(rows, cols, ((),) * rows)
            assert smith_normal_form(m) == (
                m, IntMatrix.identity(rows), IntMatrix.identity(cols))
            assert invariant_factors(m) == ()
            assert cokernel(m) == AbelianGroup(rows)


class TestIntMatrix:
    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, False, None])
    def test_refuses_non_int_entries(self, bad):
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1, bad),))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, bad]])

    @pytest.mark.parametrize("rows, cols", [(True, True), (1, 1.0), ("1", 1),
                                            (1, None), (1.0, 1)])
    def test_refuses_non_int_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="matrix dimensions must be int"):
            IntMatrix(rows, cols, ((1,),))

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_identity_refuses_non_int_size(self, n):
        with pytest.raises(ValueError, match="matrix dimensions must be int"):
            IntMatrix.identity(n)

    @pytest.mark.parametrize("call", [invariant_factors, cokernel, smith_normal_form])
    @pytest.mark.parametrize("bad", [[[1]], ((1,),), None, AbelianGroup(0)])
    def test_entry_points_refuse_what_is_not_a_matrix(self, call, bad):
        with pytest.raises(ValueError, match=f"^expected an IntMatrix, not {type(bad).__name__}$"):
            call(bad)

    def test_list_rows_are_stored_as_tuples(self):
        listed, plain = IntMatrix(1, 2, ([1, 2],)), IntMatrix(1, 2, ((1, 2),))
        assert listed == plain and hash(listed) == hash(plain)
        assert type(listed.entries[0]) is tuple
        assert IntMatrix(2, 1, [(3,), [4]]) == IntMatrix(2, 1, ((3,), (4,)))

    def test_from_rows_keeps_ints(self):
        m = IntMatrix.from_rows([[1, -2], (3, 0)])
        assert m == IntMatrix(2, 2, ((1, -2), (3, 0)))
        assert IntMatrix.from_rows([], 3) == IntMatrix(0, 3, ())
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])


class TestAbelianGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1)
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (3, 2))
        AbelianGroup(2, (2, 4, 12))

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_refuses_non_int_free_rank(self, bad):
        with pytest.raises(ValueError):
            AbelianGroup(bad)

    @pytest.mark.parametrize("bad", [2.0, 4.5, "2", True, None])
    def test_refuses_non_int_factors(self, bad):
        with pytest.raises(ValueError):
            AbelianGroup(0, (bad,))
        with pytest.raises(ValueError):
            AbelianGroup(1, (2, bad))

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None])
    def test_element_operations_refuse_non_int_coordinates(self, bad):
        g = AbelianGroup(1, (4,))
        for op in (g.reduce, g.order, lambda x: g.add(x, (0, 0)),
                   lambda x: g.add((0, 0), x)):
            with pytest.raises(ValueError, match="coordinates must be int"):
                op((bad, 0))
            with pytest.raises(ValueError, match="coordinates must be int"):
                op((0, bad))

    def test_element_operations_keep_exact_ints(self):
        g = AbelianGroup(1, (4,))
        assert g.reduce([6, -3]) == (2, -3)
        assert g.add((3, 1), (2, 1)) == (1, 2)
        assert g.order((2, 0)) == 2
        assert g.order((1, 1)) is None

    def test_cokernel_canonical_forms(self):
        assert cokernel(IntMatrix(2, 2, ((1, 0), (0, 1)))) == AbelianGroup(0)
        assert cokernel(IntMatrix(2, 2, ((0, 0), (0, 0)))) == AbelianGroup(2)
        assert cokernel(IntMatrix(2, 3, ((2, 0, 0), (0, 3, 0)))) == \
            AbelianGroup(0, (6,))
        assert cokernel(IntMatrix(3, 2, ((2, 0), (0, 4), (0, 0)))) == \
            AbelianGroup(1, (2, 4))

    @given(int_matrices(max_dim=3, bound=3), st.integers(0, 2),
           st.integers(0, 2), st.sampled_from((1, -1)))
    def test_cokernel_invariant_under_row_operations(self, m, i, j, eps):
        i, j = i % m.rows, j % m.rows
        if i == j:
            return
        rows = [list(r) for r in m.entries]
        rows[i] = [a + eps * b for a, b in zip(rows[i], rows[j])]
        moved = IntMatrix(m.rows, m.cols, tuple(tuple(r) for r in rows))
        assert cokernel(moved) == cokernel(m)

    def test_torsion_order2(self):
        assert torsion_order2(AbelianGroup(1)) == frozenset()
        assert torsion_order2(AbelianGroup(0, (2,))) == frozenset({(1,)})
        assert torsion_order2(AbelianGroup(0, (3,))) == frozenset()
        assert torsion_order2(AbelianGroup(0, (2, 4))) == \
            frozenset({(1, 0), (0, 2), (1, 2)})

    def test_order_two_listing_is_bounded_by_the_even_factors(self):
        # 2**16 elements of order at most 2 are listed; 2**17 are refused,
        # however many odd factors or free rank come along
        assert MAX_TWO_TORSION == 1 << 16
        assert len(AbelianGroup(0, (2,) * 16).elements_of_order_two()) == (1 << 16) - 1
        assert len(AbelianGroup(3, (3,) * 20 + (6,) * 16).elements_of_order_two()) \
            == (1 << 16) - 1
        for group in (AbelianGroup(0, (2,) * 17), AbelianGroup(2, (2,) * 5 + (4,) * 40)):
            with pytest.raises(ValueError, match=r"has 2\*\*\d+ elements of order at most "
                               r"2, past 65536 \(MAX_TWO_TORSION\)"):
                group.elements_of_order_two()
            with pytest.raises(ValueError, match="MAX_TWO_TORSION"):
                torsion_order2(group)
        # and so are their (2**k - 1) * arity coordinates, the free rank counted:
        # up to 64 * MAX_TWO_TORSION = 2**22 are listed, one past is refused
        for group, k in ((AbelianGroup(48, (2,) * 16), 16),
                         (AbelianGroup((1 << 22) - 1, (2,)), 1)):
            listing = group.elements_of_order_two()
            assert len(listing) == (1 << k) - 1 and len(listing) * group.arity <= 1 << 22
            assert listing[-1][:k] == (1,) * k and not any(listing[-1][k:])
        del group, listing  # 32 MB
        for group, k, arity in ((AbelianGroup(49, (2,) * 16), 16, 65),
                                (AbelianGroup(1 << 22, (2,)), 1, (1 << 22) + 1),
                                (AbelianGroup(10 ** 9, (2,)), 1, 10 ** 9 + 1)):
            message = (f"a group with {k} even invariant factors and arity {arity} lists "
                       f"{((1 << k) - 1) * arity} coordinates of elements of order 2, past "
                       f"{1 << 22} (64 * MAX_TWO_TORSION)")
            for call in (group.elements_of_order_two, lambda: torsion_order2(group)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message
        # the free rank alone lists nothing, so it is never refused
        assert AbelianGroup(10 ** 9).elements_of_order_two() == ()


class TestDiagramHomology:
    def test_h1_of_family(self):
        assert h1(build_diagram(3, 2)) == AbelianGroup(0, (2,))
        assert h1(build_diagram(0, 0)) == AbelianGroup(0, (2,))

    def test_h1_of_double(self):
        assert h1(double(build_diagram(-1, 4))) == AbelianGroup(0, (2,))

    def test_boundary_h1_of_family(self):
        # torsion depends only on the parity of the first parameter
        assert boundary_h1(build_diagram(0, 0)) == AbelianGroup(0, (2, 2))
        assert boundary_h1(build_diagram(2, -3)) == AbelianGroup(0, (2, 2))
        assert boundary_h1(build_diagram(1, 1)) == AbelianGroup(0, (4,))
        assert boundary_h1(build_diagram(-3, 2)) == AbelianGroup(0, (4,))

    def test_boundary_h1_rejects_closed_pieces(self):
        with pytest.raises(ValueError):
            boundary_h1(double(build_diagram(0, 0)))
