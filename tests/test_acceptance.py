"""End-to-end acceptance checks, one test per advertised guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Grid bounds and case counts are part of the
contract and are not scaled down; the heaviest check (the million-case
Smith-form sweep) is budgeted at well under sixty seconds.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from lbkit.covers import double_cover_diagram
from lbkit.diagrams import (
    RED, BLUE, BadSite, BraidWord, braid_closure_link, bicolored_linking,
    reidemeister,
)
from lbkit.homology import (
    AbelianGroup, IntMatrix, boundary_h1, h1, invariant_factors,
)
from lbkit.homotopy import (
    classify, concat, crossed_class, empty_trace, lightbulb_check,
    twist_homotopy,
)
from lbkit.kirby import (
    build_diagram, double, euler_characteristic, family_parameters,
    handle_slide,
)
from lbkit.obstruction import (
    ClosedCaseData, NotHomotopic, assemble_link, cap_link,
    cap_symmetry_holds, closed_case_linking, concordance_obstruction,
    model_slice, side_symmetry_holds, slice_linking,
)

from test_obstruction import decorated_slice

Z2 = AbelianGroup(0, (2,))

FAMILY_GRID = [(p, q) for p in range(-5, 6) for q in range(-5, 6)]
BOUNDARY_GRID = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
TWIST_GRID = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
CLASSIFY_GRID = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]


def test_criterion_01_family_h1_is_order_two():
    for p, q in FAMILY_GRID:
        assert h1(build_diagram(p, q)) == Z2, (p, q)


def test_criterion_02_double_cover_framings_and_trivial_h1():
    for p, q in FAMILY_GRID:
        cov = double_cover_diagram(build_diagram(p, q))
        framings = sorted(h.framing for h in cov.total.two_handles)
        assert framings == sorted((p + 1, p + 1, q - 1, q - 1, 0, 0)), (p, q)
        assert h1(cov.total) == AbelianGroup(0), (p, q)


def test_criterion_03_slides_move_q_by_two_and_fix_homology(rng):
    for p, q in FAMILY_GRID:
        for eps in (1, -1):
            slid = handle_slide(build_diagram(p, q), "lower", "dual", eps)
            assert family_parameters(slid) == (p, q + 2 * eps)
            assert slid == replace(build_diagram(p, q + 2 * eps),
                                   attaching=None)
    for _ in range(1000):
        d = build_diagram(rng.randint(-5, 5), rng.randint(-5, 5))
        want_h1, want_bd = h1(d), boundary_h1(d)
        ids = [h.id for h in d.two_handles]
        for _ in range(rng.randint(1, 6)):
            a, b = rng.sample(ids, 2)
            d = handle_slide(d, a, b, rng.choice((1, -1)))
        assert h1(d) == want_h1
        assert boundary_h1(d) == want_bd


def test_criterion_04_cover_boundary_is_q_periodic():
    groups = {}
    for p, q in BOUNDARY_GRID:
        cov = double_cover_diagram(build_diagram(p, q))
        groups[(p, q)] = boundary_h1(cov.total)
    for p, q in BOUNDARY_GRID:
        if (p, q + 2) in groups:
            assert groups[(p, q)] == groups[(p, q + 2)], (p, q)
    # audit of the stronger claim: the group is determined by p alone
    per_p = {p: {groups[(pp, q)] for pp, q in groups if pp == p}
             for p in range(-3, 4)}
    independent = all(len(seen) == 1 for seen in per_p.values())
    print("stronger-claim audit: cover boundary torsion is "
          + ("fully q-independent at every p in [-3, 3]"
             if independent else f"NOT q-independent: {per_p}"))
    assert independent
    for p, seen in per_p.items():
        expected = AbelianGroup(1) if p == -2 else \
            AbelianGroup(0, (abs(2 * p + 4),))
        assert seen == {expected}, p


def test_criterion_05_obstruction_table_with_linking_oracle():
    assert concordance_obstruction(0, 2) == 1
    assert concordance_obstruction(0, 4) == 0
    for i, j in TWIST_GRID:
        if (i - j) % 2:
            with pytest.raises(NotHomotopic):
                concordance_obstruction(i, j)
            continue
        want = ((i - j) // 2) % 2
        assert concordance_obstruction(i, j) == want, (i, j)
        assert concordance_obstruction(i, j, closed=True) == want, (i, j)
        # independent route: count crossings on the assembled link
        direct = bicolored_linking(assemble_link(model_slice(i, j)))
        assert direct % 2 == want, (i, j)


def test_criterion_06_equation_audits(rng):
    assert slice_linking(model_slice(2, 0)) % 2 == 1
    for _ in range(1000):
        # an obstructed core with deck-symmetric decorations
        j = 2 * rng.randint(-4, 4)
        i = j + 2 * rng.choice((-3, -1, 1, 3))
        s = decorated_slice(i, j, plus=rng.randint(-3, 3),
                            minus=rng.randint(-3, 3))
        lk = rng.randint(-3, 3)
        wr, wb = rng.randint(-3, 3), rng.randint(-3, 3)
        d = ClosedCaseData(
            s, cap_link(lk), cap_link(lk),
            red_winding_plus=wr, red_winding_minus=wr,
            blue_winding_plus=wb, blue_winding_minus=wb)
        assert side_symmetry_holds(s)
        assert cap_symmetry_holds(d)
        assert closed_case_linking(d) % 2 == 1


def test_criterion_07_crossed_cycle_calculus():
    one = crossed_class(twist_homotopy(0))
    assert one.of((1,)) == 1 and not one.is_zero
    for k in range(0, 9):
        trace = empty_trace(Z2)
        for n in range(k):
            trace = concat(trace, twist_homotopy(2 * n))
        cls = crossed_class(trace)
        assert cls.of((1,)) == k % 2, k
        assert lightbulb_check(trace, True, True) == (k % 2 == 0), k


def test_criterion_08_classifier_grid():
    for i, j in CLASSIFY_GRID:
        r = classify(i, j)
        assert r.equivalent, (i, j)
        assert r.homotopic == ((i - j) % 2 == 0), (i, j)
        assert r.topologically_concordant == ((i - j) % 4 == 0), (i, j)
        assert r.smoothly_isotopic == ((i - j) % 4 == 0), (i, j)
        # implication chain and symmetry
        assert not (r.smoothly_isotopic and not r.topologically_concordant)
        assert not (r.topologically_concordant and not r.homotopic)
        assert r == classify(j, i), (i, j)
    r = classify(0, 2)
    assert (r.equivalent, r.homotopic) == (True, True)
    assert (r.topologically_concordant, r.smoothly_isotopic) == (False, False)


def _batched_divisor_factors(batch, r, c):
    """Invariant factors of a stack of r x c matrices via determinantal
    divisors, vectorized: d_k is the gcd of all k x k minors and the
    k-th factor is d_k / d_(k-1), truncated at the first vanishing d_k."""
    n = len(batch)
    divisors = [np.gcd.reduce(np.abs(batch).reshape(n, -1), axis=1)]
    if min(r, c) >= 2:
        minors = []
        for i1, i2 in itertools.combinations(range(r), 2):
            for j1, j2 in itertools.combinations(range(c), 2):
                minors.append(batch[:, i1, j1] * batch[:, i2, j2]
                              - batch[:, i1, j2] * batch[:, i2, j1])
        divisors.append(np.gcd.reduce(np.abs(np.stack(minors)), axis=0))
    if min(r, c) >= 3:
        a = batch
        det = (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
               - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
               + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))
        divisors.append(np.abs(det))
    out = []
    for idx in range(n):
        factors, prev = [], 1
        for d in divisors:
            dk = int(d[idx])
            if dk == 0:
                break
            factors.append(dk // prev)
            prev = dk
        out.append(tuple(factors))
    return out


def _matrix_batches():
    """All shapes up to 3x3 with entries in [-3, 3]: exhaustive except
    the 40-million 3x3 grid, which is strided down to keep the total
    around a million cases."""
    for r, c in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2),
                 (2, 3), (3, 2)):
        yield r, c, np.arange(7 ** (r * c))
    yield 3, 3, np.arange(0, 7 ** 9, 53)


def test_criterion_09_reidemeister_invariance_and_snf_oracle(rng):
    link = braid_closure_link(BraidWord(2, ((1, 1), (1, 1))),
                              colors=[RED, BLUE])
    ids = [c.id for c in link.components]
    for _ in range(1000):
        state, target = link, bicolored_linking(link)
        for _ in range(rng.randint(1, 8)):
            move = rng.choice(("R1", "R2", "R3"))
            if move == "R1":
                state = reidemeister(state, "R1",
                                     (rng.choice(ids), rng.choice((1, -1))))
            elif move == "R2":
                a, b = rng.sample(ids, 2)
                state = reidemeister(state, "R2", (a, b, rng.choice((1, -1))))
            else:
                n = len(state.crossings)
                if n < 3:
                    continue
                try:
                    state = reidemeister(
                        state, "R3", tuple(rng.sample(range(n), 3)))
                except BadSite:
                    continue
            assert bicolored_linking(state) == target

    started = time.monotonic()
    total = 0
    for r, c, flat in _matrix_batches():
        digits = (flat[:, None] // 7 ** np.arange(r * c)) % 7 - 3
        batch = digits.reshape(-1, r, c)
        oracle = _batched_divisor_factors(batch, r, c)
        for entries, want in zip(batch.tolist(), oracle):
            m = IntMatrix(r, c, tuple(tuple(row) for row in entries))
            assert invariant_factors(m) == want, entries
        total += len(batch)
    elapsed = time.monotonic() - started
    print(f"SNF oracle sweep: {total} matrices in {elapsed:.1f}s")
    assert total >= 999_000
    assert elapsed < 60


def test_criterion_10_doubling_characteristic_and_h1():
    for p, q in FAMILY_GRID:
        base = build_diagram(p, q)
        doubled = double(base)
        assert euler_characteristic(doubled) == \
            2 * euler_characteristic(base) == 6, (p, q)
        assert h1(doubled) == Z2, (p, q)
