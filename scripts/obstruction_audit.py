#!/usr/bin/env python3
"""Fuzz the linking-parity obstruction against decorated slice data.

The obstruction is computed on model slices with trivial sides, but the
parity is supposed to survive any deck-symmetric decoration: clasped
side components, symmetric cap links, and matching winding counts.
This script throws random symmetric data at both the open and closed
evaluators and reports any parity that moved.
"""

import argparse
import os
import random

from lbkit.diagrams import RED, BLUE, half_twist_tangle, reverse_mirror
from lbkit.obstruction import (
    ClosedCaseData, ConcordanceSlice, cap_link, cap_symmetry_holds,
    clasped_side, closed_case_linking, concordance_obstruction,
    slice_linking, side_symmetry_holds,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int,
                    default=int(os.environ.get("LBKIT_SEED", "0")))
    args = ap.parse_args()
    rng = random.Random(args.seed)

    failures = 0
    for _ in range(args.trials):
        j = 2 * rng.randint(-5, 5)
        i = j + 2 * rng.randint(-3, 3)
        plus, minus = rng.randint(-3, 3), rng.randint(-3, 3)
        s = ConcordanceSlice(
            inner=half_twist_tangle(i, (RED, BLUE)),
            outer=reverse_mirror(half_twist_tangle(j, (RED, BLUE))),
            side_plus_red=clasped_side(RED, plus),
            side_plus_blue=clasped_side(BLUE, plus),
            side_minus_red=clasped_side(RED, minus),
            side_minus_blue=clasped_side(BLUE, minus))
        assert side_symmetry_holds(s)
        want = concordance_obstruction(i, j)

        if slice_linking(s) % 2 != want:
            failures += 1
            print(f"open-case parity moved at i={i} j={j} "
                  f"plus={plus} minus={minus}")

        lk, wr, wb = (rng.randint(-3, 3) for _ in range(3))
        d = ClosedCaseData(s, cap_link(lk), cap_link(lk),
                           red_winding_plus=wr, red_winding_minus=wr,
                           blue_winding_plus=wb, blue_winding_minus=wb)
        assert cap_symmetry_holds(d)
        if closed_case_linking(d) % 2 != want:
            failures += 1
            print(f"closed-case parity moved at i={i} j={j} lk={lk} "
                  f"w=({wr},{wb})")

    print(f"{args.trials} trials, seed {args.seed}: "
          + ("all parities stable" if not failures
             else f"{failures} parity failures"))
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
