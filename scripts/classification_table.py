#!/usr/bin/env python3
"""Print the sphere-pair classification over a symmetric twist range.

Each cell compares the twist-i and twist-j spheres; the four letters
are equivalent / homotopic / concordant / isotopic, uppercase when the
relation holds.  For the same table as CSV, run
``lbkit table --range=LO:HI``.
"""

import argparse

from lbkit.homotopy import classify


def cell(i, j, closed):
    r = classify(i, j, closed)
    flags = (("E", r.equivalent), ("H", r.homotopic),
             ("C", r.topologically_concordant), ("I", r.smoothly_isotopic))
    return "".join(ch if on else ch.lower() for ch, on in flags)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=4,
                    help="compare all i, j with |i|, |j| <= RADIUS")
    ap.add_argument("--closed", action="store_true",
                    help="treat the ambient manifold as closed")
    args = ap.parse_args()

    span = range(-args.radius, args.radius + 1)
    width = 6
    print(" " * width + "".join(f"{j:>{width}}" for j in span))
    for i in span:
        row = "".join(f"{cell(i, j, args.closed):>{width}}" for j in span)
        print(f"{i:>{width}}" + row)
    print("\nE/H/C/I = equivalent, homotopic, concordant, isotopic "
          "(uppercase = holds)")


if __name__ == "__main__":
    main()
