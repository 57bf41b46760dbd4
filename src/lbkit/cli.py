"""Command line front end.

One verb per operation; results are printed as interchange JSON (or CSV
for ``table``, plain text/SVG for ``render``).  Domain errors print an
``{"error": ...}`` object and exit 1; usage errors exit 2 via argparse.

Verbs that consume a diagram accept either a JSON file (``-`` for
stdin) or ``--p``/``--q`` to build the standard family diagram inline.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .covers import cyclic_cover_link, double_cover_diagram
from .diagrams import AnnularLink, ColoredTangle
from .homology import boundary_h1, h1
# concat is kept as a cli name: the benchmark tracer wraps every alias of
# a traced function, and its tests check this one.
from .homotopy import classify, concat, connecting_homotopy, crossed_class  # noqa: F401
from .kirby import KirbyDiagram, build_diagram, double, handle_slide
from .obstruction import (
    cap_symmetry_holds,
    closed_model_data,
    concordance_obstruction,
    model_slice,
    side_symmetry_holds,
    slice_linking,
)
from .render import render as render_any
from .serialize import (
    cover_to_obj,
    crossed_class_to_obj,
    dumps,
    group_to_obj,
    kirby_to_obj,
    load_diagram,
    relation_to_obj,
)

__all__ = ["main"]

_TABLE_HEADER = ["i", "j", "equivalent", "homotopic", "concordant", "isotopic"]


def _range_type(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("expected LO:HI")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ValueError("range is empty")
    return lo, hi


def _add_out(sp) -> None:
    sp.add_argument("--out", metavar="FILE",
                    help="write the result to FILE instead of stdout")


def _add_source(sp) -> None:
    sp.add_argument("input", nargs="?", metavar="INPUT",
                    help="diagram JSON file, or - for stdin")
    sp.add_argument("--p", type=int, help="first family twist parameter")
    sp.add_argument("--q", type=int, help="second family twist parameter")


def _add_pair(sp) -> None:
    sp.add_argument("--i", type=int, required=True,
                    help="twist count of the first sphere")
    sp.add_argument("--j", type=int, required=True,
                    help="twist count of the second sphere")


def _load_source(args):
    if args.input is not None:
        if args.p is not None or args.q is not None:
            args.parser.error("give an input file or --p/--q, not both")
        if args.input == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.input).read_text()
        return load_diagram(text)
    if args.p is None or args.q is None:
        args.parser.error("need an input file or both --p and --q")
    return build_diagram(args.p, args.q)


def _as_kirby(obj) -> KirbyDiagram:
    if not isinstance(obj, KirbyDiagram):
        raise ValueError(f"this verb needs a handle diagram, "
                         f"got {type(obj).__name__}")
    return obj


# --------------------------------------------------------------------------
# verb handlers, each returning the output text


def _cmd_build(args) -> str:
    return dumps(kirby_to_obj(build_diagram(args.p, args.q)))


def _cmd_homology(args) -> str:
    return dumps(group_to_obj(h1(_as_kirby(_load_source(args)))))


def _cmd_boundary(args) -> str:
    return dumps(group_to_obj(boundary_h1(_as_kirby(_load_source(args)))))


def _cmd_cover(args) -> str:
    obj = _load_source(args)
    if isinstance(obj, AnnularLink):
        return dumps(cover_to_obj(cyclic_cover_link(obj, args.degree)))
    if isinstance(obj, KirbyDiagram):
        if args.degree != 2:
            raise ValueError("handle diagrams only cover at degree 2")
        return dumps(cover_to_obj(double_cover_diagram(obj)))
    raise ValueError(f"cannot cover a {type(obj).__name__}")


def _cmd_double(args) -> str:
    return dumps(kirby_to_obj(double(_as_kirby(_load_source(args)))))


def _cmd_slide(args) -> str:
    d = _as_kirby(_load_source(args))
    return dumps(kirby_to_obj(handle_slide(d, args.a, args.b, args.eps)))


def _cmd_classify(args) -> str:
    return dumps(relation_to_obj(classify(args.i, args.j, args.closed)))


def _cmd_table(args) -> str:
    lo, hi = args.range
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_HEADER)
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            r = classify(i, j, args.closed)
            writer.writerow([i, j, int(r.equivalent), int(r.homotopic),
                             int(r.topologically_concordant),
                             int(r.smoothly_isotopic)])
    return buf.getvalue()


def _cmd_obstruct(args) -> str:
    parity = concordance_obstruction(args.i, args.j, args.closed)
    s = model_slice(args.i, args.j)
    return dumps({
        "parity": parity,
        "lk_L": slice_linking(s),
        "claim1": side_symmetry_holds(s),
        "claim2": cap_symmetry_holds(closed_model_data(s)),
    })


def _cmd_homotopy_class(args) -> str:
    trace = connecting_homotopy(args.i, args.j)
    return dumps(crossed_class_to_obj(crossed_class(trace)))


def _cmd_render(args) -> str:
    return render_any(_load_source(args), args.format)


# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbkit",
        description="Handle diagrams, covers, and the twisted-sphere "
                    "classifier.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=handler, parser=sp)
        _add_out(sp)
        return sp

    sp = verb("build", _cmd_build, "build the family handle diagram")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    _add_source(verb("homology", _cmd_homology,
                     "first homology of the four-manifold"))
    _add_source(verb("boundary", _cmd_boundary,
                     "first homology of the boundary three-manifold"))

    sp = verb("cover", _cmd_cover, "cyclic cover of a diagram")
    _add_source(sp)
    sp.add_argument("--degree", type=int, default=2,
                    help="covering degree (default 2)")

    _add_source(verb("double", _cmd_double, "double of the four-manifold"))

    sp = verb("slide", _cmd_slide, "slide one two-handle over another")
    _add_source(sp)
    sp.add_argument("--a", required=True, metavar="ID",
                    help="handle being slid")
    sp.add_argument("--b", required=True, metavar="ID",
                    help="handle slid over")
    sp.add_argument("--eps", type=int, required=True, choices=(-1, 1),
                    help="slide sign")

    sp = verb("classify", _cmd_classify,
              "compare the twist-i and twist-j spheres")
    _add_pair(sp)
    sp.add_argument("--closed", action="store_true",
                    help="treat the ambient manifold as closed")

    sp = verb("table", _cmd_table, "classification table over a twist range")
    sp.add_argument("--range", type=_range_type, required=True,
                    metavar="LO:HI")
    sp.add_argument("--closed", action="store_true")

    sp = verb("obstruct", _cmd_obstruct,
              "concordance obstruction data for a sphere pair")
    _add_pair(sp)
    sp.add_argument("--closed", action="store_true")

    sp = verb("homotopy-class", _cmd_homotopy_class,
              "crossed-cycle class of the connecting homotopy")
    _add_pair(sp)

    sp = verb("render", _cmd_render, "text or SVG picture of a diagram")
    _add_source(sp)
    sp.add_argument("--format", choices=("text", "svg"), default="text")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except (ValueError, OSError) as err:
        sys.stdout.write(dumps({"error": str(err)}))
        return 1
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
