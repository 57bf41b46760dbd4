"""Command line front end.

One verb per operation; results are printed as interchange JSON (or CSV
for ``table``, plain text/SVG for ``render``).  Domain errors print an
``{"error": ...}`` object and exit 1, as do values past the ``MAX_*``
bounds below and a failed ``--out`` write; usage errors exit 2 via
argparse.  Each call uses the parser of its own verb only, built once
per process.  It reads the common forms itself: ``--name=value`` and an
exact flag.  All else (``-h``, ``--name value``, unknown or abbreviated
options, positionals, a missing option, a failed type or choice, a flag
with ``=``) goes through argparse unchanged.

Verbs that consume a diagram accept either a JSON file (``-`` for
stdin) or ``--p``/``--q`` to build the standard family diagram inline.
"""

from __future__ import annotations

import argparse
import functools
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
    _model_obstruction,
    cap_symmetry_holds,
    closed_model_data,
    side_symmetry_holds,
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

# Largest values the CLI accepts, checked before anything is built: |--i|
# and |--j| of classify, obstruct and homotopy-class (the documented input
# range; run-length tangles and traces do not grow with it), |LO| and |HI| of
# table --range (the table classifies every pair in the square), and cover
# --degree (the covering word is the base word repeated that many times).
MAX_TWIST = 10_000
MAX_TABLE_TWIST = 100
MAX_COVER_DEGREE = 1024


def _range_type(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers LO:HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range is empty: {text!r}")
    return lo, hi


def _check_bound(name: str, value: int, limit: int) -> None:
    if abs(value) > limit:
        raise ValueError(f"{name} must be between {-limit} and {limit}, "
                         f"got {value}")


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


def _check_pair(args) -> None:
    _check_bound("--i", args.i, MAX_TWIST)
    _check_bound("--j", args.j, MAX_TWIST)


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
    if args.degree > MAX_COVER_DEGREE:
        raise ValueError(f"--degree must be at most {MAX_COVER_DEGREE}, "
                         f"got {args.degree}")
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
    _check_pair(args)
    return dumps(relation_to_obj(classify(args.i, args.j, args.closed)))


def _cmd_table(args) -> str:
    lo, hi = args.range
    _check_bound("--range endpoints", lo, MAX_TABLE_TWIST)
    _check_bound("--range endpoints", hi, MAX_TABLE_TWIST)
    # classify is symmetric in (i, j), so each unordered pair is decided
    # once and its flags reused for the mirrored row.
    flags = {}
    lines = [",".join(_TABLE_HEADER)]
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            pair = (i, j) if i <= j else (j, i)
            if pair not in flags:
                r = classify(i, j, args.closed)
                flags[pair] = (f"{int(r.equivalent)},{int(r.homotopic)},"
                               f"{int(r.topologically_concordant)},"
                               f"{int(r.smoothly_isotopic)}")
            lines.append(f"{i},{j},{flags[pair]}")
    return "\n".join(lines) + "\n"


def _cmd_obstruct(args) -> str:
    _check_pair(args)
    s, lk, parity = _model_obstruction(args.i, args.j, args.closed)
    return dumps({
        "parity": parity,
        "lk_L": lk,
        "claim1": side_symmetry_holds(s),
        "claim2": cap_symmetry_holds(closed_model_data(s)),
    })


def _cmd_homotopy_class(args) -> str:
    _check_pair(args)
    trace = connecting_homotopy(args.i, args.j)
    return dumps(crossed_class_to_obj(crossed_class(trace)))


def _cmd_render(args) -> str:
    return render_any(_load_source(args), args.format)


# --------------------------------------------------------------------------
# verb arguments, each added after --out


def _args_build(sp) -> None:
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)


def _args_cover(sp) -> None:
    _add_source(sp)
    sp.add_argument("--degree", type=int, default=2,
                    help="covering degree (default 2)")


def _args_slide(sp) -> None:
    _add_source(sp)
    sp.add_argument("--a", required=True, metavar="ID",
                    help="handle being slid")
    sp.add_argument("--b", required=True, metavar="ID",
                    help="handle slid over")
    sp.add_argument("--eps", type=int, required=True, choices=(-1, 1),
                    help="slide sign")


def _args_classify(sp) -> None:
    _add_pair(sp)
    sp.add_argument("--closed", action="store_true",
                    help="treat the ambient manifold as closed")


def _args_table(sp) -> None:
    sp.add_argument("--range", type=_range_type, required=True,
                    metavar="LO:HI")
    sp.add_argument("--closed", action="store_true")


def _args_obstruct(sp) -> None:
    _add_pair(sp)
    sp.add_argument("--closed", action="store_true")


def _args_render(sp) -> None:
    _add_source(sp)
    sp.add_argument("--format", choices=("text", "svg"), default="text")


# The one copy of the verb definitions, in help order:
# name -> (handler, help text, function adding the verb's arguments).
_VERBS = {
    "build": (_cmd_build, "build the family handle diagram", _args_build),
    "homology": (_cmd_homology, "first homology of the four-manifold",
                 _add_source),
    "boundary": (_cmd_boundary,
                 "first homology of the boundary three-manifold",
                 _add_source),
    "cover": (_cmd_cover, "cyclic cover of a diagram", _args_cover),
    "double": (_cmd_double, "double of the four-manifold", _add_source),
    "slide": (_cmd_slide, "slide one two-handle over another", _args_slide),
    "classify": (_cmd_classify, "compare the twist-i and twist-j spheres",
                 _args_classify),
    "table": (_cmd_table, "classification table over a twist range",
              _args_table),
    "obstruct": (_cmd_obstruct,
                 "concordance obstruction data for a sphere pair",
                 _args_obstruct),
    "homotopy-class": (_cmd_homotopy_class,
                       "crossed-cycle class of the connecting homotopy",
                       _add_pair),
    "render": (_cmd_render, "text or SVG picture of a diagram", _args_render),
}


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser; ``read`` parses the common forms by its own actions."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.added = (*getattr(self, "added", ()), action)  # -h first
        return action

    @functools.cached_property
    def table(self):
        """(option -> store or flag action, defaults, required dests); not -h."""
        added = self.added
        return ({s: a for a in added for s in a.option_strings
                 if a.nargs is None or a.nargs == 0 and a.const is not None},
                {a.dest: a.default for a in added if a.default is not argparse.SUPPRESS}
                | {"func": self.get_default("func"), "parser": self},
                {a.dest for a in added if a.required})

    def read(self, argv, verb):
        """``parse_known_args``'s result if ``argv`` is all common forms, else None."""
        options, defaults, required = self.table
        values = {}
        for arg in argv:
            name, eq, value = arg.partition("=")
            if (action := options.get(name)) is None or action.nargs == 0 and eq:
                return None
            if action.nargs == 0:
                value = action.const
            elif not eq:
                return None
            else:
                try:
                    value = (action.type or str)(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            values[action.dest] = value
        return ((argparse.Namespace(verb=verb, **defaults | values), [])
                if required <= values.keys() else None)


@functools.cache
def _build_parser(verb=None) -> argparse.ArgumentParser:
    """The parser with every verb, or with ``verb`` alone when given (and
    then its parser as the ``parser`` default); built once per verb."""
    parser = argparse.ArgumentParser(
        prog="lbkit",
        description="Handle diagrams, covers, and the twisted-sphere "
                    "classifier.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB",
                                parser_class=_VerbParser)
    for name in _VERBS if verb is None else (verb,):
        handler, help_text, add_arguments = _VERBS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=handler, parser=sp)
        _add_out(sp)
        add_arguments(sp)
    if verb is not None:
        parser.set_defaults(parser=sp)
    return parser


def _parse(argv) -> argparse.Namespace:
    # Use only the verb being run.  Anything else (no arguments, a
    # leading option, an unknown verb) gets the full parser, so help and
    # "invalid choice" errors still list every verb.
    verb = argv[0] if argv and argv[0] in _VERBS else None
    parser = _build_parser(verb)
    if verb is not None:
        # A full parse hands all after the verb to the verb's own parser;
        # call it directly, and in full only to report unknown arguments.
        sp = parser.get_default("parser")
        args, extra = sp.read(argv[1:], verb) or sp.parse_known_args(
            argv[1:], argparse.Namespace(verb=verb))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        text = args.func(args)
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, OSError) as err:
        sys.stdout.write(dumps({"error": str(err)}))
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
