"""JSON interchange for diagrams and results.

One fixed schema per type, field names exact, unknown fields rejected;
serialization is deterministic (fixed key order, indent 2, trailing
newline) so identical values produce identical bytes.  Optional fields
are emitted only when they differ from their defaults, and parsing
treats absence as the default, so round trips are exact.

Kirby diagrams serialize without their attaching link: the JSON schema
carries matrices only, and for family-shaped diagrams the attaching
form is reconstructible (``kirby.ensure_attaching``).

Below Python 3.13 ``json.dumps(obj, indent=2)`` falls back to the
generator-based pure-Python encoder, because the C encoder has no indent
support there; ``dumps`` writes the same bytes itself on those versions.
"""

from __future__ import annotations

import json
import sys

from .diagrams import (
    AnnularComponent, AnnularLink, BraidWord, ColoredTangle, Crossing, Slot,
    Strand,
)
from .homology import AbelianGroup
from .homotopy import CrossedClass, Relation
from .kirby import KirbyDiagram, TwoHandle

__all__ = [
    "FormatError", "dumps",
    "kirby_to_obj", "obj_to_kirby",
    "annular_to_obj", "obj_to_annular",
    "tangle_to_obj", "obj_to_tangle",
    "group_to_obj", "cover_to_obj", "relation_to_obj", "crossed_class_to_obj",
    "load_diagram",
]


class FormatError(ValueError):
    """Input does not follow the interchange schema."""


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` plus a newline, byte for byte.

    Below Python 3.13 the stdlib encodes with an indent in pure Python, so
    a small writer takes exact dicts with str keys, lists, tuples, str,
    int, bool and None, escaping strings with the stdlib's C escaper.  Any
    other value (a float, a subclass, a non-str key, a circular or too
    deep value) goes to ``json.dumps``, which gives the same bytes or
    raises as ever.  Delete the writer once ``requires-python`` reaches 3.13.
    """
    if _WRITER:
        out: list = []
        try:
            _write(obj, "\n", out)
            return "".join(out) + "\n"
        except (TypeError, ValueError, RecursionError):
            pass
    return json.dumps(obj, indent=2) + "\n"


_WRITER = sys.version_info < (3, 13)
_ESCAPE = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(value, pad: str, out: list) -> None:
    """Append the indent-2 JSON chunks of ``value``, whose line breaks are
    ``pad``; TypeError for what only ``json.dumps`` encodes."""
    kind = type(value)
    if kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple or kind is dict:
        inner, close = pad + "  ", "}" if kind is dict else "]"
        out.append("{" if kind is dict else "[")
        if kind is dict:
            for key, item in value.items():
                out.append(inner + _ESCAPE(key) + ": ")
                _write(item, inner, out)
                out.append(",")
        else:
            for item in value:
                out.append(inner)
                _write(item, inner, out)
                out.append(",")
        out[-1] = pad + close if value else out[-1] + close  # the last "," or the opener
    elif kind is str:
        out.append(_ESCAPE(value))
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")


# --------------------------------------------------------------------------
# the field table: each wire object maps its fields to shapes and lists
# the fields that may be absent.  A shape is None for a scalar (whose
# type the library constructor checks), the name of another object, an
# int n for a row of n scalars (a letter [position, sign], a crossing
# [over, under, sign], a slot [arc, end, orientation]), or [shape] for
# an array of that shape.  A diagram object's first field names its type.

_OBJECTS = {
    "kirby diagram": ({"dotted": [None], "two_handles": ["two-handle"],
                       "linking": [[None]], "h3": None, "h4": None}, ()),
    "two-handle": ({"id": None, "framing": None, "winding": [None]}, ()),
    "annular link": ({"strands": None, "letters": [2],
                      "components": ["component"], "split": ["component"]},
                     ("split",)),
    "component": ({"id": None, "color": None, "framing": None,
                   "orientation": None, "kinks": None}, ("kinks",)),
    "tangle": ({"arcs": ["strand"], "closed": ["strand"], "crossings": [3],
                "endpoints": "endpoints"}, ()),
    "strand": ({"id": None, "color": None}, ()),
    "endpoints": ({"top": [3], "bottom": [3]}, ()),
}


def _check(value, shape, path: str) -> None:
    """Raise FormatError naming ``path`` where ``value`` does not fit
    ``shape``; the walk follows the table, never the data's own nesting."""
    if type(shape) is str:
        fields, optional = _OBJECTS[shape]
        where = path or shape
        if type(value) is not dict:
            raise FormatError(f"{where} must be a JSON object")
        if value.keys() != fields.keys():  # the common case skips both scans
            missing = [k for k in fields if k not in value and k not in optional]
            if missing:
                raise FormatError(f"{where} is missing fields: {', '.join(missing)}")
            unknown = sorted(value.keys() - fields.keys())
            if unknown:
                raise FormatError(f"{where} has unknown fields: {', '.join(unknown)}")
        for key, item in value.items():
            if fields[key] is not None:
                _check(item, fields[key], f"{path}.{key}" if path else key)
    elif type(value) is not list:
        raise FormatError(f"{path} must be a JSON array")
    elif type(shape) is int:
        if len(value) != shape:
            raise FormatError(f"{path} must have {shape} items, got {len(value)}")
    elif shape[0] is not None:
        for k, item in enumerate(value):
            _check(item, shape[0], f"{path}[{k}]")


# --------------------------------------------------------------------------
# Kirby diagrams


def kirby_to_obj(d: KirbyDiagram) -> dict:
    return {
        "dotted": list(d.dotted),
        "two_handles": [
            {"id": h.id, "framing": h.framing, "winding": list(h.winding)}
            for h in d.two_handles
        ],
        "linking": [list(row) for row in d.linking],
        "h3": d.three_handles,
        "h4": d.four_handles,
    }


def obj_to_kirby(obj) -> KirbyDiagram:
    _check(obj, "kirby diagram", "")
    return KirbyDiagram(
        obj["dotted"], tuple(TwoHandle(**h) for h in obj["two_handles"]),
        obj["linking"], obj["h3"], obj["h4"])


# --------------------------------------------------------------------------
# annular links


def _component_to_obj(c: AnnularComponent) -> dict:
    out = {"id": c.id, "color": c.color, "framing": c.framing,
           "orientation": c.orientation}
    if c.kinks:
        out["kinks"] = c.kinks
    return out


def annular_to_obj(link: AnnularLink) -> dict:
    out = {
        "strands": link.word.strands,
        "letters": [list(letter) for letter in link.word.letters],
        "components": [_component_to_obj(c) for c in link.components],
    }
    if link.split:
        out["split"] = [_component_to_obj(c) for c in link.split]
    return out


def obj_to_annular(obj) -> AnnularLink:
    _check(obj, "annular link", "")
    word = BraidWord(obj["strands"], obj["letters"])
    entries = obj["components"]
    # A letter joins at most two closure cycles, so a word has at least strands -
    # letters of them: too few entries are refused before a per-strand list is built.
    least = word.strands - len(word.letters)
    if least > len(entries):
        raise FormatError(f"word has at least {least} closure components, "
                          f"got {len(entries)} entries")
    cycles = word.cycles()
    if len(entries) != len(cycles):
        raise FormatError(
            f"word has {len(cycles)} closure components, got "
            f"{len(entries)} entries")
    return AnnularLink(
        word,
        tuple(AnnularComponent(strands=cyc, **entry)
              for entry, cyc in zip(entries, cycles)),
        tuple(AnnularComponent(strands=frozenset(), **entry)
              for entry in obj.get("split", ())))


# --------------------------------------------------------------------------
# tangles


def tangle_to_obj(t: ColoredTangle) -> dict:
    return {
        "arcs": [{"id": s.id, "color": s.color} for s in t.arcs],
        "closed": [{"id": s.id, "color": s.color} for s in t.closed],
        "crossings": [[c.over, c.under, c.sign] for c in t.crossings],
        "endpoints": {
            "top": [[s.arc, s.end, s.orientation] for s in t.top],
            "bottom": [[s.arc, s.end, s.orientation] for s in t.bottom],
        },
    }


def obj_to_tangle(obj) -> ColoredTangle:
    _check(obj, "tangle", "")
    ends = obj["endpoints"]
    return ColoredTangle(
        tuple(Strand(**s) for s in obj["arcs"]),
        tuple(Strand(**s) for s in obj["closed"]),
        tuple(Crossing(*c) for c in obj["crossings"]),
        tuple(Slot(*s) for s in ends["top"]),
        tuple(Slot(*s) for s in ends["bottom"]),
    )


# --------------------------------------------------------------------------
# results (emit-only)


def group_to_obj(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.invariant_factors)}


def cover_to_obj(c) -> dict:
    to_obj = kirby_to_obj if isinstance(c.total, KirbyDiagram) else annular_to_obj
    return {
        "total": to_obj(c.total),
        "map": [list(row) for row in c.component_map],
        "deck": [list(pair) for pair in c.deck],
    }


def relation_to_obj(r: Relation) -> dict:
    fields = ("equivalent", "homotopic", "topologically_concordant",
              "smoothly_isotopic")
    out = {name: getattr(r, name) for name in fields}
    out["evidence"] = {name: r.evidence[name] for name in fields
                       if name in r.evidence}
    return out


def crossed_class_to_obj(c: CrossedClass) -> dict:
    return {
        "elements": [list(el) for el, _ in c.parities],
        "parities": [bit for _, bit in c.parities],
        "zero": c.is_zero,
    }


def load_diagram(text: str):
    """Parse interchange JSON, detecting the diagram type by its keys."""
    try:
        obj = json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an int too long to convert
        raise FormatError(f"not valid JSON: {err}") from None
    except RecursionError:
        raise FormatError("JSON is nested too deeply to decode") from None
    if not isinstance(obj, dict):
        raise FormatError("a diagram file must hold a JSON object")
    for kind, read in (("kirby diagram", obj_to_kirby),
                       ("annular link", obj_to_annular),
                       ("tangle", obj_to_tangle)):
        if next(iter(_OBJECTS[kind][0])) in obj:
            return read(obj)
    raise FormatError("unrecognized diagram object (expected kirby, annular, "
                      "or tangle fields)")
