"""JSON interchange for diagrams and results.

One fixed schema per type, field names exact, unknown fields rejected;
serialization is deterministic (fixed key order, indent 2, trailing
newline) so identical values produce identical bytes.  Optional fields
are emitted only when they differ from their defaults, and parsing
treats absence as the default, so round trips are exact.

Kirby diagrams serialize without their attaching link: the JSON schema
carries matrices only, and for family-shaped diagrams the attaching
form is reconstructible (``kirby.ensure_attaching``).
"""

from __future__ import annotations

import json

from .diagrams import (
    AnnularComponent,
    AnnularLink,
    BraidWord,
    ColoredTangle,
    Crossing,
    Slot,
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
    return json.dumps(obj, indent=2) + "\n"


def _require(obj, what: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise FormatError(f"{what} is missing fields: {', '.join(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise FormatError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")


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


def _array(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a JSON array")
    return tuple(value)


def obj_to_kirby(obj) -> KirbyDiagram:
    _require(obj, "kirby diagram", ("dotted", "two_handles", "linking", "h3", "h4"))
    handles = []
    for k, entry in enumerate(_array(obj["two_handles"], "two_handles")):
        _require(entry, "two-handle", ("id", "framing", "winding"))
        handles.append(TwoHandle(
            entry["id"], entry["framing"],
            _array(entry["winding"], f"two_handles[{k}].winding")))
    return KirbyDiagram(
        _array(obj["dotted"], "dotted"),
        tuple(handles),
        tuple(_array(row, f"linking[{k}]")
              for k, row in enumerate(_array(obj["linking"], "linking"))),
        obj["h3"],
        obj["h4"],
    )


# --------------------------------------------------------------------------
# annular links


def _component_to_obj(c: AnnularComponent) -> dict:
    out = {"id": c.id, "color": c.color, "framing": c.framing,
           "orientation": c.orientation}
    if c.kinks:
        out["kinks"] = c.kinks
    return out


def _obj_to_component(entry, strands: frozenset) -> AnnularComponent:
    _require(entry, "component", ("id", "color", "framing", "orientation"),
             ("kinks",))
    return AnnularComponent(entry["id"], strands, entry["color"],
                            entry["framing"], entry["orientation"],
                            entry.get("kinks", 0))


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
    _require(obj, "annular link", ("strands", "letters", "components"),
             ("split",))
    word = BraidWord(obj["strands"], tuple(
        _array(letter, f"letters[{k}]")
        for k, letter in enumerate(_array(obj["letters"], "letters"))))
    cycles = word.cycles()
    entries = _array(obj["components"], "components")
    if len(entries) != len(cycles):
        raise FormatError(
            f"word has {len(cycles)} closure components, got "
            f"{len(entries)} entries")
    components = tuple(_obj_to_component(entry, cyc)
                       for entry, cyc in zip(entries, cycles))
    split = tuple(_obj_to_component(entry, frozenset())
                  for entry in _array(obj.get("split", []), "split"))
    return AnnularLink(word, components, split)


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
    _require(obj, "tangle", ("arcs", "closed", "crossings", "endpoints"))
    _require(obj["endpoints"], "endpoints", ("top", "bottom"))

    def strands(entries):
        out = []
        for entry in entries:
            _require(entry, "strand", ("id", "color"))
            out.append(Strand(entry["id"], entry["color"]))
        return tuple(out)

    def slots(entries):
        return tuple(Slot(arc, end, orientation)
                     for arc, end, orientation in entries)

    return ColoredTangle(
        strands(obj["arcs"]),
        strands(obj["closed"]),
        tuple(Crossing(o, u, s) for o, u, s in obj["crossings"]),
        slots(obj["endpoints"]["top"]),
        slots(obj["endpoints"]["bottom"]),
    )


# --------------------------------------------------------------------------
# results (emit-only)


def group_to_obj(g: AbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.invariant_factors)}


def cover_to_obj(c) -> dict:
    if isinstance(c.total, KirbyDiagram):
        total = kirby_to_obj(c.total)
    else:
        total = annular_to_obj(c.total)
    return {
        "total": total,
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
    except json.JSONDecodeError as err:
        raise FormatError(f"not valid JSON: {err}") from None
    except RecursionError:
        raise FormatError("JSON is nested too deeply to decode") from None
    if not isinstance(obj, dict):
        raise FormatError("a diagram file must hold a JSON object")
    if "dotted" in obj:
        return obj_to_kirby(obj)
    if "strands" in obj:
        return obj_to_annular(obj)
    if "arcs" in obj:
        return obj_to_tangle(obj)
    raise FormatError("unrecognized diagram object (expected kirby, annular, "
                      "or tangle fields)")
