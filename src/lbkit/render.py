"""Static text and SVG depictions of diagrams.

Renderings are deterministic functions of the diagram: fixed layout,
fixed attribute order, no timestamps.  Text output gives one line per
strand or handle; SVG output draws braid letters left to right, framing
labels next to their components, and colors as stroke classes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .diagrams import AnnularLink, BicoloredLink, ColoredTangle
from .kirby import KirbyDiagram

__all__ = ["UnsupportedFormat", "render"]


class UnsupportedFormat(ValueError):
    """The requested rendering format is not available."""


def render(obj, fmt: str) -> str:
    if fmt not in ("text", "svg"):
        raise UnsupportedFormat(f"unknown format {fmt!r} (use text or svg)")
    if isinstance(obj, ColoredTangle):
        if fmt == "text":
            return _token_lines(obj.arcs + obj.closed, obj.crossings)
        return _tangle_svg(obj)
    if isinstance(obj, KirbyDiagram):
        return _kirby_text(obj) if fmt == "text" else _kirby_svg(obj)
    if isinstance(obj, AnnularLink):
        return _annular_text(obj) if fmt == "text" else _annular_svg(obj)
    if isinstance(obj, BicoloredLink):
        if fmt == "text":
            return _token_lines(obj.components, obj.crossings)
        return _link_svg(obj)
    raise UnsupportedFormat(f"cannot render {type(obj).__name__} objects")


def _svg_root(width: int, height: int) -> ET.Element:
    return ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width),
        "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })


def _svg_text(root: ET.Element) -> str:
    return ET.tostring(root, encoding="unicode") + "\n"


_STROKE = {"red": "#c22", "blue": "#26c", "purple": "#849",
           None: "#333"}


def _color_class(color) -> str:
    return f"stroke-{color}" if color else "stroke-plain"


def _token_lines(strands, crossings) -> str:
    """One line per strand or component: its id, its color and an O or U
    token with the crossing sign for each crossing it passes over or
    under, in crossing order."""
    if not strands:
        return "(empty)\n"
    lines = []
    for s in strands:
        tokens = []
        for c in crossings:
            if c.over == s.id:
                tokens.append(f"O{'+' if c.sign > 0 else '-'}")
            elif c.under == s.id:
                tokens.append(f"U{'+' if c.sign > 0 else '-'}")
        lines.append(f"{s.id}({s.color or '-'}): {' '.join(tokens)}".rstrip())
    return "\n".join(lines) + "\n"


def _crossing_glyph(root: ET.Element, x: int, y1: int, y2: int,
                    label_y: int, label: str) -> None:
    """A crossing at column x between rows y1 and y2, with its label.

    The under strand is drawn broken at the crossing column.
    """
    ET.SubElement(root, "line", {
        "class": "crossing-over", "stroke": "#000",
        "x1": str(x - 8), "y1": str(y1), "x2": str(x + 8), "y2": str(y2),
    })
    ET.SubElement(root, "line", {
        "class": "crossing-under", "stroke": "#000",
        "stroke-dasharray": "4 6",
        "x1": str(x - 8), "y1": str(y2), "x2": str(x + 8), "y2": str(y1),
    })
    ET.SubElement(root, "text", {
        "x": str(x), "y": str(label_y), "font-size": "9",
        "text-anchor": "middle",
    }).text = label


# --------------------------------------------------------------------------
# tangles


def _tangle_svg(t: ColoredTangle) -> str:
    strands = t.arcs + t.closed
    width = 60 + 26 * len(t.crossings)
    height = 30 + 24 * max(len(strands), 1)
    root = _svg_root(width, height)
    row = {s.id: 24 + 24 * k for k, s in enumerate(strands)}
    for s in strands:
        y = row[s.id]
        ET.SubElement(root, "line", {
            "class": f"strand {_color_class(s.color)}",
            "stroke": _STROKE.get(s.color, "#333"),
            "x1": "10", "y1": str(y), "x2": str(width - 10), "y2": str(y),
        })
    for k, c in enumerate(t.crossings):
        _crossing_glyph(root, 40 + 26 * k, row[c.over], row[c.under],
                        height - 6, "+" if c.sign > 0 else "-")
    return _svg_text(root)


# --------------------------------------------------------------------------
# handle diagrams


def _kirby_text(d: KirbyDiagram) -> str:
    lines = []
    if d.dotted:
        lines.append("dotted: " + " ".join(d.dotted))
    for h in d.two_handles:
        winding = "[" + " ".join(str(w) for w in h.winding) + "]"
        lines.append(f"2-handle {h.id}: framing {h.framing}, winding {winding}")
    if d.three_handles or d.four_handles:
        lines.append(f"3-handles: {d.three_handles}  4-handles: {d.four_handles}")
    if d.linking:
        lines.append("linking:")
        for row in d.linking:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
    if not lines:
        return "(empty)\n"
    return "\n".join(lines) + "\n"


def _kirby_svg(d: KirbyDiagram) -> str:
    dotted = {"class": "dotted", "stroke": "#333", "fill": "none",
              "stroke-dasharray": "5 3"}
    curve = {"class": "curve", "stroke": "#26c", "fill": "none"}
    items = [(did, dotted, None) for did in d.dotted]
    items += [(h.id, curve, str(h.framing)) for h in d.two_handles]
    return _circle_row_svg(110, 50, 18, 95, items)


def _circle_row_svg(height: int, cy: int, r: int, label_y: int,
                    items) -> str:
    """One row of labelled circles, 60 apart from x = 50.

    Each item is (label, circle attributes ahead of the position, framing
    text drawn above the circle or None); labels sit at ``label_y``.
    """
    root = _svg_root(max(60 * len(items) + 40, 80), height)
    for k, (label, attributes, above) in enumerate(items):
        x = str(50 + 60 * k)
        ET.SubElement(root, "circle", {**attributes, "cx": x, "cy": str(cy),
                                       "r": str(r)})
        if above is not None:
            ET.SubElement(root, "text", {
                "class": "framing",
                "x": x, "y": "24", "font-size": "11", "text-anchor": "middle",
            }).text = above
        ET.SubElement(root, "text", {
            "x": x, "y": str(label_y), "font-size": "10",
            "text-anchor": "middle",
        }).text = label
    return _svg_text(root)


# --------------------------------------------------------------------------
# annular links


def _annular_text(link: AnnularLink) -> str:
    word = link.word
    letters = " ".join(f"s{pos}{'+' if sign > 0 else '-'}"
                       for pos, sign in word.letters)
    lines = [f"word on {word.strands} strands: {letters}".rstrip()]
    for c in link.components:
        strands = "{" + ",".join(str(s) for s in sorted(c.strands)) + "}"
        extra = f", kinks {c.kinks}" if c.kinks else ""
        lines.append(f"component {c.id}: strands {strands}, "
                     f"framing {c.framing}{extra}, color {c.color or '-'}")
    for c in link.split:
        extra = f", kinks {c.kinks}" if c.kinks else ""
        lines.append(f"split {c.id}: framing {c.framing}{extra}, "
                     f"color {c.color or '-'}")
    return "\n".join(lines) + "\n"


def _annular_svg(link: AnnularLink) -> str:
    word = link.word
    width = 80 + 26 * max(len(word.letters), 1)
    height = 40 + 22 * word.strands + 16 * (len(link.split) + 1)
    root = _svg_root(width, height)
    color_of_strand = {}
    for c in link.components:
        for s in c.strands:
            color_of_strand[s] = c.color
    for s in range(1, word.strands + 1):
        y = 20 + 22 * s
        color = color_of_strand.get(s)
        ET.SubElement(root, "line", {
            "class": f"strand {_color_class(color)}",
            "stroke": _STROKE.get(color, "#333"),
            "x1": "30", "y1": str(y), "x2": str(width - 50), "y2": str(y),
        })
    for k, (pos, sign) in enumerate(word.letters):
        y1 = 20 + 22 * pos
        _crossing_glyph(root, 50 + 26 * k, y1, y1 + 22, y1 - 6,
                        f"{pos}{'+' if sign > 0 else '-'}")
    y = 20 + 22 * word.strands + 18
    for c in link.components + link.split:
        ET.SubElement(root, "text", {
            "class": "framing",
            "x": str(width - 46), "y": str(y), "font-size": "10",
        }).text = f"{c.id}: {c.framing}"
        y += 14
    return _svg_text(root)


# --------------------------------------------------------------------------
# closed links


def _link_svg(link: BicoloredLink) -> str:
    return _circle_row_svg(100, 45, 16, 85, [
        (comp.id, {"class": f"component {_color_class(comp.color)}",
                   "stroke": _STROKE.get(comp.color, "#333"), "fill": "none"},
         None)
        for comp in link.components])
