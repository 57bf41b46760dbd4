"""Independent output oracles for the benchmark workloads.

Nothing here calls lbkit: results are read through their public fields
and checked against closed forms or against arithmetic done in this
file.  Each check returns None when the result is right and a short
reason when it is wrong; the benchmark counts a reason as a failed
operation, outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from itertools import combinations
from math import gcd

# --------------------------------------------------------------------------
# exact integer arithmetic


def det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
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


def matmul(x, y):
    return [[sum(xi[k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for xi in x]


def divisor_factors(rows) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors: d_k is the gcd of
    all k x k minors and the k-th factor is d_k / d_(k-1), up to the
    first vanishing d_k."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    out, prev = [], 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _group_is(group, free_rank: int, torsion: tuple) -> bool:
    return group.free_rank == free_rank and tuple(group.invariant_factors) == torsion


# --------------------------------------------------------------------------
# snf_sweep


def check_small(rows, via: str, result):
    """``result`` is invariant_factors(m) or cokernel(m) of a matrix up to 3x3."""
    want = divisor_factors(rows)
    if via == "factors":
        if tuple(result) != want:
            return f"invariant factors {result} != determinantal {want}"
        return None
    torsion = tuple(f for f in want if f > 1)
    if not _group_is(result, len(rows) - len(want), torsion):
        return f"cokernel {result} != free {len(rows) - len(want)} torsion {torsion}"
    return None


def check_large(rows, result):
    """Certificate check of smith_normal_form plus agreement of
    invariant_factors: u.m.v = d, |det u| = |det v| = 1, d diagonal and
    non-negative with a divisibility chain."""
    d, u, v, factors = result
    dm, um, vm = [list(r) for r in d.entries], [list(r) for r in u.entries], \
        [list(r) for r in v.entries]
    if matmul(matmul(um, rows), vm) != dm:
        return "u * m * v != d"
    if abs(det(um)) != 1 or abs(det(vm)) != 1:
        return "transform is not unimodular"
    n_diag = min(len(dm), len(dm[0]) if dm else 0)
    for i, row in enumerate(dm):
        for j, x in enumerate(row):
            if i != j and x:
                return "d is not diagonal"
    diag = [dm[i][i] for i in range(n_diag)]
    if any(x < 0 for x in diag):
        return "negative diagonal entry"
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero:
        return "zeros before nonzero diagonal entries"
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "diagonal breaks the divisibility chain"
    if tuple(factors) != tuple(nonzero):
        return f"invariant_factors {factors} != Smith diagonal {nonzero}"
    return None


# --------------------------------------------------------------------------
# family closed forms


def family_linking(p: int, q: int):
    return [[0, 2, 2, 0], [2, p, 0, 0], [2, 0, q, 1], [0, 0, 1, 0]]


def family_obj(p: int, q: int) -> dict:
    """Interchange JSON of build_diagram(p, q), written out by hand."""
    return {
        "dotted": ["dot"],
        "two_handles": [
            {"id": "upper", "framing": p, "winding": [2]},
            {"id": "lower", "framing": q, "winding": [2]},
            {"id": "dual", "framing": 0, "winding": [0]},
        ],
        "linking": family_linking(p, q),
        "h3": 0,
        "h4": 0,
    }


def doubled_obj(p: int, q: int) -> dict:
    """Interchange JSON of double(build_diagram(p, q))."""
    link = [row + [0, 0, 0] for row in family_linking(p, q)] + [[0] * 7 for _ in range(3)]
    for k in range(3):
        link[1 + k][4 + k] = link[4 + k][1 + k] = 1
    base = family_obj(p, q)["two_handles"]
    meridians = [{"id": f"{h['id']}.m", "framing": 0, "winding": [0]} for h in base]
    return {"dotted": ["dot"], "two_handles": base + meridians,
            "linking": link, "h3": 1, "h4": 1}


def family_annular_obj(p: int, q: int) -> dict:
    """Interchange JSON of the family's attaching link: the word
    s1^-1 s3 with each winding curve normalized to writhe."""
    def comp(cid, framing, kinks):
        out = {"id": cid, "color": None, "framing": framing, "orientation": 1}
        if kinks:
            out["kinks"] = kinks
        return out
    return {
        "strands": 4,
        "letters": [[1, -1], [3, 1]],
        "components": [comp("upper", p, p + 1), comp("lower", q, q - 1)],
        "split": [{"id": "dual", "color": "purple", "framing": 0, "orientation": 1}],
    }


def _base_boundary(p: int) -> tuple:
    # |det| of the family linking matrix is 4; the 3x3 minors have gcd 2
    # exactly when p is even.
    return (2, 2) if p % 2 == 0 else (4,)


def _cover_boundary(p: int):
    # Criterion 04: Z when p = -2, else Z/|2p + 4|.
    return (1, ()) if p == -2 else (0, (abs(2 * p + 4),))


def _kirby_fields(d) -> dict:
    return {
        "dotted": list(d.dotted),
        "two_handles": [{"id": h.id, "framing": h.framing, "winding": list(h.winding)}
                        for h in d.two_handles],
        "linking": [list(row) for row in d.linking],
        "h3": d.three_handles,
        "h4": d.four_handles,
    }


def check_pipeline(p: int, q: int, result):
    """Closed forms of criteria 01-04 and 10 on one (p, q) pipeline."""
    d, g1, b1, cov, cb, slides, text, back, doubled, g2 = result
    if _kirby_fields(d) != family_obj(p, q):
        return "build_diagram differs from the family closed form"
    if not _group_is(g1, 0, (2,)):
        return f"h1 = {g1}, expected Z/2 (criterion 01)"
    if not _group_is(b1, 0, _base_boundary(p)):
        return f"boundary_h1 = {b1}, expected torsion {_base_boundary(p)}"
    framings = sorted(h.framing for h in cov.total.two_handles)
    if framings != sorted((p + 1, p + 1, q - 1, q - 1, 0, 0)):
        return f"cover framings {framings} (criterion 02)"
    if not _group_is(cb, *_cover_boundary(p)):
        return f"cover boundary_h1 = {cb} (criterion 04)"
    for eps, slid in zip((1, -1), slides):
        want = family_obj(p, q + 2 * eps)
        if _kirby_fields(slid) != want:
            return f"slide with eps={eps} is not the (p, q{eps * 2:+d}) diagram (criterion 03)"
    if json.loads(text) != family_obj(p, q):
        return "dumps output differs from the interchange closed form"
    if _kirby_fields(back) != family_obj(p, q) or back.attaching is not None:
        return "load_diagram did not round-trip the diagram"
    if _kirby_fields(doubled) != doubled_obj(p, q):
        return "double differs from its closed form"
    euler = 1 - len(doubled.dotted) + len(doubled.two_handles) \
        - doubled.three_handles + doubled.four_handles
    if euler != 6:
        return f"Euler characteristic of the double is {euler} (criterion 10)"
    if not _group_is(g2, 0, (2,)):
        return f"h1 of the double = {g2} (criterion 10)"
    return None


def _lift_name(cid: str, j: int, m: int) -> str:
    """Name of the j-th lift of component ``cid`` in a degree-m cover."""
    if m == 1:
        return cid
    return f"{cid}.{('r', 'b')[j] if m == 2 else j}"


def check_link_cover(link, m: int, cov):
    """Degree-m cover of a normalized annular link, checked by replaying
    the m-th power of the braid word strand by strand."""
    base_letters = [tuple(x) for x in link.word.letters]
    if cov.degree != m or [tuple(x) for x in cov.total.word.letters] != base_letters * m:
        return "cover word is not the m-th power of the base word"
    owner = {}
    comps = {c.id: c for c in cov.total.components}
    for c in cov.total.components:
        for s in c.strands:
            owner[s] = c.id
    arrangement = list(range(1, link.word.strands + 1))
    self_writhe = dict.fromkeys(comps, 0)
    mixed = {}
    for _ in range(m):
        for pos, sign in base_letters:
            a, b = arrangement[pos - 1], arrangement[pos]
            arrangement[pos - 1], arrangement[pos] = b, a
            oa, ob = owner[a], owner[b]
            if oa == ob:
                self_writhe[oa] += sign
            else:
                key = (min(oa, ob), max(oa, ob))
                mixed[key] = mixed.get(key, 0) + sign
    lifts_of = {}
    for cover_id, base_id, _ in cov.component_map:
        lifts_of.setdefault(base_id, []).append(cover_id)
    for c in link.components:
        g = gcd(len(c.strands), m)
        lifts = lifts_of.get(c.id, [])
        if lifts != [_lift_name(c.id, j, m) for j in range(g)]:
            return f"{c.id}: expected {g} lifts, got {lifts}"
        if set().union(*(comps[x].strands for x in lifts)) != set(c.strands):
            return f"{c.id}: lifts do not cover its strands"
        for x in lifts:
            lift = comps[x]
            if len(lift.strands) != len(c.strands) // g or lift.kinks != c.kinks * (m // g):
                return f"{x}: wrong winding or kink count"
            if lift.framing != self_writhe[x] + lift.kinks:
                return f"{x}: framing is not its writhe"
            siblings = sum(mixed.get((min(x, y), max(x, y)), 0) // 2
                           for y in lifts if y != x)
            if (m // g) * c.framing != lift.framing + siblings:
                return f"{x}: framing identity fails"
    split = {c.id: c for c in cov.total.split}
    for c in link.split:
        for j in range(m):
            copy = split.get(_lift_name(c.id, j, m))
            if copy is None or copy.framing != c.framing or copy.kinks != c.kinks:
                return f"{c.id}: split copy {j} missing or reframed"
    deck = dict(cov.deck)
    base_of = {row[0]: row[1] for row in cov.component_map}
    if sorted(deck) != sorted(base_of) or sorted(deck.values()) != sorted(base_of):
        return "deck map is not a permutation of the cover components"
    if any(base_of[a] != base_of[b] for a, b in deck.items()):
        return "deck map mixes lifts of different base components"
    return None


# --------------------------------------------------------------------------
# classification


def expected_relation(i: int, j: int) -> tuple[bool, bool, bool, bool]:
    """(equivalent, homotopic, concordant, isotopic): the mod-4 law."""
    d = i - j
    return True, d % 2 == 0, d % 4 == 0, d % 4 == 0


def check_relation(i: int, j: int, rel):
    got = (rel.equivalent, rel.homotopic, rel.topologically_concordant,
           rel.smoothly_isotopic)
    if got != expected_relation(i, j):
        return f"classify({i}, {j}) = {got}, mod-4 law says {expected_relation(i, j)}"
    return None


def _error_exit(code: int, out: str):
    try:
        obj = json.loads(out)
    except ValueError:
        return f"exit {code} with non-JSON output"
    if code != 1 or set(obj) != {"error"} or not isinstance(obj["error"], str):
        return f"exit {code} with {out[:80]!r}, expected exit 1 and an error object"
    return None


def check_cli(op, code: int, out: str):
    """Check one CLI invocation against its documented result.

    ``op`` is the workload's operation tuple: (verb, *parameters).
    """
    verb = op[0]
    if verb in ("obstruct", "homotopy-class") and (op[1] - op[2]) % 2:
        return _error_exit(code, out)
    if code != 0:
        return f"{verb} exited {code}: {out[:120]!r}"
    if verb in ("render-text", "render-svg"):
        return _check_render(verb, op[1], op[2], out)
    if verb == "table":
        return _check_table(op[1], op[2], out)
    try:
        obj = json.loads(out)
    except ValueError:
        return f"{verb} printed non-JSON output"
    if verb == "classify":
        _, i, j, _closed = op
        want = dict(zip(("equivalent", "homotopic", "topologically_concordant",
                         "smoothly_isotopic"), expected_relation(i, j)))
        got = {k: obj.get(k) for k in want}
        if got != want or not isinstance(obj.get("evidence"), dict):
            return f"classify {i} {j}: {got} != {want}"
        return None
    if verb == "obstruct":
        _, i, j, _closed = op
        half = (i - j) // 2
        want = {"parity": half % 2, "lk_L": half, "claim1": True, "claim2": True}
        return None if obj == want else f"obstruct {i} {j}: {obj} != {want}"
    if verb == "homotopy-class":
        bit = (abs(op[1] - op[2]) // 2) % 2
        want = {"elements": [[1]], "parities": [bit], "zero": bit == 0}
        return None if obj == want else f"homotopy-class: {obj} != {want}"
    p, q = op[1], op[2]
    if verb == "build":
        return None if obj == family_obj(p, q) else "build output differs"
    if verb == "homology":
        return None if obj == {"free_rank": 0, "torsion": [2]} else f"homology: {obj}"
    if verb == "boundary":
        want = {"free_rank": 0, "torsion": list(_base_boundary(p))}
        return None if obj == want else f"boundary: {obj} != {want}"
    if verb == "double":
        return None if obj == doubled_obj(p, q) else "double output differs"
    if verb == "slide":
        eps = op[3]
        return None if obj == family_obj(p, q + 2 * eps) else "slide output differs"
    if verb == "cover-build":
        return _check_double_cover_obj(p, q, obj)
    if verb == "cover-link":
        return _check_degree3_obj(p, q, obj)
    return f"no oracle for verb {verb!r}"


def _check_double_cover_obj(p: int, q: int, obj):
    handles = obj["total"]["two_handles"]
    framings = sorted(h["framing"] for h in handles)
    if framings != sorted((p + 1, p + 1, q - 1, q - 1, 0, 0)):
        return f"cover framings {framings} (criterion 02)"
    if sorted(row[1] for row in obj["map"]) != sorted(["upper", "lower", "dual"] * 2):
        return "cover map does not give two lifts per handle"
    deck = dict(obj["deck"])
    if any(deck[deck[a]] != a or deck[a] == a for a in deck):
        return "deck map is not a fixed-point-free involution"
    return None


def _check_degree3_obj(p: int, q: int, obj):
    total = obj["total"]
    want_comps = [("upper.0", 3 * p, 3 * (p + 1)), ("lower.0", 3 * q, 3 * (q - 1))]
    got_comps = [(c["id"], c["framing"], c.get("kinks", 0)) for c in total["components"]]
    if got_comps != want_comps:
        return f"degree-3 lifts {got_comps} != {want_comps}"
    if total["letters"] != [[1, -1], [3, 1]] * 3:
        return "degree-3 cover word is not the cube of the base word"
    if [c["id"] for c in total["split"]] != ["dual.0", "dual.1", "dual.2"]:
        return "split dual does not lift to three copies"
    deck = {a: b for a, b in obj["deck"]}
    if deck != {"upper.0": "upper.0", "lower.0": "lower.0",
                "dual.0": "dual.1", "dual.1": "dual.2", "dual.2": "dual.0"}:
        return f"degree-3 deck map {deck}"
    return None


def _check_table(lo: int, closed: bool, out: str):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["i", "j", "equivalent", "homotopic", "concordant", "isotopic"]:
        return "table header differs"
    want = [[str(i), str(j)] + [str(int(x)) for x in expected_relation(i, j)]
            for i in range(lo, lo + 3) for j in range(lo, lo + 3)]
    return None if rows[1:] == want else "table rows break the mod-4 law"


def _check_render(verb: str, p: int, q: int, out: str):
    if verb == "render-text":
        lines = out.splitlines()
        want = ["dotted: dot",
                f"2-handle upper: framing {p}, winding [2]",
                f"2-handle lower: framing {q}, winding [2]",
                "2-handle dual: framing 0, winding [0]"]
        return None if lines[:4] == want else "text rendering lacks a handle line"
    try:
        root = ET.fromstring(out)
    except ET.ParseError:
        return "SVG does not parse"
    if not root.tag.endswith("svg"):
        return "SVG root is not <svg>"
    labels = [el.text for el in root.iter() if el.get("class") == "framing"]
    return None if labels == [str(p), str(q), "0"] else f"SVG framing labels {labels}"


def probe_handled(code: int, out: str, err: str) -> bool:
    """A malformed diagram is handled when lbkit exits 1 with an error
    object and no traceback."""
    return _error_exit(code, out) is None and "Traceback" not in err
