import argparse
import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import lbkit.cli
from lbkit import diagrams, homology
from lbkit.cli import (
    MAX_COVER_DEGREE, MAX_TABLE_TWIST, MAX_TWIST, _VERBS, _build_parser, main,
)
from lbkit.covers import cyclic_cover_link, double_cover_diagram
from lbkit.diagrams import (
    BLUE, MAX_STRANDS, PURPLE, RED, AnnularComponent, BicoloredLink, BraidWord,
    DiagramError, braid_closure, braid_closure_link, close_tangle, empty_tangle,
    half_twist_tangle, normalize_to_writhe,
)
from lbkit.homology import AbelianGroup
from lbkit.homotopy import classify, crossed_class, twist_homotopy
from lbkit.kirby import build_diagram, double, ensure_attaching
from lbkit.obstruction import clasped_side
from lbkit.render import UnsupportedFormat, render
from lbkit.serialize import (
    FormatError, annular_to_obj, cover_to_obj, crossed_class_to_obj, dumps,
    group_to_obj, kirby_to_obj, load_diagram, obj_to_annular, obj_to_kirby,
    obj_to_tangle, relation_to_obj, tangle_to_obj,
)


class TestRoundTrips:
    def test_kirby(self):
        d = build_diagram(3, -2)
        back = obj_to_kirby(json.loads(dumps(kirby_to_obj(d))))
        # attaching data is reconstructible, so the wire format drops it
        assert back == replace(d, attaching=None)
        assert ensure_attaching(back) == d

    def test_kirby_double(self):
        d = double(build_diagram(0, 5))
        back = obj_to_kirby(json.loads(dumps(kirby_to_obj(d))))
        assert back == d

    def test_annular_with_split_and_kinks(self):
        link = build_diagram(-4, 1).attaching
        back = obj_to_annular(json.loads(dumps(annular_to_obj(link))))
        assert back == link

    def test_annular_cover(self):
        link = build_diagram(1, 1).attaching
        total = cyclic_cover_link(link, 3).total
        assert obj_to_annular(json.loads(dumps(annular_to_obj(total)))) == total

    def test_tangle(self):
        t = half_twist_tangle(-3, (RED, BLUE))
        assert obj_to_tangle(json.loads(dumps(tangle_to_obj(t)))) == t

    def test_group_shape(self):
        assert group_to_obj(AbelianGroup(1, (2, 4))) == \
            {"free_rank": 1, "torsion": [2, 4]}

    def test_cover_shape(self):
        cov = double_cover_diagram(build_diagram(2, 2))
        obj = cover_to_obj(cov)
        assert sorted(obj) == ["deck", "map", "total"]
        assert ["upper.r", "upper", "r"] in obj["map"]
        link_cov = cyclic_cover_link(build_diagram(2, 2).attaching, 2)
        assert sorted(cover_to_obj(link_cov)) == ["deck", "map", "total"]

    def test_relation_shape(self):
        obj = relation_to_obj(classify(0, 2))
        assert list(obj) == ["equivalent", "homotopic",
                             "topologically_concordant", "smoothly_isotopic",
                             "evidence"]
        assert obj["topologically_concordant"] is False

    def test_crossed_class_shape(self):
        obj = crossed_class_to_obj(crossed_class(twist_homotopy(0)))
        assert obj == {"elements": [[1]], "parities": [1], "zero": False}

    def test_dumps_format(self):
        text = dumps({"a": 1})
        assert text.endswith("\n")
        assert text == json.dumps({"a": 1}, indent=2) + "\n"


class Level(IntEnum):
    ONE = 1


def outcome(encode, value):
    """What ``encode`` gives for ``value``: its text, or its exception type."""
    try:
        return encode(value)
    except Exception as err:  # the type is what must match
        return type(err)


def stdlib_dumps(value):
    return json.dumps(value, indent=2) + "\n"


awkward_text = st.lists(st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "/", "\u2028", "é", "\U0001f600",
     "\ud800", "\udfff", "a"])).map("".join)
json_scalars = (st.none() | st.booleans() | st.just(Level.ONE) | st.integers()
                | st.integers(-2 ** 300, 2 ** 300) | st.floats() | st.text()
                | awkward_text)
json_keys = st.text() | awkward_text | st.sampled_from([1, -2.5, True, None])
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=24)


class TestDumpsWriter:
    """``dumps`` writes what ``json.dumps(v, indent=2)`` writes, plus a
    newline, or raises what it raises."""

    @settings(max_examples=500)
    @given(json_values)
    def test_same_bytes_as_the_stdlib(self, value):
        assert outcome(dumps, value) == outcome(stdlib_dumps, value)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], {"a": {}}, ({"x": [1, (2, 3)], "y": None},), "\ud800",
        {"k": [True, False, None, -10 ** 40]}, [float("nan"), float("-inf")],
        {1: 2, "1": 3}, [Level.ONE], {Level.ONE: 1}])
    def test_same_bytes_for_edge_values(self, value):
        assert dumps(value) == stdlib_dumps(value)

    def test_same_exception_types(self):
        circular = []
        circular.append(circular)
        for value in (object(), {1, 2}, circular, [10 ** 4999]):
            expected = outcome(stdlib_dumps, value)
            assert isinstance(expected, type) and issubclass(expected, Exception)
            assert outcome(dumps, value) is expected

    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="dumps is json.dumps where indent has a C path")
    def test_pipeline_objects_skip_the_pure_python_encoder(self, monkeypatch):
        objs = [kirby_to_obj(build_diagram(3, 2)), relation_to_obj(classify(0, 2))]
        expected = [stdlib_dumps(obj) for obj in objs]

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert [dumps(obj) for obj in objs] == expected


class TestLoadDiagram:
    def test_dispatch(self):
        assert load_diagram(dumps(kirby_to_obj(build_diagram(0, 0)))) \
            .__class__.__name__ == "KirbyDiagram"
        assert load_diagram(dumps(annular_to_obj(
            build_diagram(0, 0).attaching))).__class__.__name__ == "AnnularLink"
        assert load_diagram(dumps(tangle_to_obj(half_twist_tangle(1)))) \
            .__class__.__name__ == "ColoredTangle"

    def test_rejections(self):
        with pytest.raises(FormatError):
            load_diagram("{not json")
        with pytest.raises(FormatError):
            load_diagram(dumps({"something": "else"}))
        with pytest.raises(FormatError):
            load_diagram(dumps({"dotted": [], "two_handles": [],
                                "linking": []}))  # h3/h4 missing
        obj = kirby_to_obj(build_diagram(0, 0))
        obj["bonus"] = 1
        with pytest.raises(FormatError):
            load_diagram(dumps(obj))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_build_emits_kirby_json(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--p", "3", "--q", "2")
        assert code == 0
        assert obj_to_kirby(json.loads(out)) == \
            replace(build_diagram(3, 2), attaching=None)

    def test_homology_from_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(dumps(kirby_to_obj(build_diagram(1, 1))))
        code, out, _ = run_cli(capsys, "homology", str(path))
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [2]}

    def test_boundary_from_stdin(self, capsys, monkeypatch):
        payload = dumps(kirby_to_obj(build_diagram(2, 0)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run_cli(capsys, "boundary", "-")
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [2, 2]}

    def test_deeply_nested_json_is_a_format_error(self, capsys, monkeypatch):
        depth = 100_000
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * depth + "]" * depth))
        code, out, err = run_cli(capsys, "homology", "-")
        assert code == 1
        assert "nested too deeply" in json.loads(out)["error"]
        assert err == ""

    def test_input_and_parameters_conflict(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(dumps(kirby_to_obj(build_diagram(0, 0))))
        with pytest.raises(SystemExit) as exc:
            main(["homology", str(path), "--p", "1", "--q", "1"])
        assert exc.value.code == 2

    def test_input_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["homology"])
        assert exc.value.code == 2

    def test_cover_of_family_diagram(self, capsys):
        code, out, _ = run_cli(capsys, "cover", "--p", "3", "--q", "2")
        assert code == 0
        obj = json.loads(out)
        framings = sorted(h["framing"] for h in obj["total"]["two_handles"])
        assert framings == [0, 0, 1, 1, 4, 4]

    def test_cover_degree_guard_is_a_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "cover", "--p", "0", "--q", "0",
                               "--degree", "3")
        assert code == 1
        assert "error" in json.loads(out)

    def test_cover_of_annular_input(self, capsys, tmp_path):
        link = build_diagram(3, 2).attaching
        path = tmp_path / "link.json"
        path.write_text(dumps(annular_to_obj(link)))
        code, out, _ = run_cli(capsys, "cover", str(path), "--degree", "3")
        assert code == 0
        obj = json.loads(out)
        # the cover closes the cubed word on the same strands
        assert obj["total"]["strands"] == 4
        assert len(obj["total"]["letters"]) == 6
        assert obj["total"] == annular_to_obj(cyclic_cover_link(link, 3).total)

    def test_double(self, capsys):
        code, out, _ = run_cli(capsys, "double", "--p", "1", "--q", "-1")
        assert code == 0
        assert obj_to_kirby(json.loads(out)) == double(build_diagram(1, -1))

    def test_double_of_a_closed_diagram_is_a_domain_error(self, capsys, monkeypatch):
        # ids that do not collide, so only the 3- and 4-handles are wrong
        obj = kirby_to_obj(double(build_diagram(1, 2)))
        for h in obj["two_handles"]:
            h["id"] = h["id"].replace(".m", "_meridian")
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, "double", "-")
        assert code == 1
        assert "3- or 4-handles" in json.loads(out)["error"]
        assert err == ""

    def test_slide(self, capsys):
        code, out, _ = run_cli(capsys, "slide", "--p", "1", "--q", "5",
                               "--a", "lower", "--b", "dual", "--eps", "-1")
        assert code == 0
        assert obj_to_kirby(json.loads(out)) == \
            replace(build_diagram(1, 3), attaching=None)

    def test_slide_unknown_handle_is_a_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "slide", "--p", "0", "--q", "0",
                               "--a", "nope", "--b", "dual", "--eps", "1")
        assert code == 1
        assert "no handle" in json.loads(out)["error"]

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--i", "0", "--j", "2")
        assert code == 0
        assert json.loads(out) == relation_to_obj(classify(0, 2))

    def test_obstruct(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "--i", "0", "--j", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"parity": 1, "lk_L": -1, "claim1": True, "claim2": True}
        code, out, _ = run_cli(capsys, "obstruct", "--i", "2", "--j", "0",
                               "--closed")
        assert json.loads(out)["lk_L"] == 1

    def test_obstruct_non_homotopic_is_a_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "--i", "0", "--j", "1")
        assert code == 1
        assert "not homotopic" in json.loads(out)["error"]

    def test_homotopy_class(self, capsys):
        code, out, _ = run_cli(capsys, "homotopy-class", "--i", "0", "--j", "6")
        assert code == 0
        assert json.loads(out) == {"elements": [[1]], "parities": [1],
                                   "zero": False}

    def test_homotopy_class_odd_difference(self, capsys):
        code, out, _ = run_cli(capsys, "homotopy-class", "--i", "0", "--j", "3")
        assert code == 1
        assert "error" in json.loads(out)

    def test_table(self, capsys):
        # negative bounds need the = form, or argparse reads them as flags
        code, out, _ = run_cli(capsys, "table", "--range=-2:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,equivalent,homotopic,concordant,isotopic"
        assert len(lines) == 1 + 5 * 5
        assert "0,2,1,1,0,0" in lines

    def test_table_decides_each_unordered_pair_once(self, capsys,
                                                     monkeypatch):
        pairs = []

        def spy(i, j, closed=False):
            pairs.append((i, j))
            return classify(i, j, closed)

        monkeypatch.setattr(lbkit.cli, "classify", spy)
        code, out, _ = run_cli(capsys, "table", "--range=-3:2")
        assert code == 0
        assert len(out.splitlines()) == 1 + 6 * 6
        assert sorted(pairs) == [(i, j) for i in range(-3, 3)
                                 for j in range(i, 3)]

    def test_table_bad_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--range", "5"])
        assert exc.value.code == 2

    def test_render_text(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--p", "0", "--q", "0")
        assert code == 0
        assert "dotted" in out

    def test_render_svg_parses(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--p", "0", "--q", "0",
                               "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")

    def test_library_render_rejects_unknown_formats(self):
        # the CLI's argparse choices stop these before render sees them
        with pytest.raises(UnsupportedFormat,
                           match="unknown format 'pdf' \\(use text or svg\\)"):
            render(build_diagram(0, 0), "pdf")

    def test_library_render_rejects_undrawable_objects(self):
        with pytest.raises(UnsupportedFormat,
                           match="cannot render BraidWord objects"):
            render(BraidWord(2, ((1, 1),)), "text")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "build", "--p", "2", "--q", "2")
        target = tmp_path / "d.json"
        code2 = main(["build", "--p", "2", "--q", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == code2 == 0
        assert captured.out == ""
        assert target.read_text() == out

    def test_repeat_runs_are_identical(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--range", "0:3", "--closed")
        _, second, _ = run_cli(capsys, "table", "--range", "0:3", "--closed")
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lbkit", "build", "--p", "0", "--q", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dotted"] == ["dot"]

    def test_out_into_missing_directory_is_a_domain_error(self, capsys,
                                                          tmp_path):
        target = tmp_path / "missing" / "d.json"
        code, out, err = run_cli(capsys, "build", "--p", "1", "--q", "2",
                                 "--out", str(target))
        assert code == 1
        assert "No such file or directory" in json.loads(out)["error"]
        assert err == ""
        assert not target.parent.exists()

    def test_out_onto_directory_is_a_domain_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "build", "--p", "1", "--q", "2",
                                 "--out", str(tmp_path))
        assert code == 1
        assert "Is a directory" in json.loads(out)["error"]
        assert err == ""

    @pytest.mark.parametrize("text, reason", [
        ("5", "expected LO:HI"),
        ("1:2:3", "expected LO:HI"),
        ("a:b", "expected integers LO:HI"),
        ("1:x", "expected integers LO:HI"),
        ("3:1", "range is empty"),
    ])
    def test_bad_range_names_its_reason(self, capsys, text, reason):
        with pytest.raises(SystemExit) as exc:
            main(["table", f"--range={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --range: {reason}" in err
        assert repr(text) in err


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("an out-of-bound value reached the library")


class TestCliBounds:
    """Each bounded value: accepted at its bound, refused with exit 1 and
    an error object just past it, before any library work starts."""

    @pytest.mark.parametrize("verb", ["classify", "obstruct",
                                      "homotopy-class"])
    def test_pair_at_bound(self, capsys, verb):
        code, out, _ = run_cli(capsys, verb, f"--i={MAX_TWIST}",
                               f"--j={-MAX_TWIST}")
        assert code == 0
        assert "error" not in json.loads(out)

    @pytest.mark.parametrize("verb, library", [
        ("classify", "classify"),
        ("obstruct", "_model_obstruction"),
        ("homotopy-class", "connecting_homotopy"),
    ])
    @pytest.mark.parametrize("i, j, name", [
        (MAX_TWIST + 1, 0, "--i"),
        (0, -MAX_TWIST - 1, "--j"),
    ])
    def test_pair_past_bound(self, capsys, monkeypatch, verb, library,
                             i, j, name):
        monkeypatch.setattr(lbkit.cli, library, _refuse_to_run)
        code, out, err = run_cli(capsys, verb, f"--i={i}", f"--j={j}")
        assert code == 1
        assert json.loads(out)["error"].startswith(f"{name} must be between")
        assert err == ""

    def test_table_at_bound(self, capsys):
        for lo in (-MAX_TABLE_TWIST, MAX_TABLE_TWIST):
            code, out, _ = run_cli(capsys, "table", f"--range={lo}:{lo}")
            assert code == 0
            assert out.splitlines()[1] == f"{lo},{lo},1,1,1,1"

    @pytest.mark.parametrize("bounds", [
        (MAX_TABLE_TWIST, MAX_TABLE_TWIST + 1),
        (-MAX_TABLE_TWIST - 1, -MAX_TABLE_TWIST),
    ])
    def test_table_past_bound(self, capsys, monkeypatch, bounds):
        monkeypatch.setattr(lbkit.cli, "classify", _refuse_to_run)
        code, out, _ = run_cli(capsys, "table", "--range=%d:%d" % bounds)
        assert code == 1
        assert "--range endpoints must be between" in json.loads(out)["error"]

    def test_cover_at_bound(self, capsys, tmp_path):
        link = build_diagram(1, 0).attaching
        path = tmp_path / "link.json"
        path.write_text(dumps(annular_to_obj(link)))
        code, out, _ = run_cli(capsys, "cover", str(path),
                               f"--degree={MAX_COVER_DEGREE}")
        assert code == 0
        assert json.loads(out)["total"] == annular_to_obj(
            cyclic_cover_link(link, MAX_COVER_DEGREE).total)

    def test_cover_past_bound(self, capsys, tmp_path):
        # the input is never read: the file does not exist
        code, out, _ = run_cli(capsys, "cover", str(tmp_path / "none.json"),
                               f"--degree={MAX_COVER_DEGREE + 1}")
        assert code == 1
        assert json.loads(out)["error"] == \
            f"--degree must be at most {MAX_COVER_DEGREE}, " \
            f"got {MAX_COVER_DEGREE + 1}"

    @pytest.mark.parametrize("module", [lbkit.cli, diagrams, homology])
    def test_readme_bounds_table_shows_every_bound(self, module):
        # each MAX_* constant has one row of the README's bounds table that
        # names it and shows its value, plain (10000) or grouped (4,194,304)
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
            rows = [line for line in f.read().splitlines() if line.startswith("|")]
        bounds = {name: value for name, value in vars(module).items()
                  if name.startswith("MAX_")}
        assert bounds
        for name, value in bounds.items():
            named = [row for row in rows if row.endswith(f"| `{name}` |")]
            assert len(named) == 1, name
            numbers = re.findall(r"\d[\d,]*", named[0])
            assert str(value) in numbers or f"{value:,}" in numbers, (name, named[0])


def _set(path, value):
    """A change to a diagram object: set the entry at ``path`` to
    ``value``."""
    def change(obj):
        *outer, last = path
        for key in outer:
            obj = obj[key]
        obj[last] = value
    return change


def _deep_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# Kirby JSON that once exited 0 with a coerced value or ended in a
# TypeError traceback; each must now be an error object with exit 1.
KIRBY_PROBES = {
    "float framing": [_set(("two_handles", 0, "framing"), 3.0),
                      _set(("linking", 1, 1), 3.0)],
    "bool framing": [_set(("two_handles", 0, "framing"), False),
                     _set(("linking", 1, 1), False)],
    "string winding": [_set(("two_handles", 0, "winding"), ["2"])],
    "integer handle id": [_set(("two_handles", 0, "id"), 7)],
    "list dotted id": [_set(("dotted",), [[1]])],
    "string h3": [_set(("h3",), "0")],
    "float h4": [_set(("h4",), 0.0)],
    "float linking entry": [_set(("linking", 0, 3), 0.0),
                            _set(("linking", 3, 0), 0.0)],
    "integer linking": [_set(("linking",), 5)],
    "integer linking row": [_set(("linking", 2), 5)],
    "integer winding": [_set(("two_handles", 1, "winding"), 2)],
    "string dotted": [_set(("dotted",), "dot")],
    "integer two_handles": [_set(("two_handles",), 3)],
}


class TestKirbyInputProbes:
    @pytest.mark.parametrize("name", list(KIRBY_PROBES))
    @pytest.mark.parametrize("verb", ["homology", "boundary"])
    def test_probe_is_an_error_object(self, capsys, monkeypatch, name, verb):
        obj = kirby_to_obj(build_diagram(3, 2))
        for change in KIRBY_PROBES[name]:
            change(obj)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, verb, "-")
        assert code == 1
        assert set(json.loads(out)) == {"error"}
        assert err == ""

    def test_unchanged_diagram_still_loads(self, capsys, monkeypatch):
        payload = dumps(kirby_to_obj(build_diagram(3, 2)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        code, out, _ = run_cli(capsys, "homology", "-")
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [2]}

    def test_messages_name_the_field(self):
        obj = kirby_to_obj(build_diagram(3, 2))
        _set(("linking", 2), 5)(obj)
        with pytest.raises(FormatError,
                           match=r"linking\[2\] must be a JSON array"):
            load_diagram(json.dumps(obj))
        obj = kirby_to_obj(build_diagram(3, 2))
        _set(("two_handles", 0, "framing"), 3.0)(obj)
        with pytest.raises(ValueError, match="framing of 'upper' must be int"):
            load_diagram(json.dumps(obj))


# Annular JSON for ``lbkit cover -`` that once ended in a TypeError
# traceback or exited 0 with coerced letters or an unchecked framing,
# orientation, kinks or id; each must now be an error object with exit 1,
# and a short one, however large the offending value.
ANNULAR_PROBES = {
    "string strands": [_set(("strands",), "3")],
    "float strands": [_set(("strands",), 4.0)],
    "integer letters": [_set(("letters",), 5)],
    "float and bool letter": [_set(("letters", 1), [3.0, True])],
    "string letter position": [_set(("letters", 0), ["1", -1])],
    "integer letter": [_set(("letters", 0), 1)],
    "letter triple": [_set(("letters", 0), [1, -1, 1])],
    "integer components": [_set(("components",), 3)],
    "integer split": [_set(("split",), 4)],
    "float framing": [_set(("components", 0, "framing"), 3.0)],
    "bool split framing and kinks": [_set(("split", 0, "framing"), True),
                                     _set(("split", 0, "kinks"), True)],
    "bool kinks": [_set(("split", 0, "framing"), 1),
                   _set(("split", 0, "kinks"), True)],
    "float orientation": [_set(("components", 0, "orientation"), 1.0)],
    "integer component id": [_set(("components", 0, "id"), 7)],
    "list component id": [_set(("components", 0, "id"), ["upper"])],
    "long string color": [_set(("components", 0, "color"), "x" * 100_000)],
}


class TestAnnularInputProbes:
    @pytest.mark.parametrize("name", list(ANNULAR_PROBES))
    def test_probe_is_an_error_object(self, capsys, monkeypatch, name):
        obj = annular_to_obj(build_diagram(3, 2).attaching)
        for change in ANNULAR_PROBES[name]:
            change(obj)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, "cover", "-", "--degree", "2")
        assert code == 1
        assert set(json.loads(out)) == {"error"}
        assert err == ""
        assert len(out) < 300

    def test_unchanged_link_still_covers(self, capsys, monkeypatch):
        link = build_diagram(3, 2).attaching
        monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(annular_to_obj(link))))
        code, out, _ = run_cli(capsys, "cover", "-", "--degree", "2")
        assert code == 0
        assert json.loads(out) == cover_to_obj(cyclic_cover_link(link, 2))

    @pytest.mark.parametrize("path, value, message", [
        (("letters",), 5, "letters must be a JSON array"),
        (("letters", 1), 3, r"letters\[1\] must be a JSON array"),
        (("components",), 3, "components must be a JSON array"),
        (("split",), {}, "split must be a JSON array"),
    ])
    def test_messages_name_the_field(self, path, value, message):
        obj = annular_to_obj(build_diagram(3, 2).attaching)
        _set(path, value)(obj)
        with pytest.raises(FormatError, match=message):
            load_diagram(json.dumps(obj))

    def test_letter_types_are_diagram_errors(self):
        obj = annular_to_obj(build_diagram(3, 2).attaching)
        _set(("letters", 1), [3.0, True])(obj)
        with pytest.raises(DiagramError, match="braid letters must be int"):
            load_diagram(json.dumps(obj))


# Tangle JSON for ``lbkit render -`` that once ended in a TypeError
# traceback or exited 0 with a float or bool sign or end; each must now
# be an error object with exit 1, and a short one, however large the
# offending value.
TANGLE_PROBES = {
    "integer arcs": [_set(("arcs",), 5)],
    "integer crossings": [_set(("crossings",), 5)],
    "integer top endpoints": [_set(("endpoints", "top"), 5)],
    "integer crossing": [_set(("crossings", 1), 1)],
    "integer slot": [_set(("endpoints", "bottom", 0), 1)],
    "list arc id": [_set(("arcs", 0, "id"), ["a"])],
    "float crossing sign": [_set(("crossings", 0, 2), 1.0)],
    "bool crossing sign": [_set(("crossings", 0, 2), True)],
    "float slot end": [_set(("endpoints", "top", 0, 1), 0.0)],
    "bool slot end": [_set(("endpoints", "top", 0, 1), False)],
    "deep list color": [_set(("arcs", 0, "color"), _deep_list(300))],
    "long string color": [_set(("arcs", 0, "color"), "x" * 100_000)],
}


def _tangle_obj():
    return tangle_to_obj(half_twist_tangle(3, (RED, BLUE)))


class TestTangleInputProbes:
    @pytest.mark.parametrize("name", list(TANGLE_PROBES))
    def test_probe_is_an_error_object(self, capsys, monkeypatch, name):
        obj = _tangle_obj()
        for change in TANGLE_PROBES[name]:
            change(obj)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, "render", "-")
        assert code == 1
        assert set(json.loads(out)) == {"error"}
        assert err == ""
        assert len(out) < 300

    def test_unchanged_tangle_still_renders(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_tangle_obj())))
        code, out, _ = run_cli(capsys, "render", "-")
        assert code == 0
        assert out == render(half_twist_tangle(3, (RED, BLUE)), "text")

    @pytest.mark.parametrize("path, value, message", [
        (("crossings",), 5, "crossings must be a JSON array"),
        (("crossings", 1), [1], r"crossings\[1\] must have 3 items, got 1"),
        (("endpoints", "top"), 5, "endpoints.top must be a JSON array"),
        (("endpoints", "bottom", 0), 1,
         r"endpoints.bottom\[0\] must be a JSON array"),
        (("arcs", 1), [], r"arcs\[1\] must be a JSON object"),
        (("endpoints",), [], "endpoints must be a JSON object"),
    ])
    def test_messages_name_the_json_path(self, path, value, message):
        obj = _tangle_obj()
        _set(path, value)(obj)
        with pytest.raises(FormatError, match=message):
            load_diagram(json.dumps(obj))

    def test_nested_fields_are_named_by_path(self):
        obj = _tangle_obj()
        del obj["arcs"][1]["color"]
        obj["endpoints"]["extra"] = 1
        with pytest.raises(FormatError,
                           match=r"arcs\[1\] is missing fields: color"):
            load_diagram(json.dumps(obj))
        del obj["arcs"][1]
        with pytest.raises(FormatError,
                           match="endpoints has unknown fields: extra"):
            load_diagram(json.dumps(obj))


# Diagram documents the fuzz perturbs: every wire object, optional
# fields present and absent, rows of each length.
_VALID_DOCS = [
    kirby_to_obj(build_diagram(3, 2)),
    kirby_to_obj(double(build_diagram(0, 5))),
    annular_to_obj(build_diagram(3, 2).attaching),
    annular_to_obj(braid_closure(BraidWord(3, ((1, 1), (2, -1))))),
    _tangle_obj(),
    tangle_to_obj(clasped_side(RED, 2, 1)),
]
def _paths(value, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _field_names():
    return sorted({p[-1] for doc in _VALID_DOCS for p in _paths(doc)
                   if p and isinstance(p[-1], str)})


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=4))
json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_field_names())
                                     | st.text(max_size=4),
                                     inner, max_size=6)),
    max_leaves=12)


_TO_OBJ = {"KirbyDiagram": kirby_to_obj, "AnnularLink": annular_to_obj,
           "ColoredTangle": tangle_to_obj}


def _round_trips_or_is_named(text):
    """load_diagram either gives a diagram whose JSON loads back equal,
    or raises FormatError or DiagramError; anything else fails."""
    try:
        value = load_diagram(text)
    except (FormatError, DiagramError):
        return
    assert load_diagram(dumps(_TO_OBJ[type(value).__name__](value))) == value


class TestBoundaryFuzz:
    """Arbitrary JSON, and one-field perturbations of valid documents."""

    @settings(max_examples=400)
    @given(json_values)
    def test_arbitrary_json(self, value):
        _round_trips_or_is_named(json.dumps(value))

    @settings(max_examples=400)
    @given(st.sampled_from(range(len(_VALID_DOCS))), st.data())
    def test_one_field_perturbed(self, index, data):
        doc = json.loads(json.dumps(_VALID_DOCS[index]))
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        *outer, last = path
        parent = doc
        for key in outer:
            parent = parent[key]
        kind = data.draw(st.sampled_from(("change", "delete", "add", "shorten")))
        if kind == "change":
            parent[last] = data.draw(json_values)
        elif kind == "delete":
            del parent[last]
        elif isinstance(parent[last], dict):
            parent[last][data.draw(st.sampled_from(_field_names()))] = \
                data.draw(json_values)
        elif isinstance(parent[last], list) and parent[last]:
            if kind == "add":
                parent[last].append(data.draw(json_values))
            else:
                parent[last].pop()
        _round_trips_or_is_named(json.dumps(doc))

    def test_valid_documents_load_back_to_the_same_json(self):
        for doc in _VALID_DOCS:
            value = load_diagram(json.dumps(doc))
            assert _TO_OBJ[type(value).__name__](value) == doc

    def test_oversized_integer_literal_is_a_format_error(self):
        text = dumps(kirby_to_obj(build_diagram(0, 0))).replace(
            '"h3": 0', '"h3": ' + "9" * 5000)
        with pytest.raises(FormatError, match="not valid JSON"):
            load_diagram(text)

    def test_strand_count_beyond_the_entries_is_refused_before_cycles(self):
        obj = annular_to_obj(build_diagram(3, 2).attaching)  # 4 strands, 2 letters
        obj["strands"] = MAX_STRANDS
        with pytest.raises(FormatError, match=f"at least {MAX_STRANDS - 2} closure"):
            load_diagram(json.dumps(obj))
        obj["strands"] = 10 ** 12  # past MAX_STRANDS: refused as the word is built
        with pytest.raises(DiagramError, match="at most 65536 strands .MAX_STRANDS"):
            load_diagram(json.dumps(obj))


def _probe_texts():
    """The JSON text of every Kirby, annular and tangle probe."""
    texts = []
    for probes, base in (
            (KIRBY_PROBES, lambda: kirby_to_obj(build_diagram(3, 2))),
            (ANNULAR_PROBES,
             lambda: annular_to_obj(build_diagram(3, 2).attaching)),
            (TANGLE_PROBES, _tangle_obj)):
        for changes in probes.values():
            obj = base()
            for change in changes:
                change(obj)
            texts.append(json.dumps(obj))
    return texts


# Loads each probe text from stdin in a fresh interpreter and prints the
# error it raised.
LOAD_PROBES = """
import json, sys
from lbkit.serialize import load_diagram

print("debug", __debug__)
for text in json.load(sys.stdin):
    try:
        load_diagram(text)
        print("loaded")
    except ValueError as err:
        print(type(err).__name__, err)
"""


def test_probe_errors_survive_python_O():
    # -O strips assert statements; no check on the input path may be one
    texts = _probe_texts()
    expected = []
    for text in texts:
        with pytest.raises(ValueError) as err:
            load_diagram(text)
        expected.append(f"{type(err.value).__name__} {err.value}")
    src = os.path.dirname(os.path.dirname(lbkit.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", LOAD_PROBES],
                              input=json.dumps(texts), capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.splitlines())
    plain, optimized = outs
    assert (plain[0], optimized[0]) == ("debug True", "debug False")
    assert plain[1:] == optimized[1:] == expected


def test_library_has_no_assert_statements():
    # -O strips assert statements, so a library invariant must raise instead
    package = os.path.dirname(lbkit.cli.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# The functions and methods (as Class.method) that may build a record through
# homology._built, skipping its constructor's checks: each derives its records
# from records already checked.  serialize, cli and render are absent, so
# outside input always meets the checking constructors.
UNCHECKED_BUILDS = {
    "homology.py": {"smith_normal_form", "cokernel", "h1", "boundary_h1"},
    "diagrams.py": {"BraidWord.power", "half_twist_tangle", "reverse_mirror"},
    "kirby.py": {"build_diagram", "_family_attaching", "handle_slide", "double"},
    "covers.py": {"cyclic_cover_link", "double_cover_diagram"},
    "obstruction.py": {"model_slice"},
    "homotopy.py": {"concat", "crossed_class"},
}


def library_sites():
    """(file name, site, node) for each top-level statement of each library
    module, with a top-level class split into its header and its statements.
    The site is a function's name, Class.method for a method, the class name
    for its other statements, and None for the rest."""
    package = os.path.dirname(lbkit.cli.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read(), name)
            for top in tree.body:
                if isinstance(top, ast.ClassDef):
                    for node in top.decorator_list + top.bases + top.keywords:
                        yield name, None, node
                    for node in top.body:
                        yield name, (f"{top.name}.{node.name}"
                                     if isinstance(node, ast.FunctionDef) else top.name), node
                else:
                    yield name, getattr(top, "name", None), top


def test_unchecked_builds_stay_in_the_listed_functions():
    found, seen = [], {}
    for name, site, part in library_sites():
        allowed = UNCHECKED_BUILDS.get(name, set())
        for node in ast.walk(part):
            if isinstance(node, ast.alias) and node.name == "_built":
                if not allowed:
                    found.append(f"{name}:{node.lineno} imports it")
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and getattr(node, "id", getattr(node, "attr", None)) == "_built"):
                if site in allowed:
                    seen.setdefault(name, set()).add(site)
                else:
                    found.append(f"{name}:{node.lineno}")
    assert found == []
    assert seen == UNCHECKED_BUILDS  # the list names no site that is gone


def test_closure_record_is_read_only_by_braid_words():
    # a braid word's closure record (cycles, strand-to-cycle map, letter sums)
    # is named only inside class BraidWord; the rest asks its methods
    found, seen = [], []
    for name, site, part in library_sites():
        for node in ast.walk(part):
            if ((isinstance(node, ast.Attribute) and node.attr == "_closure")
                    or (isinstance(node, ast.FunctionDef) and node.name == "_closure")):
                if name == "diagrams.py" and (site or "").split(".")[0] == "BraidWord":
                    seen.append(node.lineno)
                else:
                    found.append(f"{name}:{node.lineno}")
    assert found == []
    assert seen  # BraidWord still keeps and reads it


def test_no_instance_dict_is_written_outside_built():
    # a record's fields and caches are set by its own class, or by the builder
    # _built generates; so no library code names __dict__ (as an attribute, or
    # as a string outside that builder) or calls vars() anywhere else
    found, seen = [], []
    for name, site, part in library_sites():
        for node in ast.walk(part):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                if (name, site) != ("homology.py", "_built"):
                    found.append(f"{name}:{node.lineno}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "__dict__" in node.value):
                if (name, site) == ("homology.py", "_builder"):
                    seen.append(node.lineno)
                else:
                    found.append(f"{name}:{node.lineno} names it in a string")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "vars"):
                found.append(f"{name}:{node.lineno} calls vars()")
    assert found == []
    assert seen  # the generated builder still sets the fields through it


def test_code_is_generated_only_by_the_record_builder():
    # exec, eval and compile appear only where _built's builder is generated,
    # from a dataclass's own field names
    found, seen = [], []
    for name, site, part in library_sites():
        for node in ast.walk(part):
            named = (getattr(node, "id", None) or getattr(node, "attr", None)
                     or (node.name if isinstance(node, ast.alias) else None))
            if named in ("exec", "eval", "compile"):
                if (name, site) == ("homology.py", "_builder"):
                    seen.append(named)
                else:
                    found.append(f"{name}:{node.lineno} names {named}")
    assert found == []
    assert seen == ["exec"]


ARGPARSE_PRIVATE = {"_actions", "_defaults", "_option_string_actions"}


def test_library_uses_no_private_argparse_name():
    # argparse's private names differ across the supported Python versions
    # (requires-python >= 3.10), so the library reads only its public API
    found, seen = [], []
    for name, site, part in library_sites():
        for node in ast.walk(part):
            if isinstance(node, ast.Attribute) and (
                    node.attr in ARGPARSE_PRIVATE
                    or (isinstance(node.value, ast.Name) and node.value.id == "argparse"
                        and node.attr.startswith("_"))):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.startswith("_")]
            elif isinstance(node, ast.Constant) and node.value in ARGPARSE_PRIVATE:
                found.append(f"{name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "argparse":
                seen.append(name)
    assert found == []
    assert "cli.py" in seen


def test_every_library_definition_is_referenced():
    # a def or class nothing names is dead; strings do not count, since a
    # JSON key such as "zero" would hide an unused method of that name
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "lbkit")
    defined, named = {}, set()
    for top in (package, os.path.join(root, "tests"), os.path.join(root, "bench")):
        for folder, _, files in os.walk(top):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path) as f:
                    tree = ast.parse(f.read(), path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        named.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        named.add(node.attr)
                    elif isinstance(node, ast.alias):
                        named.update((node.name, node.asname))
                    elif (top == package and isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
                          and not (node.name.startswith("__")
                                   and node.name.endswith("__"))):
                        defined.setdefault(node.name, f"{name}:{node.lineno}")
    assert sorted(v for k, v in defined.items() if k not in named) == []


def _subparser(parser, verb):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[verb]


def run_cli_exit(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors
    and help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# (argv, stdin text or None) of each call of an in-process sequence: every
# verb, usage errors (exit 2), domain errors (exit 1) and help, with verbs
# run again after their own errors.
_FAMILY_JSON = dumps(kirby_to_obj(build_diagram(3, 2)))
_TANGLE_JSON = dumps(tangle_to_obj(half_twist_tangle(3, (RED, BLUE))))
MIXED_SEQUENCE = [
    (["build", "--p", "3", "--q", "2"], None),
    (["homology", "-"], _FAMILY_JSON),
    (["boundary", "--p", "1", "--q", "0"], None),
    (["cover", "--p", "3", "--q", "2"], None),
    (["double", "--p", "1", "--q", "-1"], None),
    (["slide", "--p", "1", "--q", "5", "--a", "lower", "--b", "dual",
      "--eps", "-1"], None),
    (["classify", "--i=0", "--j=2"], None),
    (["classify", "--i=0"], None),
    (["classify", "--i=0", "--j=2", "--bogus"], None),
    (["classify", "--i=0", "--j=2", "extra"], None),
    (["classify", "--i", "-2", "--j", "0", "--clo"], None),
    (["classify", "--i=10001", "--j=0"], None),
    (["classify", "--i=-3", "--j=1", "--closed"], None),
    (["table", "--range=3:1"], None),
    (["table", "--range=-1:1"], None),
    (["table", "--range=-1:1", "--closed"], None),
    (["obstruct", "--i=0"], None),
    (["obstruct", "--i=0", "--j=1"], None),
    (["obstruct", "--i=2", "--j=0", "--closed"], None),
    (["homotopy-class", "--i=0", "--j=6"], None),
    (["render", "-", "--format=svg"], _TANGLE_JSON),
    (["render", "--p", "0", "--q", "0", "--format", "pdf"], None),
    (["slide", "--p", "0", "--q", "0", "--a", "x", "--b", "y", "--eps", "2"],
     None),
    (["homology", "-", "--p", "1", "--q", "1"], _FAMILY_JSON),
    (["homology", "-"], "{not json"),
    (["cover", "--p", "0", "--q", "0", "--degree", "3"], None),
    (["nope"], None),
    ([], None),
    (["-h"], None),
    (["classify", "-h"], None),
    (["render", "--help"], None),
    (["classify", "--i=4", "--j=0"], None),
]


# One argv per verb in the forms the verb parser reads without argparse:
# --name=value and exact flags.
COMMON_FORMS = [
    ["build", "--p=3", "--q=2"],
    ["homology", "--q=1", "--p=1"],
    ["boundary", "--p=1", "--q=0", "--out=x.json"],
    ["cover", "--p=3", "--q=2", "--degree=4"],
    ["double", "--p=1", "--q=-1"],
    ["slide", "--p=1", "--q=5", "--a=lower", "--b=dual", "--eps=-1"],
    ["classify", "--i=3", "--j=5", "--closed", "--closed"],
    ["table", "--closed", "--range=0:2"],
    ["obstruct", "--i=2", "--j=0", "--closed"],
    ["homotopy-class", "--i=0", "--j=6", "--i=4"],
    ["render", "--p=0", "--q=0", "--format=svg"],
]


class TestOneVerbParser:
    """main builds only the subparser of the verb it runs; what the user
    sees must be what the full parser gives."""

    def test_table_holds_every_verb(self):
        assert list(_VERBS) == [
            "build", "homology", "boundary", "cover", "double", "slide",
            "classify", "table", "obstruct", "homotopy-class", "render"]

    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_same_help_and_usage(self, verb):
        full, one = _build_parser(), _build_parser(verb)
        assert one.format_usage() == full.format_usage()
        assert _subparser(one, verb).format_help() == \
            _subparser(full, verb).format_help()
        assert _subparser(one, verb).format_usage() == \
            _subparser(full, verb).format_usage()

    def test_each_parser_is_built_once(self):
        for verb in (None, *_VERBS):
            assert _build_parser(verb) is _build_parser(verb)
        assert _build_parser("classify") is not _build_parser("table")

    @pytest.mark.parametrize("extra", [["--bogus"], ["extra"],
                                       ["--bogus=1", "x"]])
    def test_unknown_arguments_are_reported_by_the_full_parser(
            self, capsys, extra):
        code, out, err = run_cli_exit(capsys,
                                      ["classify", "--i=0", "--j=2", *extra])
        assert (code, out) == (2, "")
        assert err.startswith("usage: lbkit [-h] VERB ...\n")
        assert err.endswith(
            f"lbkit: error: unrecognized arguments: {' '.join(extra)}\n")

    @pytest.mark.parametrize("argv", [
        ["classify", "--i=0", "--j=2"],
        ["classify", "--i", "-2", "--j", "0", "--clo", "--out", "x.json"],
        ["table", "--range=-1:1"],
        ["slide", "--p", "1", "--q", "5", "--a", "lower", "--b", "dual",
         "--eps", "-1"],
        ["render", "-", "--format=svg"],
        ["homology", "--p", "1", "--q", "1"],
        *COMMON_FORMS,
    ])
    def test_verb_parser_gives_the_full_parse_namespace(self, argv):
        assert lbkit.cli._parse(argv) == \
            _build_parser(argv[0]).parse_args(argv)

    def test_one_verb_parser_holds_only_that_verb(self):
        with pytest.raises(KeyError):
            _subparser(_build_parser("classify"), "table")

    @pytest.mark.parametrize("argv, built", [
        (["classify", "--i=0", "--j=2"], "classify"),
        (["homotopy-class", "-h"], "homotopy-class"),
        (["-h", "classify"], None),
        (["nope"], None),
        (["classif"], None),
        ([], None),
    ])
    def test_main_builds_the_verb_it_runs(self, capsys, monkeypatch, argv,
                                          built):
        seen = []

        def spy(verb=None):
            seen.append(verb)
            return _build_parser(verb)

        monkeypatch.setattr(lbkit.cli, "_build_parser", spy)
        run_cli_exit(capsys, argv)
        assert seen == [built]

    @pytest.mark.parametrize("argv, status, stream", [
        ([], 2, "err"),
        (["-h"], 0, "out"),
        (["-h", "classify"], 0, "out"),
        (["nope"], 2, "err"),
        (["nope", "--i=1"], 2, "err"),
    ])
    def test_top_level_help_and_errors_name_every_verb(self, capsys, argv,
                                                        status, stream):
        code, out, err = run_cli_exit(capsys, argv)
        assert code == status
        text = out if stream == "out" else err
        if argv:
            for verb in _VERBS:
                assert verb in text, verb
        else:
            assert "required: VERB" in text

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["obstruct", "--i=2", "--j=0", "--closed"]
        expected = run_cli_exit(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["lbkit", *argv])
        assert run_cli_exit(capsys, None) == expected
        monkeypatch.setattr(sys, "argv", ["lbkit", "-h"])
        assert run_cli_exit(capsys, None) == run_cli_exit(capsys, ["-h"])

    def test_calls_in_a_row_match_separate_processes(self, capsys,
                                                     monkeypatch):
        """One process running main over the mixed sequence gives each
        call's stdout, stderr and exit code as a fresh python -m lbkit."""
        monkeypatch.setenv("COLUMNS", "80")
        in_a_row = []
        for argv, stdin in MIXED_SEQUENCE:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
            in_a_row.append(run_cli_exit(capsys, argv))
        assert {got[0] for got in in_a_row} == {0, 1, 2}
        for (argv, stdin), got in zip(MIXED_SEQUENCE, in_a_row):
            proc = subprocess.run([sys.executable, "-m", "lbkit", *argv],
                                  input=stdin or "", capture_output=True,
                                  text=True)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def _verb_options(verb):
    """(option string, is a flag) of each option of the verb, -h aside."""
    return [(s, a.nargs == 0)
            for a in _subparser(_build_parser(verb), verb)._actions
            for s in a.option_strings if a.dest != "help"]


# Values per option: mostly ones the option accepts, so that many argvs read
# directly, plus ones its type or choices refuse.  --out only ever names an
# existing directory, so a call that gets to write fails and creates nothing.
_INTS = st.one_of(st.integers(-3, 3),
                  st.sampled_from([10001, -10001, 2**70, -2**70])).map(str)
_ODD_VALUES = st.sampled_from(["", "x", "1.5", "1:", "-", "--", "-1", "0x1"])
_OPTION_VALUES = {
    "--range": st.builds("{}:{}".format, st.integers(-2, 2), st.integers(-2, 2))
    | st.sampled_from(["0:200", "-101:0"]),
    "--format": st.sampled_from(["text", "svg", "pdf"]),
    "--eps": st.sampled_from(["1", "-1", "2"]),
    "--a": st.sampled_from(["lower", "dual", "x"]),
    "--b": st.sampled_from(["lower", "dual", "x"]),
    "--degree": st.sampled_from(["2", "3", "1025"]),
}
_OUT_DIR = os.path.dirname(os.path.abspath(__file__))


@st.composite
def cli_argvs(draw):
    verb = draw(st.sampled_from(list(_VERBS)))
    options = _verb_options(verb)
    argv = [verb]
    for _ in range(draw(st.integers(0, 7))):
        name, flag = draw(st.sampled_from(options))
        values = _OPTION_VALUES.get(name, _INTS)
        value = (_OUT_DIR if name == "--out" else
                 draw(values | _ODD_VALUES if draw(st.integers(0, 7)) == 0 else values))
        if draw(st.integers(0, 7)):
            argv += draw(st.sampled_from(
                [[name]] if flag else [[f"{name}={value}"], [name, value]]))
        else:  # a flag with =, a bare value option, or what no option reads
            argv += draw(st.sampled_from([
                [f"{name}={value}"], [name], ["--bogus=1"], ["--bogus"],
                [name[:-1]], [f"{name[:-1]}={value}"], ["-h"], ["--help"],
                ["-"], ["extra"], ["--"]]))
    return argv


def _main_outcome(argv):
    """(exit code, stdout, stderr) of main(argv) with an empty stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO("")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestCommonFormReader:
    """The verb parser's own reader gives argparse's namespace or defers."""

    @pytest.mark.parametrize("argv", COMMON_FORMS)
    def test_common_forms_skip_argparse(self, monkeypatch, argv):
        expected = _build_parser(argv[0]).parse_args(argv)

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a common form")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert lbkit.cli._parse(argv) == expected

    @pytest.mark.parametrize("argv", [
        ["classify", "--i=0", "--j=2", "-h"],
        ["classify", "--help"],
        ["classify", "--i=0", "--j=2", "--clo"],
        ["classify", "--i=0", "--j=2", "--closed="],
        ["classify", "--i=0", "--j=2", "--closed=1"],
        ["classify", "--i", "-2", "--j=0"],
        ["classify", "--i", "3", "--j=5"],
        ["render", "--p=0", "--q=0", "--format", "svg"],
        ["classify", "--i=0"],
        ["classify", "--i=0", "--j"],
        ["classify", "--i=0", "--j=two"],
        ["classify", "--i=0", "--j=2", "--bogus=1"],
        ["classify", "--i=0", "--j=2", "--", "--closed"],
        ["homology", "-"],
        ["homology", "diagram.json"],
        ["slide", "--p=1", "--q=5", "--a=lower", "--b=dual", "--eps=2"],
        ["table", "--range=3:1"],
        ["render", "--p=0", "--q=0", "--form=svg"],
    ])
    def test_other_forms_defer_to_argparse(self, argv):
        sp = _subparser(_build_parser(argv[0]), argv[0])
        assert sp.read(argv[1:], argv[0]) is None

    @settings(max_examples=300)
    @given(cli_argvs())
    def test_reader_matches_argparse(self, argv):
        verb = argv[0]
        got = _subparser(_build_parser(verb), verb).read(argv[1:], verb)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                expected = _build_parser(verb).parse_args(argv)
        except SystemExit:
            expected = None
        assert got is None or got == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lbkit.cli._VerbParser, "read", lambda self, argv, verb: None)
            through_argparse = _main_outcome(argv)
        assert _main_outcome(argv) == through_argparse

    def test_import_builds_no_parser_or_option_table(self):
        # the option tables live on the verb parsers, so no parser means no table
        code = ("import argparse\n"
                "made = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def spy(self, *args, **kwargs):\n"
                "    made.append(type(self).__name__)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = spy\n"
                "import lbkit.cli\n"
                "print(made, lbkit.cli._build_parser.cache_info().currsize)\n"
                "lbkit.cli._build_parser('classify')\n"
                "print(made)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.stdout == "[] 0\n['ArgumentParser', '_VerbParser']\n", proc.stderr


CLASSIFY_GRID = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]
FAMILY_GRID = [(p, q) for p in (-3, 0, 1, 4) for q in (-2, 0, 3)]


# sha256 over "<exit code>\n<stdout>" of each call in order.  The first
# four were recorded from the CLI when it still built all verbs on every
# call; the rest from the code before braid letters were counted in one
# table and covers lifted in one loop.  Output that changes on purpose
# must change these digests on purpose.
OUTPUT_DIGESTS = {
    "table": "5a79f7d00009165f907b1d002f925a72a34be88ae652f6987966eb386255a87f",
    "obstruct": "e1aacdb2126feb0c8c3593366362eb806af5d8f35e08ab4656f2f8bae7e60504",
    "classify": "696f3a3f454668f74c33c86c811e8facea73466de63dc0f60cd2b9810c573288",
    "homotopy-class":
        "efc7576d363f229c5d91056e0781c8294a7d0fdc74c0cfcbd558c6d44658bec9",
    "build grid":
        "2ad5845d1e257d41eb2165883cd403615067de3370df07bb97a4b8dba7a854f8",
    "homology grid":
        "4191b12635d127757584cb711e478ef4d0ac50aa7f397b2da13178a35d6f80db",
    "boundary grid":
        "d5c8082e0931a9c5cc2bca444096deec4200617443036b13be77f96d612768a1",
    "cover grid":
        "440d42d6b0303d829a59d91fdee87b8a7fce29402750a14c731d4f00295251c2",
    "double grid":
        "3a992dd0649717ce809d4818fc6a4c3fa7ed246c84842e67d438d6a3184ef9ad",
    "slide eps=1":
        "0752dfc7dc19fb79538d1ce9f892085e6a242425f7212da408b728b2b3d1003a",
    "slide eps=-1":
        "998eb9c76aaf401cc5511e426010552597e6b44ab7290e4e29c9d1529d51f81a",
    "cover degree=2":
        "045c5ed0d6fa756c2460cb0c8fb11ea687425d9862fa7ff0755d67333285411d",
    "cover degree=3":
        "3a32b6b7fa514e44a8779eec1ed179ea4ef5121d6d1f93eb62d84a137851f0ad",
    "cover degree=8":
        "3d74da5f6e666d0e32ee6c602eebe3296b2f20c599d9051b1b657118ae5c2da7",
    "render text":
        "2ea775d3602847d689639d14af3e93b45f37918bb1cdf044169003121048e55b",
    "render svg":
        "a7df8d6fc768c2f31e407982afc30de487131ae3d5ea21fc5fe493eba690922f",
    "render-link text":
        "1db3b91d3dca8bdd5cc0c77b4d81245dce79103bc7962704559daf5b59290e50",
    "render-link svg":
        "e430ec2f6b4f1cdcda0a519e8ceeda69359d1da42d0983b69ecb498f101adef0",
}


def _digest_links():
    """Annular links for cover and render: the family link with its split
    dual, windings 3, 2 and 1 with two split unknots, and a full twist."""
    mixed = braid_closure(
        BraidWord(6, ((1, 1), (2, -1), (4, 1), (5, 1), (5, 1), (3, -1),
                      (3, -1), (2, 1), (2, 1))),
        ids=["x", "y", "z"], colors=[RED, None, BLUE], framings=[2, -1, 3])
    mixed = replace(mixed, components=(
        mixed.components[0], replace(mixed.components[1], orientation=-1),
        mixed.components[2]), split=(
        AnnularComponent("s", frozenset(), PURPLE, framing=-2),
        AnnularComponent("t", frozenset(), None, framing=1)))
    twist = braid_closure(BraidWord(3, ((1, 1), (2, 1)) * 3),
                          framings=[1, 0, -1])
    return [build_diagram(1, -2).attaching, normalize_to_writhe(mixed),
            normalize_to_writhe(twist)]


def _digest_tangles():
    return [half_twist_tangle(5, (RED, BLUE)), half_twist_tangle(-4),
            clasped_side(RED, clasps=2, plain_extras=1), empty_tangle()]


def _digest_calls(verb, variant):
    """(argv, stdin text or None) of each call of one digest case."""
    if verb == "table":
        extra = ["--closed"] if variant else []
        return [(["table", "--range=-40:40", *extra], None)]
    if isinstance(variant, bool):
        extra = ["--closed"] if variant else []
        return [([verb, f"--i={i}", f"--j={j}", *extra], None)
                for i, j in CLASSIFY_GRID]
    family = [[f"--p={p}", f"--q={q}"] for p, q in FAMILY_GRID]
    if variant == "grid":
        return [([verb, *pq], None) for pq in family]
    if verb == "slide":
        return [(["slide", *pq, "--a=lower", "--b=dual", f"--{variant}"], None)
                for pq in family]
    links = [dumps(annular_to_obj(link)) for link in _digest_links()]
    if verb == "cover":
        return [(["cover", "-", f"--{variant}"], text) for text in links]
    tangles = [dumps(tangle_to_obj(t)) for t in _digest_tangles()]
    fmt = f"--format={variant}"
    return ([(["render", *pq, fmt], None) for pq in family]
            + [(["render", "-", fmt], text) for text in links + tangles])


@pytest.mark.parametrize("verb, variant", [
    ("table", False), ("table", True),
    ("classify", False), ("classify", True),
    ("obstruct", False), ("obstruct", True),
    ("homotopy-class", False),
    ("build", "grid"), ("homology", "grid"), ("boundary", "grid"),
    ("cover", "grid"), ("double", "grid"),
    ("slide", "eps=1"), ("slide", "eps=-1"),
    ("cover", "degree=2"), ("cover", "degree=3"), ("cover", "degree=8"),
    ("render", "text"), ("render", "svg"),
])
def test_cli_output_digest(verb, variant, monkeypatch):
    """Byte-identity gate: table --range=-40:40 and the criterion-08 grid
    through classify, obstruct and homotopy-class (variant: --closed);
    the family-path verbs over FAMILY_GRID; cover of annular links at
    three degrees; and render of family diagrams, annular links and
    tangles in both formats."""
    h = hashlib.sha256()
    for argv, stdin in _digest_calls(verb, variant):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        h.update(f"{code}\n{buf.getvalue()}".encode())
    key = verb if isinstance(variant, bool) else f"{verb} {variant}"
    assert h.hexdigest() == OUTPUT_DIGESTS[key]


def _digest_bicolored_links():
    mixed = _digest_links()[1]
    return [braid_closure_link(mixed.word, [RED, None, BLUE]),
            close_tangle(half_twist_tangle(4, (RED, BLUE))),
            BicoloredLink()]


@pytest.mark.parametrize("fmt", ["text", "svg"])
def test_render_link_digest(fmt):
    """Byte-identity gate for closed links, which no CLI verb reads."""
    h = hashlib.sha256()
    for link in _digest_bicolored_links():
        h.update(render(link, fmt).encode())
    assert h.hexdigest() == OUTPUT_DIGESTS[f"render-link {fmt}"]
