import argparse
import hashlib
import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import lbkit.cli
from lbkit.cli import (
    MAX_COVER_DEGREE, MAX_TABLE_TWIST, MAX_TWIST, _VERBS, _build_parser, main,
)
from lbkit.covers import cyclic_cover_link, double_cover_diagram
from lbkit.diagrams import RED, BLUE, half_twist_tangle
from lbkit.homology import AbelianGroup
from lbkit.homotopy import classify, crossed_class, twist_homotopy
from lbkit.kirby import build_diagram, double, ensure_attaching
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

    def test_calls_in_a_row_match_separate_processes(self, capsys):
        calls = [["classify", "--i=0", "--j=2"],
                 ["table", "--range=-1:1"],
                 ["obstruct", "--i=0"],
                 ["homotopy-class", "--i=0", "--j=6"]]
        in_a_row = [run_cli_exit(capsys, argv) for argv in calls]
        for argv, got in zip(calls, in_a_row):
            proc = subprocess.run([sys.executable, "-m", "lbkit", *argv],
                                  capture_output=True, text=True)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


CLASSIFY_GRID = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]

# sha256 over "<exit code>\n<stdout>" of each call in order, recorded
# from the CLI when it still built all verbs on every call.  Output that
# changes on purpose must change these digests on purpose.
OUTPUT_DIGESTS = {
    "table": "5a79f7d00009165f907b1d002f925a72a34be88ae652f6987966eb386255a87f",
    "obstruct": "e1aacdb2126feb0c8c3593366362eb806af5d8f35e08ab4656f2f8bae7e60504",
    "classify": "696f3a3f454668f74c33c86c811e8facea73466de63dc0f60cd2b9810c573288",
    "homotopy-class":
        "efc7576d363f229c5d91056e0781c8294a7d0fdc74c0cfcbd558c6d44658bec9",
}


def _digest_calls(verb, closed):
    extra = ["--closed"] if closed else []
    if verb == "table":
        return [["table", "--range=-40:40", *extra]]
    return [[verb, f"--i={i}", f"--j={j}", *extra] for i, j in CLASSIFY_GRID]


@pytest.mark.parametrize("verb, closed", [
    ("table", False), ("table", True),
    ("classify", False), ("classify", True),
    ("obstruct", False), ("obstruct", True),
    ("homotopy-class", False),
])
def test_cli_output_digest(verb, closed):
    """Byte-identity gate: table --range=-40:40 and the criterion-08 grid
    through classify, obstruct and homotopy-class."""
    h = hashlib.sha256()
    for argv in _digest_calls(verb, closed):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        h.update(f"{code}\n{buf.getvalue()}".encode())
    assert h.hexdigest() == OUTPUT_DIGESTS[verb]
