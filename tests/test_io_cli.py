import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from lbkit.cli import main
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
