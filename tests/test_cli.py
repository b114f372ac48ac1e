import argparse
import json
import math
import re
from pathlib import Path

import pytest

from rbmdet.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProb:
    def test_symmetry_case_json(self, capsys):
        code, out, _ = run(capsys, "prob", "--t", "1", "--indices", "1",
                           "--levels", "0", "--a", "0")
        assert code == 0
        body = json.loads(out)
        assert body["probability"] == pytest.approx(0.5, abs=1e-6)
        assert body["version"]
        assert body["config"]["t"] == 1.0
        assert body["error_estimate"] < 1e-6

    def test_arity_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "prob", "--t", "1", "--indices", "1",
                           "--levels", "0", "--a", "0,1")
        assert code == 2
        assert "argument" in err

    def test_missing_source_exits_2(self, capsys):
        code, _, _ = run(capsys, "prob", "--t", "1", "--indices", "1",
                         "--a", "0")
        assert code == 2

    def test_byte_identical_reports(self, capsys):
        argv = ("prob", "--t", "1", "--indices", "2", "--levels", "0",
                "--a", "-1.0")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_index_past_csv_data_exits_2(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("1,0\n2,-1\n3,-2\n")
        code, _, err = run(capsys, "prob", "--t", "1", "--init-csv",
                           str(path), "--indices", "5", "--a=-3")
        assert code == 2
        assert "3 particles" in err

    def test_wedge_source(self, capsys):
        code, out, _ = run(capsys, "prob", "--t", "1", "--indices", "6",
                           "--wedges=-1.0@0.5", "--a=-6.0")
        assert code == 0
        assert 0.0 <= json.loads(out)["probability"] <= 1.0


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=1\nindices=1\nlevels=0\na=0\n")
        code, out, _ = run(capsys, "--config", str(cfg), "prob")
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.5,
                                                               abs=1e-6)
        code, out, _ = run(capsys, "--config", str(cfg), "prob",
                           "--a", "100.0")
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.0,
                                                               abs=1e-9)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "prob", "--t", "1", "--indices",
                  "1", "--levels", "0", "--a", "0"])
        assert info.value.code == 2
        assert "unrecognized arguments: --nonsense=1" in \
            capsys.readouterr().err

    def test_unread_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("t=1\nindices=1\nlevels=0\na=0\nseed=3\n")
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "prob"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed=3" in capsys.readouterr().err

    def test_file_sets_output(self, capsys, tmp_path):
        argv = ("hitting", "--levels", "0", "--eta", "0.7", "--horizon", "4")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text("output=csv\n")
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert out.splitlines()[0] == "ell,b,density"
        code, out, _ = run(capsys, "--config", str(cfg), *argv,
                           "--output", "json")
        assert json.loads(out)["config"]["output"] == "json"
        # unset everywhere, the report stays JSON and says so
        code, out, _ = run(capsys, *argv)
        assert json.loads(out)["config"]["output"] == "json"

    def test_file_sets_suite(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("suite=duality\nseed=7\n")
        code, out, _ = run(capsys, "--config", str(cfg), "validate")
        assert code == 0
        assert list(json.loads(out)["suites"]) == ["duality"]

    @pytest.mark.parametrize("line, argv", [
        ("output=xml", ("hitting", "--levels", "0")),
        ("method=walk", ("hitting", "--levels", "0")),
        ("suite=none", ("validate",)),
    ])
    def test_file_value_outside_choices_rejected(self, capsys, tmp_path,
                                                 line, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), *argv])
        assert info.value.code == 2
        value = line.split("=")[1]
        assert f"invalid choice: '{value}'" in capsys.readouterr().err

    def test_equivalent_runs_print_the_same_bytes(self, capsys, tmp_path):
        # the file path, and defaults typed or left out, do not show
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=1\nindices=1\nlevels=0\na=0\n")
        argv = ("prob", "--t", "1", "--indices", "1", "--levels", "0",
                "--a", "0")
        outs = {run(capsys, *argv)[1],
                run(capsys, "--config", str(cfg), "prob")[1],
                run(capsys, *argv, "--target", "1e-6", "--quad-order",
                    "40")[1]}
        assert len(outs) == 1
        config = json.loads(outs.pop())["config"]
        assert config["quad_order"] == 40 and config["indices"] == [1]

    @pytest.mark.parametrize("cmd, flags, missing", [
        ("prob", {"t": "1", "indices": "1", "a": "0"}, "t"),
        ("prob", {"t": "1", "indices": "1", "a": "0"}, "indices"),
        ("prob", {"t": "1", "indices": "1", "a": "0"}, "a"),
        ("mc", {"t": "1", "indices": "1", "a": "0", "paths": "200"}, "t"),
        ("mc", {"t": "1", "indices": "1", "a": "0", "paths": "200"},
         "indices"),
        ("mc", {"t": "1", "indices": "1", "a": "0", "paths": "200"}, "a"),
        ("scaling", {"wedges": "0", "eps": "0.2"}, "wedges"),
    ])
    def test_missing_required_flag(self, capsys, tmp_path, cmd, flags,
                                   missing):
        # without --t these ended in a TypeError traceback (exit 1)
        given = [f"--{k}={v}" for k, v in flags.items() if k != missing]
        source = ["--levels", "0"] if cmd != "scaling" else []
        cfg = tmp_path / "other.cfg"
        cfg.write_text("output=json\n")
        for head in ([], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as info:
                main([*head, cmd, *source, *given])
            assert info.value.code == 2
            assert "the following arguments are required: --" + missing \
                in capsys.readouterr().err
        cfg.write_text(f"{missing}={flags[missing]}\n")
        code, out, _ = run(capsys, "--config", str(cfg), cmd, *source,
                           *given)
        assert code == 0
        assert json.loads(out)["config"][missing] is not None


@pytest.mark.parametrize("argv", [
    ("prob", "--t", "1", "--indices", "1", "--levels", "0", "--a", "0",
     "--seed", "3"),
    ("mc", "--t", "1", "--indices", "1", "--levels", "0", "--a", "0",
     "--pad", "3"),
    ("hitting", "--levels", "0", "--eta", "0.7", "--target", "1"),
    ("validate", "--suite", "duality", "--t", "5"),
    ("scaling", "--wedges", "0", "--seed", "1"),
    ("gue", "--n", "2", "--threads", "9"),
])
def test_unread_flag_exits_2(capsys, argv):
    # each of these flags was accepted, ignored and echoed into the report
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in \
        capsys.readouterr().err


class TestMc:
    def test_json_schema_and_determinism(self, capsys):
        argv = ("mc", "--t", "1", "--indices", "1", "--levels", "0",
                "--a", "0", "--paths", "5000", "--seed", "9")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        body = json.loads(out1)
        assert {"estimate", "stderr", "paths", "dt", "seed"} <= set(body)
        assert abs(body["estimate"] - 0.5) < 4 * body["stderr"]
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestHitting:
    def test_csv_dump_with_atom(self, capsys):
        code, out, _ = run(capsys, "hitting", "--levels", "0", "--eta",
                           "0.7", "--horizon", "4", "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ell,b,density"
        assert lines[1].startswith("atom,0.7,1.0")

    def test_csv_dump_componentwise(self, capsys):
        code, out, _ = run(capsys, "hitting", "--levels", "inf,inf,0",
                           "--eta", "1.0", "--horizon", "5",
                           "--output", "csv")
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert all(r[0] == "2" for r in rows)
        total = json.loads(run(capsys, "hitting", "--levels", "inf,inf,0",
                               "--eta", "1.0", "--horizon", "5")[1])
        assert total["masses"]["2"] == pytest.approx(1 - 2 / math.e,
                                                     abs=1e-12)


    def test_horizon_past_csv_data_exits_2(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("1,0\n2,-1\n3,-2\n")
        code, _, err = run(capsys, "hitting", "--init-csv", str(path),
                           "--eta=-0.5", "--horizon", "6")
        assert code == 2
        assert "3 particles" in err

class TestValidate:
    def test_duality_suite(self, capsys):
        code, out, _ = run(capsys, "validate", "--suite", "duality",
                           "--seed", "7")
        assert code == 0
        body = json.loads(out)
        assert body["suites"]["duality"]["pass"] is True
        assert body["suites"]["duality"]["max_pathwise_gap"] < 1e-12

    def test_contour_suite(self, capsys):
        code, out, _ = run(capsys, "validate", "--suite", "contour",
                           "--seed", "3")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_each_suite_alone_reproduces_its_part_of_all(self, capsys):
        # the suites once shared one stream, so --suite contour drew other
        # cases than the contour part of --suite all
        code, out, _ = run(capsys, "validate", "--seed", "3")
        assert code == 0
        suites = json.loads(out)["suites"]
        assert len(suites) == 5
        for name, entry in suites.items():
            alone = json.loads(run(capsys, "validate", "--suite", name,
                                   "--seed", "3")[1])["suites"]
            assert alone == {name: entry}


class TestGueAndScaling:
    def test_gue_rows(self, capsys):
        code, out, _ = run(capsys, "gue", "--n", "2", "--paths", "20000",
                           "--seed", "4", "--a=-1.5,0.0")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 2
        assert all(r["z"] < 5 for r in rows)

    @pytest.mark.parametrize("paths", ["0", "-5"])
    def test_gue_without_samples_exits_2(self, capsys, paths):
        code, _, err = run(capsys, "gue", "--n", "2", "--paths", paths,
                           "--seed", "4", "--a", "0")
        assert code == 2
        assert "samples must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("gue", "--a=", "--output", "csv"),
        ("scaling", "--wedges", "0", "--eps=", "--output", "csv"),
    ])
    def test_empty_list_exits_2(self, capsys, argv):
        # an empty list is an argument error, not a report without rows
        # (a CSV report without rows has no header to write)
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "comma list of numbers, got ''" in capsys.readouterr().err

    def test_bad_list_value_named_plainly(self, capsys):
        # argparse names a type callable by its __name__ unless it raises
        # ArgumentTypeError
        with pytest.raises(SystemExit) as info:
            main(["prob", "--t", "1", "--indices", "1,x", "--levels", "0",
                  "--a", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --indices: expected a comma list of integers, " \
               "got '1,x'" in err
        assert "_parse" not in err

    def test_bad_level_list_exits_2(self, capsys):
        code, _, err = run(capsys, "prob", "--t", "1", "--indices", "1",
                           "--levels", "0,x", "--a", "0")
        assert code == 2
        assert "comma list of numbers, got '0,x'" in err

    def test_help_reads_no_config(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["--config", str(tmp_path / "missing.cfg"), "prob",
                  "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rbmdet prob")

    def test_quad_order_zero_exits_2(self, capsys):
        # checked before a quadrature rule is asked of numpy
        code, _, err = run(capsys, "prob", "--t", "1", "--indices", "1",
                           "--levels", "0", "--a", "0", "--quad-order", "0")
        assert code == 2
        assert "need quadrature order >= 1" in err and "got 0" in err

    def test_scaling_csv(self, capsys):
        code, out, _ = run(capsys, "scaling", "--wedges", "0", "--t", "1",
                           "--x", "0", "--a", "0", "--eps", "0.2,0.1",
                           "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eps,prob_rbm,prob_fp,abs_err,det_err_rbm," \
                           "det_err_fp"
        assert len(lines) == 3


class TestIoErrors:
    def test_missing_csv_exits_4(self, capsys):
        code, _, err = run(capsys, "prob", "--t", "1", "--indices", "1",
                           "--init-csv", "/nonexistent/file.csv",
                           "--a", "0")
        assert code == 4
        assert "io" in err


def test_readme_table_lists_every_flag():
    table = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| `(\w+)` +\|(.*)\|$", line)
        if m:
            table[m.group(1)] = set(re.findall(r"--[a-z-]+", m.group(2)))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for act in sp._actions for opt in act.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, sp in sub.choices.items()}
    assert table == flags
