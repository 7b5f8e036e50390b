import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jampack
from jampack import cli
from jampack.cli import dispatch
from jampack.configuration import Configuration
from jampack.construction import density, five_disc_config
from jampack.files import read_config, write_config
from jampack.metropolis import (ChainParams, escape_experiment, run_chain,
                                shrink_radius)


def test_build_square_then_verify(tmp_path, capsys):
    out = tmp_path / "sq.json"
    assert dispatch(["build-square", "--N", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert dispatch(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "stable: True" in text


def test_verify_movable_exit_code(tmp_path, capsys):
    path = tmp_path / "free.json"
    write_config(Configuration(1.0, [[3.0, 3.0], [7.0, 7.0]], (10.0, 10.0)),
                 path)
    assert dispatch(["verify", str(path)]) == 2
    text = capsys.readouterr().out
    assert "stable: False" in text
    assert "rattlers: 2" in text


def test_verify_json_format(tmp_path, capsys):
    out = tmp_path / "j.json"
    assert dispatch(["five-disc", "--out", str(out)]) == 0
    capsys.readouterr()
    assert dispatch(["verify", str(out), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is True
    assert "tol" not in doc["parameters"]


def test_simulate_frozen(tmp_path, capsys):
    out = tmp_path / "five.json"
    dispatch(["five-disc", "--out", str(out)])
    capsys.readouterr()
    assert dispatch(["simulate", str(out), "--steps", "20000",
                     "--seed", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accepted"] == 0
    assert doc["parameters"]["seed"] == 7
    assert doc["first_accepted"] is None
    assert doc["trace"] == [0.0, 0.0]


def test_simulate_reports_first_accepted_and_trace(tmp_path, capsys):
    config = shrink_radius(five_disc_config(), 0.99)
    path = tmp_path / "five99.json"
    write_config(config, path)
    assert dispatch(["simulate", str(path), "--steps", "30000", "--seed",
                     "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _, stats = run_chain(config, ChainParams(30000, config.radius, seed=5))
    assert doc["first_accepted"] == list(stats.first_accepted)
    assert doc["trace"] == stats.trace
    assert len(doc["trace"]) == 3


def test_simulate_out_is_the_chains_final_configuration(tmp_path, capsys):
    config = shrink_radius(five_disc_config(), 0.99)
    path, out = tmp_path / "five99.json", tmp_path / "final.json"
    write_config(config, path)
    assert dispatch(["simulate", str(path), "--steps", "30000", "--seed",
                     "5", "--out", str(out)]) == 0
    final, stats = run_chain(config, ChainParams(30000, config.radius, 5))
    assert stats.accepted > 0
    back = read_config(out)
    assert back.centers.tolist() == final.centers.tolist()
    assert (back.radius, back.box, back.metadata) == (
        final.radius, final.box, final.metadata)


def test_escape_reports_acceptance(tmp_path, capsys):
    out = tmp_path / "five.json"
    dispatch(["five-disc", "--out", str(out)])
    capsys.readouterr()
    assert dispatch(["escape", str(out), "--shrink", "1.0", "0.95",
                     "--steps", "20000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["acceptance"]["1.0"] == 0.0
    assert doc["acceptance"]["0.95"] > 0.0
    config = five_disc_config()
    table = escape_experiment(config, [1.0, 0.95],
                              ChainParams(20000, config.radius, seed=0))
    assert doc["first_accepted"] == {
        "1.0": None, "0.95": list(table[0.95].first_accepted)}
    assert doc["trace"] == {"1.0": table[1.0].trace,
                            "0.95": table[0.95].trace}
    assert doc["trace"]["1.0"] == [0.0, 0.0]


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    square = tmp_path / "sq4.json"
    sequence = [["build-square", "--N", "4", "--out", str(square)],
                ["verify", str(square), "--format", "json"],
                ["verify", str(square), "--tol", "1e-6"],
                ["escape", str(square), "--shrink", "0.9", "--steps", "300"],
                ["escape", str(square), "--steps", "300", "--format", "json"]]
    parser = cli._build_parser()
    default = parser.parse_args(["escape", str(square)]).shrink
    assert default == [1.0, 0.99]

    def run(argv):
        code = dispatch(argv)
        out, err = capsys.readouterr()
        return code, out, err, square.read_bytes()

    codes = []
    for argv in sequence:
        cached = run(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            assert run(argv) == cached
        codes.append(cached[0])
    assert codes == [0, 0, 1, 0, 0]
    assert cli._build_parser() is parser
    assert default == [1.0, 0.99]
    assert parser.parse_args(["escape", str(square)]).shrink is default


def test_build_bridge_and_junction(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert dispatch(["build-bridge", "--N", "4", "--out", str(out)]) == 0
    assert read_config(out).n == 36
    out2 = tmp_path / "j.json"
    assert dispatch(["junction", "--out", str(out2)]) == 0
    assert read_config(out2).n == 6


def test_build_commands_print_what_they_write(tmp_path, capsys):
    # the json payload's keys in today's order, and its values bit for bit
    # those read back from the --out file
    square, bridge = tmp_path / "sq.json", tmp_path / "br.json"
    docs = []
    for command, out in (("build-square", square), ("build-bridge", bridge)):
        assert dispatch([command, "--N", "4", "--format", "json",
                         "--out", str(out)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [list(doc) for doc in docs] == [
        ["n", "r", "n_times_r", "epsilon", "scale", "out", "parameters"],
        ["n", "epsilon", "mirror_x", "out", "parameters"]]
    config = read_config(square)
    assert docs[0]["r"] == config.radius
    assert docs[0]["n_times_r"] == config.n * config.radius
    assert docs[0]["epsilon"] == config.metadata["epsilon"]
    assert docs[0]["scale"] == config.metadata["scale"]
    config = read_config(bridge)
    assert docs[1]["epsilon"] == config.metadata["epsilon"]
    assert docs[1]["mirror_x"] == config.metadata["mirror_x"]


def test_tiling_and_density(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert dispatch(["tiling", "--window", "5", "--out", str(out),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == read_config(out).n
    assert dispatch(["density", str(out), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.3 < doc["density"] < 0.45


@pytest.mark.parametrize("centers", [[], [[0.5, 0.5]]],
                         ids=["no-discs", "one-disc"])
def test_density_of_planar_file_without_window_needs_a_region(
        tmp_path, capsys, centers):
    # without window metadata the region is the centres' bounding box,
    # which has no area for an empty file or a single disc
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"schema": "jampack-config/1", "box": "plane",
                                "radius": 0.1, "centers": centers}))
    assert dispatch(["density", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a planar configuration without a window "
                          "needs discs that span a region"), err
    assert "%d disc(s)" % len(centers) in err


def test_density_regions_of_a_boxed_and_a_planar_file(tmp_path, capsys):
    # a boxed file's region is its box; a planar file without a window
    # takes its centres' bounding box
    boxed, planar = tmp_path / "five.json", tmp_path / "plane.json"
    write_config(five_disc_config(), boxed)
    write_config(Configuration(0.5, [[1.0, 2.0], [3.0, 2.0], [2.0, 4.0]]),
                 planar)
    for path, region in ((boxed, [0.0, 0.0, 1.0, 1.0]),
                         (planar, [1.0, 2.0, 3.0, 4.0])):
        assert dispatch(["density", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["region"] == region
        config = read_config(path)
        assert doc["density"] == density(config, tuple(region))
    assert doc["density"] == 3 * math.pi * 0.25 / 4.0


def test_build_square_verify_render_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the N=4 square, its report and its drawing: tuning, the
    # contact graph and the writers must keep every byte
    square, report, svg = (tmp_path / name
                           for name in ("sq.json", "report.json", "sq.svg"))
    assert dispatch(["build-square", "--N", "4", "--out", str(square)]) == 0
    assert dispatch(["verify", str(square), "--out", str(report)]) == 0
    assert dispatch(["render", str(square), "--contacts", "--color",
                     "--out", str(svg)]) == 0
    capsys.readouterr()
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (square, report, svg)]
    assert digests == [
        "fc1f880af2c33318c384fb95ba363d87af327b65006b1abdf679602f97b693a6",
        "475dd2c42f208636036837109f9cee86cb35ae1a5596bb708ad1fef78a7c7e70",
        "caf256e292411cfc16a3ee75b113602e8a847ac73d9cd887ad37ea4d88bf602c"]


def test_render_writes_svg(tmp_path):
    cfg = tmp_path / "five.json"
    dispatch(["five-disc", "--out", str(cfg)])
    out = tmp_path / "five.svg"
    assert dispatch(["render", str(cfg), "--contacts", "--color",
                     "--out", str(out)]) == 0
    assert out.read_text().count("<circle") == 5


def test_identical_invocations_identical_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dispatch(["build-bridge", "--N", "4", "--out", str(a)])
    dispatch(["build-bridge", "--N", "4", "--out", str(b)])
    assert a.read_text().replace(str(a), "") == \
        b.read_text().replace(str(b), "")


def test_unknown_flag_exit_1(capsys):
    assert dispatch(["five-disc", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exit_1(capsys):
    assert dispatch(["verify", "/nonexistent/x.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "{five}"],
                                  ["simulate", "{five}", "--steps", "10"],
                                  ["build-square", "--N", "4"]],
                         ids=["verify", "simulate", "build-square"])
def test_a_failed_write_prints_no_result(tmp_path, capsys, argv):
    # a command writes its --out file before it prints its result, so a
    # write that fails exits 1 with the path on stderr and nothing on stdout
    five, out = tmp_path / "five.json", tmp_path / "missing" / "r.json"
    write_config(five_disc_config(), five)
    argv = [a.format(five=five) for a in argv] + ["--out", str(out)]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err


def test_a_command_out_of_memory_reports_an_error(monkeypatch, capsys):
    # a size numpy cannot allocate (tiling --window 100000 asks for about
    # 39 GiB) is reported as an error line, not a traceback; the
    # construction is patched to fail, so nothing is allocated
    def fail(window):
        raise MemoryError("Unable to allocate 39.1 GiB")
    monkeypatch.setattr(cli.construction, "tiling_3_12_12", fail)
    assert dispatch(["tiling", "--window", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 39.1 GiB\n"


def test_layout_flag_is_a_usage_error(capsys):
    # square assembly has one layout, wall bridges, and no flag for it
    assert dispatch(["build-square", "--N", "4", "--layout",
                     "wall-bridges"]) == 1
    assert "usage" in capsys.readouterr().err


def test_tol_flag_is_a_usage_error(tmp_path, capsys):
    # contact detection has one fixed tolerance profile and no flag for it
    path = tmp_path / "five.json"
    write_config(five_disc_config(), path)
    assert dispatch(["verify", str(path), "--tol", "1e-6"]) == 1
    assert "usage" in capsys.readouterr().err
    assert dispatch(["build-square", "--N", "4", "--tol", "1e-6"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["density", "--out", "x.json"],
                                  ["escape", "--out", "x.json"],
                                  ["render", "--format", "json"]],
                         ids=["density-out", "escape-out", "render-format"])
def test_unread_output_flag_is_a_usage_error(tmp_path, capsys, argv):
    # --out only where a command writes a file, --format only where it
    # prints a result; no flag is accepted and then ignored
    path = tmp_path / "five.json"
    write_config(five_disc_config(), path)
    assert dispatch([argv[0], str(path)] + argv[1:]) == 1
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_build_square_small_n_exit_1(capsys):
    assert dispatch(["build-square", "--N", "2"]) == 1
    assert "N >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("N, eps", [(3, "0.1077217345015941"),
                                    (8, "0.1077217345015941")])
def test_build_square_names_a_chord_step_that_does_not_converge(capsys, N,
                                                                eps):
    assert dispatch(["build-square", "--N", str(N), "--lambda", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: closure tuning at N=%d, lam=2 reached "
                          "eps=%s, where the chain's chord step does not "
                          "converge: chord step from x=" % (N, eps)), err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_build_square_non_finite_lambda_exit_1(capsys, lam):
    assert dispatch(["build-square", "--N", "4", "--lambda", lam]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lam" in err


def test_overlapping_input_refused(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_config(Configuration(1.0, [[0.0, 0.0], [1.5, 0.0]]), path)
    assert dispatch(["verify", str(path)]) == 1
    assert dispatch(["simulate", str(path), "--steps", "10"]) == 1


@pytest.mark.parametrize("x", [0.05, 5.0])
def test_disc_outside_box_refused(tmp_path, capsys, x):
    # a disc of radius 0.1 centred at x crosses the wall of the unit box
    path = tmp_path / "out.json"
    write_config(Configuration(0.1, [[x, 0.5], [0.5, 0.5]], (1.0, 1.0)),
                 path)
    assert dispatch(["verify", str(path)]) == 1
    assert dispatch(["simulate", str(path), "--steps", "10"]) == 1
    err = capsys.readouterr().err
    assert err.count("disc 0") == 2 and "outside the box" in err


@pytest.mark.parametrize("config", [
    Configuration(1.0, [[0.0, 0.0], [1.5, 0.0]]),
    Configuration(0.1, [[0.05, 0.5], [0.5, 0.5]], (1.0, 1.0))],
    ids=["overlap", "outside"])
def test_verify_and_simulate_word_a_refusal_alike(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    write_config(config, path)
    errors = []
    for argv in (["verify", str(path)],
                 ["simulate", str(path), "--steps", "10"]):
        assert dispatch(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("radius", "1"), ("radius", None), ("radius", True),
    ("box", [1, None]), ("box", ["1", 1]), ("metadata", 5),
    ("centers", [[0.5, "x"]]), ("centers", [[0.5, None]]),
    ("centers", {"x": 1}), ("centers", [[0.5], [0.5, 0.5]]),
    pytest.param("radius", 10 ** 400, id="radius-1e400"),
    pytest.param("box", [10 ** 400, 1], id="box-width-1e400"),
    pytest.param("box", [1, 10 ** 400], id="box-height-1e400")])
def test_field_of_wrong_type_refused(tmp_path, capsys, field, value):
    path = tmp_path / "c.json"
    write_config(five_disc_config(), path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    for argv in (["verify", str(path)],
                 ["simulate", str(path), "--steps", "10"]):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err and "Traceback" not in err


def test_cli_module_runs_as_a_script(tmp_path):
    out = tmp_path / "five.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(jampack.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "jampack.cli", "five-disc", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert len(read_config(out).centers) == 5


def test_eps_hi_flag_is_a_usage_error(capsys):
    # the closure scan has one useful top, 50, and no flag for it
    assert dispatch(["build-square", "--N", "4", "--eps-hi", "1"]) == 1
    assert "usage" in capsys.readouterr().err
    assert dispatch(["build-bridge", "--N", "4", "--eps-hi", "1"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["[1e400, 1]", "[1, 1e400]"],
                         ids=["width", "height"])
def test_infinite_box_side_refused(tmp_path, capsys, box):
    # a float literal beyond range parses as inf, which no box side may be
    path = tmp_path / "c.json"
    write_config(five_disc_config(), path)
    doc = json.loads(path.read_text())
    doc["box"] = "BOX"
    path.write_text(json.dumps(doc).replace('"BOX"', box))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["verify", str(path)] + out, ["render", str(path)] + out,
                 ["density", str(path)]):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "box" in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_configuration_without_discs_refused(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema": "jampack-config/1", "box": [1, 1],
                                "radius": 0.1, "centers": []}))
    for command in ("simulate", "escape"):
        assert dispatch([command, str(path), "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least one disc" in err


def test_negative_seed_refused(tmp_path, capsys):
    path = tmp_path / "five.json"
    write_config(five_disc_config(), path)
    assert dispatch(["simulate", str(path), "--steps", "10",
                     "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("build", [["five-disc"], ["tiling", "--window", "3"]],
                         ids=["five", "tiling"])
def test_infinite_step_radius_refused(tmp_path, capsys, build):
    path = tmp_path / "c.json"
    assert dispatch(build + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert dispatch(["simulate", str(path), "--steps", "10",
                     "--step-radius", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step_radius" in err


@pytest.mark.parametrize("config, step", [
    (Configuration(0.1, [[0.5, 0.5]]), ["--step-radius", "1e308"]),
    (Configuration(1e-10, [[5e299, 5e299]], (1e300, 1e300)), [])],
    ids=["long-step", "wide-box"])
def test_chain_beyond_the_cell_index_refused(tmp_path, capsys, config, step):
    # a cell index of x // 2r past the float range would raise an
    # OverflowError inside the walk; the chain refuses it by name first,
    # while verify handles the same file
    path = tmp_path / "c.json"
    write_config(config, path)
    assert dispatch(["verify", str(path)]) in (0, 2)
    capsys.readouterr()
    assert dispatch(["simulate", str(path), "--steps", "10"] + step) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "step_radius" in err and "radius %r" % config.radius in err
    assert "Traceback" not in err
