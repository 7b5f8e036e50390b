import functools
import json
import random
import re

import numpy as np
import pytest

from jampack.cli import dispatch
from jampack.configuration import Configuration
from jampack.construction import (assemble_square,
                                  complete_symmetric_bridge, five_disc_config,
                                  junction_piece, tiling_3_12_12, tune_epsilon)
from jampack.files import (SCHEMA, SchemaError, read_config, write_config,
                           write_report)
from jampack.render import render_svg
from jampack.verifier import _STATUSES, OverlapError, verify_stable

from _oracles import render_loop


def test_round_trip_five_disc(tmp_path):
    config = five_disc_config()
    path = tmp_path / "c.json"
    write_config(config, path)
    back = read_config(path)
    assert back.radius == config.radius
    assert np.array_equal(back.centers, config.centers)
    assert back.box == config.box
    assert back.metadata == config.metadata


def test_round_trip_planar(tmp_path):
    config = Configuration(1.0, [[0.0, 0.0], [2.0, 0.0]], None, {"k": 1})
    path = tmp_path / "c.json"
    write_config(config, path)
    back = read_config(path)
    assert back.box is None
    assert np.array_equal(back.centers, config.centers)


def test_square_built_from_numpy_scalars_can_be_written(tmp_path):
    # its metadata records lam as a float and N as an int, which JSON takes
    path = tmp_path / "c.json"
    write_config(assemble_square(4, np.float32(0.05)), path)
    assert read_config(path).metadata["lam"] == float(np.float32(0.05))
    write_config(assemble_square(np.int64(4)), path)
    assert read_config(path).metadata["N"] == 4


def test_round_trip_random_coordinates(tmp_path):
    rnd = random.Random(1001)
    path = tmp_path / "c.json"
    for _ in range(1000):
        pts = [[rnd.uniform(-1e3, 1e3) * 10 ** rnd.randint(-12, 3),
                rnd.uniform(-1e3, 1e3)] for _ in range(3)]
        config = Configuration(rnd.uniform(1e-6, 10.0), np.array(pts))
        write_config(config, path)
        back = read_config(path)
        assert back.radius == config.radius
        assert np.array_equal(back.centers, config.centers)


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "c.json"
    write_config(five_disc_config(), path)
    doc = json.loads(path.read_text())
    doc["extra"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as e:
        read_config(path)
    assert "extra" in str(e.value)


def test_missing_radius_rejected(tmp_path):
    path = tmp_path / "c.json"
    write_config(five_disc_config(), path)
    doc = json.loads(path.read_text())
    del doc["radius"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as e:
        read_config(path)
    assert "radius" in str(e.value)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "c.json"
    write_config(five_disc_config(), path)
    doc = json.loads(path.read_text())
    doc["schema"] = "jampack-config/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        read_config(path)


def test_nonfinite_coordinate_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"schema": "jampack-config/1", "box": "plane", '
                    '"radius": 1.0, "centers": [[0.0, Infinity]]}')
    with pytest.raises(SchemaError):
        read_config(path)


NOT_PAIRS = {"triples": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
             "flat": [0.25, 0.25, 0.75, 0.75],
             "nested": [[[0.1, 0.2]], [[0.3, 0.4]]]}
# (n, 2) lists whose entries are not numbers
NOT_NUMBERS = {"strings": [["0.5", "0.5"], [True, False]],
               "bool-array": [[True, False]],
               "none": [[None, 1.0]]}
FILE_CASES = {**NOT_PAIRS, **NOT_NUMBERS, "ragged": [[0.1, 0.2], [0.3]]}


@pytest.mark.parametrize("centers", FILE_CASES.values(), ids=FILE_CASES)
def test_centers_that_are_not_pairs_rejected(tmp_path, centers):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema": "jampack-config/1", "box": "plane",
                                "radius": 0.01, "centers": centers}))
    with pytest.raises(SchemaError, match="centers"):
        read_config(path)


@pytest.mark.parametrize(
    "centers", [*NOT_PAIRS.values(), np.empty((0, 3)), *NOT_NUMBERS.values()],
    ids=[*NOT_PAIRS, "zero-by-three", *NOT_NUMBERS])
def test_configuration_refuses_centers_that_are_not_pairs(centers):
    with pytest.raises(ValueError, match="centers") as e:
        Configuration(0.01, centers)
    assert str(np.shape(centers)) in str(e.value)
    assert Configuration(0.01, []).centers.shape == (0, 2)
    assert Configuration(0.01, np.empty((0, 2))).n == 0


NOT_SIDES = {"bool-radius": (True, None, "radius"),
             "string-radius": ("0.1", None, "radius"),
             "huge-radius": (10 ** 400, None, "radius"),
             "bool-width": (0.1, (True, 2.0), "box width"),
             "string-width": (0.1, ("1", 1.0), "box width"),
             "huge-height": (0.1, (1.0, 10 ** 400), "box height"),
             "one-side": (0.1, (1.0,), "box"),
             "three-sides": (0.1, (1.0, 1.0, 1.0), "box"),
             "number-box": (0.1, 5.0, "box"),
             "numpy-bool-radius": (np.bool_(True), None, "radius"),
             "numpy-bool-height": (0.1, (1.0, np.bool_(True)), "box height")}


@pytest.mark.parametrize("radius, box, name", NOT_SIDES.values(),
                         ids=NOT_SIDES)
def test_configuration_refuses_radius_and_box_that_are_not_numbers(
        radius, box, name):
    with pytest.raises(ValueError, match="^%s " % name):
        Configuration(radius, [[0.5, 0.5]], box)
    for one, two, three in ((1, 2, 3),
                            (np.int64(1), np.float32(2.0), np.int32(3))):
        config = Configuration(one, [[0.5, 0.5]], [two, three])
        assert type(config.radius) is float and config.radius == 1.0
        assert config.box == (2.0, 3.0)
        assert list(map(type, config.box)) == [float, float]


@pytest.mark.parametrize("radius", ["0", "-1.0", "Infinity"])
def test_radius_that_is_not_positive_and_finite_rejected(tmp_path, radius):
    path = tmp_path / "c.json"
    path.write_text('{"schema": "jampack-config/1", "box": "plane", '
                    '"radius": %s, "centers": [[0.0, 0.0]]}' % radius)
    with pytest.raises(SchemaError, match="radius"):
        read_config(path)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("not json{")
    with pytest.raises(SchemaError):
        read_config(path)


@pytest.mark.parametrize("text, message", [
    ('[]', "must be a JSON object"),
    ('{"schema": "jampack-config/1", "box": null, "radius": 1.0, '
     '"centers": []}', "box must be"),
    ('{"schema": "jampack-config/1", "box": 10.0, "radius": 1.0, '
     '"centers": []}', "box must be"),
    ('{"schema": "jampack-config/1", "box": "square", "radius": 1.0, '
     '"centers": []}', "box must be")],
    ids=["array-document", "null-box", "number-box", "word-box"])
def test_documents_outside_the_schema_rejected(tmp_path, text, message):
    # a planar box is written "plane"; null is not a second spelling of it
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        read_config(path)


def test_overlapping_file_loads_but_verify_refuses(tmp_path):
    path = tmp_path / "c.json"
    write_config(Configuration(1.0, [[0.0, 0.0], [1.5, 0.0]]), path)
    config = read_config(path)
    assert config.n == 2
    with pytest.raises(OverlapError):
        verify_stable(config)


def test_report_serialization(tmp_path, capsys):
    config, path = tmp_path / "five.json", tmp_path / "r.json"
    write_config(five_disc_config(), config)
    assert dispatch(["verify", str(config), "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["movable"] == 0
    assert doc["stable"] is True
    assert doc["jammed"] == 5
    assert doc["status"] == ["jammed"] * 5


@pytest.mark.parametrize("config", [
    junction_piece(), Configuration(0.1, [[0.5, 0.5]], (1.0, 1.0))],
    ids=["junction", "one-disc"])
def test_report_is_the_printed_payload_plus_its_columns(tmp_path, capsys,
                                                         config):
    # the --out report is the printed payload, without the resolved
    # parameters, plus each disc's status, contact count and margin in
    # disc order; the junction has movable discs, the one disc is a rattler
    src, path = tmp_path / "c.json", tmp_path / "r.json"
    write_config(config, src)
    capsys.readouterr()
    assert dispatch(["verify", str(src), "--format", "json",
                     "--out", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    del payload["parameters"]
    report = verify_stable(config)
    statuses = [_STATUSES[s] for s in report.status.tolist()]
    assert payload["movable_discs"] and len(statuses) == config.n
    assert path.read_text() == json.dumps(
        {**payload, "status": statuses,
         "contacts": report.contacts.tolist(),
         "margin": report.margin.tolist()}, indent=1) + "\n"


def test_report_to_a_missing_directory_is_an_os_error(tmp_path):
    path = tmp_path / "missing" / "r.json"
    with pytest.raises(OSError, match="failed to write report to %s"
                       % re.escape(str(path))):
        write_report({"stable": True}, path)


def test_svg_circle_count():
    config = junction_piece()
    svg = render_svg(config)
    assert svg.count("<circle") == config.n


def test_svg_empty_configuration():
    config = Configuration(1.0, np.empty((0, 2)))
    svg = render_svg(config)
    assert svg.count("<circle") == 0
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_svg_deterministic():
    config = five_disc_config()
    a = render_svg(config, contacts=True, color_verdicts=True)
    b = render_svg(config, contacts=True, color_verdicts=True)
    assert a == b


def test_svg_contact_overlay_and_colors():
    config = five_disc_config()
    svg = render_svg(config, contacts=True, color_verdicts=True)
    assert svg.count("<line") == 4  # center disc touching each corner disc
    assert "#4878a8" in svg  # jammed color


def test_svg_colors_follow_verdicts_from_one_contact_graph(monkeypatch):
    from jampack import verifier
    config = complete_symmetric_bridge(tune_epsilon(4))
    calls = []
    real = verifier.contact_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "contact_graph", counting)
    svg = render_svg(config, contacts=True, color_verdicts=True)
    assert len(calls) == 1
    fills = [l.split('fill="')[1].split('"')[0] for l in svg.split("\n")
             if "<circle" in l]
    colors = {"jammed": "#4878a8", "movable": "#c04040",
              "rattler": "#d8a030"}
    monkeypatch.setattr(verifier, "contact_graph", real)
    statuses = [_STATUSES[s] for s in verify_stable(config).status.tolist()]
    assert fills == [colors[s] for s in statuses]
    assert "movable" in statuses


def test_svg_y_axis_flipped():
    config = Configuration(1.0, [[1.0, 1.0], [1.0, 3.0]], (10.0, 10.0))
    svg = render_svg(config)
    circles = [l for l in svg.split("\n") if "<circle" in l]
    # the higher disc must be drawn with the smaller pixel y
    cy = [float(l.split('cy="')[1].split('"')[0]) for l in circles]
    assert cy[1] < cy[0]


@functools.cache
def _drawn_configs():
    """Configurations the render tests draw: none and one disc, the
    five-disc square, the junction, the planar N=4 bridge, two squares, a
    tiling, and two planar patches near 1e6 whose pixel x and y are
    differences of large coordinates: a shifted tiling, and discs of radius
    1e-5 whose centres times the scale are near 4e12, where any other order
    of the float operations moves the fourth decimal."""
    tiling = tiling_3_12_12(10)
    return [Configuration(1.0, np.empty((0, 2))),
            Configuration(0.25, [[0.5, 0.75]], (1.0, 2.0)),
            five_disc_config(), junction_piece(),
            complete_symmetric_bridge(tune_epsilon(4)),
            assemble_square(4), assemble_square(8), tiling,
            Configuration(1.0, tiling_3_12_12(3).centers + (1e6, -1e6 / 3)),
            Configuration(1e-5, [[1e6 + 3e-5 * a, -1e6 + 3.1e-5 * b]
                                 for a in range(7) for b in range(5)])]


@pytest.mark.parametrize("contacts", [False, True],
                         ids=["circles", "contacts"])
@pytest.mark.parametrize("color", [False, True], ids=["grey", "color"])
def test_svg_bytes_are_the_per_element_loop(contacts, color):
    for config in _drawn_configs():
        assert (render_svg(config, contacts=contacts, color_verdicts=color)
                == render_loop(config, contacts, color))


def _writer_configs():
    rnd = random.Random(29)
    # signed zeros and coordinates from 1e-300 to 1e300
    centers = [[rnd.choice((1.0, -1.0)) * rnd.random()
                * 10.0 ** rnd.randint(-300, 300) for _ in range(2)]
               for _ in range(40)] + [[0.0, -0.0], [-0.0, 0.0]]
    return [Configuration(1.0, np.empty((0, 2))),
            Configuration(0.5, [[1.0, 2.0]], (3.0, 4.0), {"k": [1, "a"]}),
            five_disc_config(),
            Configuration(1e-300, centers, None, {"note": "random"})]


@pytest.mark.parametrize("config", _writer_configs(),
                         ids=["none", "one", "five", "random"])
def test_config_bytes_are_json_dumps_of_the_document(config, tmp_path):
    path = tmp_path / "c.json"
    write_config(config, path)
    box = "plane" if config.box is None else list(config.box)
    doc = {"schema": SCHEMA, "box": box, "radius": config.radius,
           "centers": config.centers.tolist(), "metadata": config.metadata}
    assert path.read_text() == json.dumps(doc, indent=1) + "\n"
