"""Tests for configuration parsing and the command-line surface."""

import argparse
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graspsynth import (ConfigError, cli, mechanism, parse_config,
                        serialize_config)
from graspsynth.beam import SAMPLE_CAP
from graspsynth.cli import run_command
from graspsynth.fe.solver import PATH_CSV_HEADER
from graspsynth.search import (CANDIDATES_CSV_HEADER, GRID_CAP, grid_search,
                               refine, write_candidates_csv)

import hostile_configs

REPO = Path(__file__).resolve().parents[1]
TABLE1_JSON = REPO / "demos" / "table1.json"

MINIMAL = {
    "beam": {"length_L": 40, "thickness_T": 1.2, "width_W": 5,
             "tilt_theta_deg": 7},
    "material": {"youngs_modulus_E": 1800, "poisson_ratio": 0.3},
    "mechanism": {
        "n_beams": 12, "latch_travel": 8,
        "jaw_calibration": [[3.2, 7.13], [6.4, 15.99], [8, 20.52]],
        "jaw_section": {"out_of_plane_b": 3, "in_plane_h": 1.5,
                        "jaw_length": 45},
    },
    "sweep": {"travel_max": 5, "n_samples": 500},
}


def changed_table1(changes):
    """demos/table1.json with each dotted key path set to its value."""
    doc = json.loads(TABLE1_JSON.read_text())
    for path, value in changes.items():
        *sections, key = path.split(".")
        section = doc
        for name in sections:
            section = section[name]
        section[key] = value
    return doc


def minimal_doc(**updates):
    doc = json.loads(json.dumps(MINIMAL))
    for key, value in updates.items():
        doc[key] = value
    return doc


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_shipped_reference_config():
    config = parse_config(TABLE1_JSON.read_text())
    geom = config.mechanism.beam_geometry
    assert geom.length_L == 40
    assert geom.thickness_T == 1.2
    assert geom.width_W == 5
    assert geom.tilt_theta == pytest.approx(math.radians(7))
    assert config.mechanism.n_beams == 12
    assert config.material.youngs_modulus_E == 1800
    assert config.sweep.travel_max == 5
    assert config.design is not None
    assert config.fe.n_elements == 16


def test_parse_minimal_defaults():
    config = parse_config(json.dumps(MINIMAL))
    assert config.design is None
    assert config.fe.n_steps == 100
    assert config.output_dir == "out"
    assert config.mechanism.series_stiffness_ks == 10.0
    assert config.mechanism.latch_ramp_factor == 1.5


def test_parse_rejects_negative_thickness():
    doc = minimal_doc()
    doc["beam"]["thickness_T"] = -1
    with pytest.raises(ConfigError, match="thickness_T must be positive"):
        parse_config(json.dumps(doc))


def test_parse_empty_document_lists_missing_key():
    with pytest.raises(ConfigError, match="missing required key 'beam'"):
        parse_config("{}")


def test_parse_refuses_a_document_that_is_not_an_object():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_config("[]")


def test_parse_syntax_error_carries_position():
    with pytest.raises(ConfigError, match="line 2, column"):
        parse_config('{\n  "beam": ,\n}')


def test_parse_json_nested_past_the_recursion_limit():
    with pytest.raises(ConfigError, match="nests too deeply"):
        parse_config("[" * 100_000 + "]" * 100_000)


def test_integer_literal_past_the_digit_limit_is_refused(tmp_path, capsys):
    # json.loads raises a plain ValueError past Python's int-string digit
    # limit, which ended even d1 in a traceback
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    text = json.dumps(MINIMAL).replace('"n_beams": 12', f'"n_beams": {digits}')
    with pytest.raises(ConfigError, match="a JSON number cannot be read"):
        parse_config(text)
    cfg, out = tmp_path / "digits.json", tmp_path / "out"
    cfg.write_text(text)
    assert run_command(["d1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "a JSON number cannot be read" in capsys.readouterr().err
    assert not out.exists()


def test_parse_rejects_unknown_keys():
    doc = minimal_doc(extra_block={})
    with pytest.raises(ConfigError, match="unknown key 'extra_block'"):
        parse_config(json.dumps(doc))
    doc = minimal_doc()
    doc["beam"]["lenght"] = 1
    with pytest.raises(ConfigError, match="unknown key 'beam.lenght'"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("command", ["curve", "d1", "design", "verify",
                                     "grasper", "report"])
def test_a_fixture_allowance_is_refused_as_an_unknown_key(command, tmp_path,
                                                          capsys):
    # the length screen compares 2 L cos(theta) with the length budget
    # alone, so every command refuses the old allowance key
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["fixture_allowance"] = 0
    cfg, out = tmp_path / "allowance.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    rc = run_command([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert ("unknown key 'design.fixture_allowance'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN",
                                   "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "huge-int"])
def test_parse_rejects_non_finite_numbers(value):
    # json.dumps cannot write these tokens, so splice them into the text;
    # the last one is an integer beyond the float range
    doc = minimal_doc()
    doc["material"]["youngs_modulus_E"] = "@"
    text = json.dumps(doc).replace('"@"', value)
    with pytest.raises(ConfigError,
                       match="'material.youngs_modulus_E' must be finite"):
        parse_config(text)


def test_parse_type_errors_name_the_path():
    doc = minimal_doc()
    doc["mechanism"]["n_beams"] = 11.5
    with pytest.raises(ConfigError, match="mechanism.n_beams"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_parse_requires_boolean_non_bistable_flag(value, tmp_path, capsys):
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["require_non_bistable_at_travel"] = value
    with pytest.raises(ConfigError,
                       match="'design.require_non_bistable_at_travel' must "
                             "be a boolean"):
        parse_config(json.dumps(doc))
    cfg = tmp_path / "flag.json"
    cfg.write_text(json.dumps(doc))
    rc = run_command(["design", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "require_non_bistable_at_travel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curve", "d1", "design", "verify",
                                     "grasper", "report"])
def test_beam_count_bound_below_one_is_refused(command, tmp_path, capsys):
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["bounds"]["n_beams"] = [0, 13]
    with pytest.raises(ConfigError, match="n_beams bounds must start at 1"):
        parse_config(json.dumps(doc))
    cfg = tmp_path / "beams.json"
    cfg.write_text(json.dumps(doc))
    rc = run_command([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "n_beams bounds" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("path,value,named", [
    (("fe", "n_steps"), 1, "fe n_steps must be at least 2"),
    (("design", "grid_density", "width_W"), 0, "grid density width_W must"),
    (("design", "bounds", "tilt_theta_deg"), [5, 95], "tilt_theta must"),
    (("design", "bounds", "length_L"), [-1, 44], "length_L must be"),
    (("design", "bounds", "thickness_T"), [1.0, 40], "thickness_T must be"),
], ids=["fe_steps", "grid_density", "tilt", "length", "thickness"])
def test_config_a_command_cannot_run_is_refused_at_parse(path, value, named,
                                                          tmp_path, capsys):
    doc = changed_table1({".".join(path): value})
    with pytest.raises(ConfigError, match=named):
        parse_config(json.dumps(doc))
    cfg, out = tmp_path / "edited.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    for command in ("curve", "report"):
        rc = run_command([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name", ["length_L", "n_beams"])
@pytest.mark.parametrize("count", [GRID_CAP + 1, 2 ** 63])
def test_grid_density_above_the_cap_is_refused_at_parse(name, count, tmp_path,
                                                         capsys):
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["grid_density"][name] = count
    named = f"grid density {name} {count} exceeds the cap {GRID_CAP}"
    with pytest.raises(ConfigError, match=named):
        parse_config(json.dumps(doc))
    cfg, out = tmp_path / "dense.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    for command in ("design", "report"):
        rc = run_command([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section,value,named", [
    ("beam", 5, "'beam' must be an object"),
    ("design", {"grid_density": [3, 3]},
     "'design.grid_density' must be an object"),
], ids=["beam", "grid_density"])
def test_sections_must_be_objects(section, value, named, tmp_path, capsys):
    doc = json.loads(TABLE1_JSON.read_text())
    if isinstance(value, dict):
        doc[section].update(value)
    else:
        doc[section] = value
    with pytest.raises(ConfigError, match=named):
        parse_config(json.dumps(doc))
    cfg = tmp_path / "section.json"
    cfg.write_text(json.dumps(doc))
    rc = run_command(["design", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_roundtrip_exact_for_parsed_configs():
    for source in (json.dumps(MINIMAL), TABLE1_JSON.read_text()):
        config = parse_config(source)
        again = parse_config(serialize_config(config))
        assert again == config


def test_roundtrip_exact_for_awkward_angles():
    # radian values whose degree image does not round-trip naively
    import random
    random.seed(4)
    for _ in range(50):
        deg = random.uniform(0.5, 80.0)
        doc = minimal_doc()
        doc["beam"]["tilt_theta_deg"] = deg
        config = parse_config(json.dumps(doc))
        again = parse_config(serialize_config(config))
        assert again == config


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_unknown_subcommand_usage_exit(capsys):
    assert run_command(["frobnicate", "--config", "x"]) == 1


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = run_command(["curve", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = minimal_doc()
    doc["beam"]["thickness_T"] = -1
    bad.write_text(json.dumps(doc))
    rc = run_command(["curve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_non_finite_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    text = TABLE1_JSON.read_text()
    assert '"youngs_modulus_E": 1800' in text
    bad.write_text(text.replace('"youngs_modulus_E": 1800',
                                '"youngs_modulus_E": Infinity'))
    rc = run_command(["curve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", ("[" * 100_000 + "]" * 100_000).encode()],
    ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_unreadable_config_is_config_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc = run_command(["curve", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,fe,refusal", [
    ("curve", ["--samples", str(10 ** 30)], {}, "sweep n_samples"),
    ("grasper", ["--samples", str(10 ** 30)], {}, "sweep n_samples"),
    ("verify", [], {"n_steps": 10 ** 30}, "invariant violation: fe n_steps"),
    ("report", [], {"n_steps": 10 ** 30}, "invariant violation: fe n_steps")],
    ids=["curve", "grasper", "verify", "report"])
def test_count_above_the_cap_is_config_error(tmp_path, capsys, command, extra,
                                             fe, refusal):
    # refused when the config is read, before any command writes a CSV
    config = tmp_path / "config.json"
    config.write_text(json.dumps(minimal_doc(fe=fe)))
    out = tmp_path / "out"
    rc = run_command([command, "--config", str(config), "--out", str(out),
                      "--quiet", *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error in '{command}': {refusal} {10 ** 30} " \
        f"exceeds the cap {SAMPLE_CAP}" in err
    assert not out.exists()


@pytest.mark.parametrize("command,csv_name", [
    ("curve", "curve.csv"), ("d1", "d1.csv"), ("verify", "verify_report.csv")])
@pytest.mark.parametrize("travel", ["inf", "-inf", "nan", "0"])
def test_travel_override_is_checked_like_file_values(tmp_path, capsys,
                                                     command, csv_name, travel):
    rc = run_command([command, "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), f"--travel={travel}",
                      "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error in '{command}': sweep travel_max must be" in err
    assert not (tmp_path / csv_name).exists()


def test_samples_override_is_checked_like_file_values(tmp_path, capsys):
    rc = run_command(["d1", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--samples", "1", "--quiet"])
    assert rc == 2
    assert "sweep n_samples must be at least 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,extra", [
    ("curve", ["--samples", "5"]), ("d1", ["--samples", "5"]), ("verify", [])],
    ids=["curve", "d1", "verify"])
def test_overflowing_travel_is_a_configuration_error(tmp_path, capsys,
                                                     command, extra):
    # 1e308 is finite, but the sweep's samples of it are not
    rc = run_command([command, "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--travel", "1e308", *extra,
                      "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error in '{command}': travel_max 1e+308 times" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("travel,samples", [("5e-324", "500"),
                                            ("1e-323", "3")])
def test_travel_whose_samples_underflow_is_a_configuration_error(
        tmp_path, capsys, travel, samples):
    # the d1 grid of these travels does not rise strictly from above 0, and
    # d1 used to write rows at 0 mm
    rc = run_command(["d1", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--travel", travel,
                      "--samples", samples, "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"configuration error in 'd1': travel_max {float(travel)!r} is "
            f"below {samples} * 5e-324") in err
    assert not (tmp_path / "d1.csv").exists()


BEAM_UNDERFLOWS = "invariant violation: the load scale 4 E I / L^2 underflows"
COUNT_PAST_FLOATS = ("invariant violation: n_beams 1" + "0" * 400
                     + " exceeds the cap 1.7976931348623157e+308")
KERNEL_OVERFLOWS = "the cubic's coefficients overflow at travels up to 1e+160"
SPLIT_OVERFLOWS = "the series split ks + n_beams k_b overflows"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,changes,named", [
    ("curve", {"beam.width_W": 1e308}, "load scale 4 E I / L^2 overflows"),
    ("curve", {"material.youngs_modulus_E": 1e308},
     "load scale 4 E I / L^2 overflows"),
    ("curve", {"beam.length_L": 1e308}, "L^2 and W T^3 must be finite"),
    ("design", {"design.bounds.length_L": [36, 1e308]},
     "L^2 and W T^3 must be finite"),
    ("report", {"design.bounds.length_L": [36, 1e308]},
     "L^2 and W T^3 must be finite"),
    ("grasper", {"mechanism.latch_travel": 5e-324},
     "travel_max 5e-324 is below 500 * 5e-324"),
    ("grasper", {"mechanism.latch_ramp_factor": 1e308},
     "response magnitudes must be finite"),
    ("report", {"mechanism.latch_ramp_factor": 1e308},
     "response magnitudes must be finite"),
    ("grasper", {"mechanism.jaw_section.in_plane_h": 1e-308},
     "response magnitudes must be finite"),
    *((command, {"material.youngs_modulus_E": 5e-324}, BEAM_UNDERFLOWS)
      for command in ("curve", "grasper", "design")),
    *((command, {"beam.tilt_theta_deg": 0, "sweep.travel_max": 1e160},
       KERNEL_OVERFLOWS) for command in ("curve", "verify")),
    ("design", {"design.target_travel": 1e160,
                "design.bounds.tilt_theta_deg": [0, 0]}, KERNEL_OVERFLOWS),
    *((command, {"mechanism.n_beams": 10 ** 400}, COUNT_PAST_FLOATS)
      for command in ("curve", "d1", "grasper", "design", "verify",
                      "report")),
    *((command, {"mechanism.n_beams": 10 ** 308}, SPLIT_OVERFLOWS)
      for command in ("grasper", "report")),
], ids=["width", "modulus", "length", "design_length", "report_length",
        "latch_travel", "latch_ramp_factor", "report_latch_ramp_factor",
        "jaw_h", "curve_underflow", "grasper_underflow", "design_underflow",
        "curve_travel", "verify_travel", "design_travel", "curve_n_beams",
        "d1_n_beams", "grasper_n_beams", "design_n_beams", "verify_n_beams",
        "report_n_beams", "grasper_split", "report_split"])
def test_extreme_values_are_refused_without_warnings(command, changes, named,
                                                     tmp_path, capsys):
    # the beam and design values used to write NaN or inf, or raise
    # OverflowError; the grasper values reached the finite check only after
    # a numpy divide, overflow or invalid-value warning (a latch travel of
    # 5e-324 is refused earlier, by the travel grid rule); at E 5e-324 curve
    # and grasper wrote -0 forces and design divided by zero; an untilted
    # travel of 1e160 overflowed the cubic's coefficients with a warning; a
    # beam count too large for a float was accepted, and curve, grasper and
    # report then raised OverflowError; 10 ** 308 beams overflowed the series
    # split with a warning, and grasper wrote -0 ring forces
    doc = changed_table1(changes)
    cfg, out = tmp_path / "extreme.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    rc = run_command([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["in_plane_h", "jaw_length"])
@pytest.mark.parametrize("command", ["grasper", "report"])
def test_jaw_section_whose_cube_overflows_is_refused_at_parse(
        command, key, tmp_path, capsys):
    # h ** 3 and jaw_length ** 3 raised OverflowError in grasper_sweep,
    # which ended grasper and report in a traceback
    doc = changed_table1({f"mechanism.jaw_section.{key}": 1e103})
    cfg, out = tmp_path / "jaw.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run_command([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert ("invariant violation: the jaw section's b h^3 / 12 and "
            "jaw_length^3 must be finite") in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("low", [1e-320, 5e-324])
def test_design_bound_whose_force_underflows_is_refused_without_warning(
        low, tmp_path, capsys):
    # the stress divided 0 by 0, with a RuntimeWarning, before the force
    # that underflowed was refused
    doc = changed_table1({"design.bounds.thickness_T": [low, 1.4]})
    cfg, out = tmp_path / "thin.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    rc = run_command(["design", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "the force underflows at the load scale" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


HOSTILE_BASE = hostile_configs.base_config()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(hostile_configs.changes(HOSTILE_BASE)),
       st.sampled_from(hostile_configs.COMMANDS))
@example(change=(("mechanism", "jaw_section", "in_plane_h"), 1e307),
         command="grasper")
@example(change=(("mechanism", "jaw_section", "jaw_length"), 1e308),
         command="report")
@example(change=(("design", "bounds", "thickness_T", 0), 1e-320),
         command="design")
@example(change=(("beam", "width_W"), 1e-320), command="verify")
def test_one_hostile_leaf_never_reaches_a_traceback(change, command):
    # a reduced table1 with one leaf set to a hostile value exits 0, 2 or
    # 3, lets no exception or RuntimeWarning escape, and leaves no CSV on
    # exit 2; tests/hostile_configs.py runs every such change
    doc = hostile_configs.changed(HOSTILE_BASE, *change)
    with tempfile.TemporaryDirectory() as tmp:
        assert hostile_configs.bad_run(Path(tmp), doc, command) is None


SHORT_BEAM = {"beam.length_L": 2, "sweep.travel_max": 1.5}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("changes", [
    {**SHORT_BEAM, "material.youngs_modulus_E": 1e150},
    {**SHORT_BEAM, "material.youngs_modulus_E": 1e160},
    {**SHORT_BEAM, "material.youngs_modulus_E": 1e300},
    {"sweep.travel_max": 1e300},
], ids=["short_1e150", "short_1e160", "short_1e300", "travel_1e300"])
def test_verify_whose_oracle_overflows_stops_at_the_bisection_floor(
        changes, tmp_path, capsys):
    # all but E 1e150 used to stop on a RuntimeWarning raised in Newton
    # (an overflow in r @ r, or in Ln ** 2 at the tilted 1e300 travel);
    # Newton now fails such an attempt and the sweep bisects to its floor
    cfg, out = tmp_path / "overflow.json", tmp_path / "out"
    cfg.write_text(json.dumps(changed_table1(changes)))
    assert run_command(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure in 'verify'" in err and "bisection floor" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("travel, peak", [(2000, "-0.390318"),
                                          (1e300, "-9.92771e+296")])
def test_design_whose_force_is_negative_at_every_travel_is_refused(
        travel, peak, tmp_path, capsys):
    # every sample of every shape lies past the snap: the negative peak was
    # reported as an underflow of the load scale
    cfg, out = tmp_path / "long.json", tmp_path / "out"
    cfg.write_text(json.dumps(changed_table1({"design.target_travel": travel})))
    assert run_command(["design", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"the force is negative at every sampled travel (peak {peak} N): "
            f"the target travel is too long for a beam in the bounds") in err
    assert "underflows" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("design", [True, False], ids=["design", "no_design"])
@pytest.mark.parametrize("command", ["curve", "d1", "design", "verify",
                                     "grasper", "report"])
def test_beam_load_scale_that_underflows_is_refused_at_parse(
        command, design, tmp_path, capsys):
    # the mechanism refuses its beam's load scale and is parsed before the
    # design block, so every command names the beam: with a design block
    # the design bounds used to be named, and without one d1 exited 0
    doc = changed_table1({"material.youngs_modulus_E": 5e-324})
    if not design:
        del doc["design"]
    cfg, out = tmp_path / "tiny.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run_command([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error in '{command}': {BEAM_UNDERFLOWS}" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("modulus", [1e-304, 1e-310])
def test_design_whose_exact_widths_overflow_runs(modulus, tmp_path):
    # refine's W* quotients overflow at these moduli: they used to stop
    # design with an "overflow in scalar divide" warning, and are now inf,
    # which clamps to the upper width bound
    doc = changed_table1({"material.youngs_modulus_E": modulus})
    cfg, out = tmp_path / "tiny.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run_command(["design", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 0
    rows = (out / "design_candidates.csv").read_text().splitlines()[1:]
    # the refined candidate ties its grid twin at objective 1
    assert len(rows) == 243
    assert all(0.0 < float(row.split(",")[6]) < 1e-300 for row in rows)


def short_beam_doc(modulus):
    """demos/table1.json on a 2 mm beam at Young's modulus modulus; its
    design bounds hold that beam's shape alone."""
    doc = json.loads(TABLE1_JSON.read_text())
    doc["beam"] = {"length_L": 2, "thickness_T": 1.2, "width_W": 5,
                   "tilt_theta_deg": 7}
    doc["material"]["youngs_modulus_E"] = modulus
    doc["design"]["bounds"].update(length_L=[2, 3], thickness_T=[1.2, 1.2],
                                   width_W=[5, 5], tilt_theta_deg=[7, 7])
    return doc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["curve", "grasper", "design", "report"])
def test_forces_that_overflow_a_finite_load_scale_are_refused(command,
                                                              tmp_path,
                                                              capsys):
    # at E 4e307 the load scale of the 2 mm beam is finite but its forces
    # are not: curve wrote 434 nan/inf rows and grasper exited 3, each after
    # a RuntimeWarning
    cfg, out = tmp_path / "short.json", tmp_path / "out"
    cfg.write_text(json.dumps(short_beam_doc(4e307)))
    rc = run_command([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "force overflows at the load scale" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
def test_forces_below_the_overflow_still_run(tmp_path):
    doc = short_beam_doc(1e307)
    doc["sweep"]["travel_max"] = 1.5
    cfg, out = tmp_path / "short.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run_command(["curve", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 500
    assert all(math.isfinite(float(v)) for row in rows
               for v in row.split(",")[2:])


@pytest.mark.filterwarnings("error")
def test_oracle_stiffness_that_overflows_is_refused(tmp_path, capsys):
    # curve runs this config (above), but the frame solver's element
    # stiffness E A / L0 overflows: verify used to warn and exit 3
    doc = short_beam_doc(1e307)
    doc["sweep"]["travel_max"] = 1.5
    cfg, out = tmp_path / "short.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run_command(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "E A / L0 or E I / L0 overflows" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_failed_report_leaves_the_output_directory_as_it_was(tmp_path):
    doc = json.loads(TABLE1_JSON.read_text())
    doc["mechanism"]["latch_ramp_factor"] = 1e308
    cfg, out = tmp_path / "ramp.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    out.mkdir()
    (out / "curve.csv").write_text("earlier run\n")
    assert run_command(["report", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 2
    assert [p.name for p in out.iterdir()] == ["curve.csv"]
    assert (out / "curve.csv").read_text() == "earlier run\n"


def test_report_publishes_the_analyses_run_before_a_numerical_failure(
        tmp_path, capsys):
    # verify's sweep cannot meet a 1e-300 tolerance and raises
    # ConvergenceError: the CSVs of the analyses before it are published,
    # none of verify's
    cfg, out = tmp_path / "strict.json", tmp_path / "out"
    cfg.write_text(json.dumps(changed_table1({"fe.tolerance": 1e-300})))
    assert run_command(["report", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 3
    assert "numerical failure in 'report'" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "curve.csv", "d1.csv", "design_candidates.csv", "grasper.csv"]


def test_out_naming_an_existing_file_is_an_io_failure(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert run_command(["d1", "--config", str(TABLE1_JSON),
                        "--out", str(out)]) == 2
    assert "i/o failure in 'd1'" in capsys.readouterr().err
    assert out.read_text() == "a file\n"


# ---------------------------------------------------------------------------
# flag contract: each subcommand takes only the sweep overrides it reads
# ---------------------------------------------------------------------------

OVERRIDES = ("--travel", "--samples")
COMMON_FLAGS = {"-h", "--help", "--config", "--out", "--quiet"}
FLAGS = {
    "curve": {"--travel", "--samples"},
    "d1": {"--travel", "--samples"},
    "grasper": {"--samples"},
    "design": set(),
    "verify": {"--travel"},
    "report": {"--travel", "--samples"},
}
# where a run shows its overrides: file, and column holding the travel
SHOWN_IN = {"curve": ("curve.csv", 0), "d1": ("d1.csv", 0),
            "grasper": ("grasper.csv", 0), "verify": ("fe_path.csv", 1),
            "report": ("d1.csv", 0)}


def parser_flags():
    """Option strings of each subcommand of the CLI's parser."""
    (sub,) = [action for action in cli._build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return {name: {flag for action in parser._actions
                   for flag in action.option_strings}
            for name, parser in sub.choices.items()}


def test_parser_flags_are_the_contract():
    assert parser_flags() == {name: flags | COMMON_FLAGS
                              for name, flags in FLAGS.items()}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in FLAGS.items()
    for flag in OVERRIDES if flag not in flags])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                       command, flag):
    out = tmp_path / "o"
    rc = run_command([command, "--config", str(TABLE1_JSON),
                      "--out", str(out), flag, "2"])
    assert rc == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in FLAGS.items()
    for flag in OVERRIDES if flag in flags])
def test_flag_a_command_reads_takes_effect(tmp_path, command, flag):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(minimal_doc(fe={"n_steps": 10})))
    out = tmp_path / "o"
    rc = run_command([command, "--config", str(cfg), "--out", str(out),
                      flag, "2", "--quiet"])
    assert rc in (0, 3)  # verify's halved comparison fails by design
    csv_name, travel_column = SHOWN_IN[command]
    rows = [line.split(",")
            for line in (out / csv_name).read_text().splitlines()[1:]]
    if flag == "--samples":
        assert len(rows) == 2
    else:
        assert float(rows[-1][travel_column]) == 2.0


@pytest.mark.parametrize("with_design", [False, True])
def test_report_reads_its_config_once(tmp_path, monkeypatch, with_design):
    doc = json.loads(TABLE1_JSON.read_text()) if with_design else minimal_doc()
    doc["fe"] = {"n_steps": 5}
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(doc))
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)

    parse = cli.parse_config
    monkeypatch.setattr(cli, "parse_config", counted)
    out = tmp_path / "o"
    assert run_command(["report", "--config", str(cfg), "--out", str(out),
                        "--samples", "20", "--quiet"]) == 3
    assert len(texts) == 1
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["curve.csv", "d1.csv", "fe_path.csv", "grasper.csv",
         "verify_report.csv"] + ["design_candidates.csv"] * with_design)
    assert len((out / "d1.csv").read_text().splitlines()) == 21


def test_every_file_written_is_reported(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(minimal_doc(fe={"n_steps": 10})))
    out = tmp_path / "o"
    assert run_command(["report", "--config", str(cfg), "--out", str(out),
                        "--samples", "5"]) == 3
    reported = {Path(line.removeprefix("wrote ")).name
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("wrote ")}
    assert reported == {p.name for p in out.iterdir()} == {
        "curve.csv", "d1.csv", "grasper.csv", "fe_path.csv",
        "verify_report.csv"}


def test_curve_command_csv_contract(tmp_path):
    out = tmp_path / "o"
    rc = run_command(["curve", "--config", str(TABLE1_JSON),
                      "--out", str(out), "--quiet"])
    assert rc == 0
    text = (out / "curve.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "delta_y_mm,branch,f_o,p_o,force_single_N,force_ring_N"
    assert len(lines) == 1 + 500
    assert "\r" not in text
    branches = [row.split(",")[1] for row in lines[1:]]
    assert branches[0] == "Monostable"
    assert branches[-1] == "Bistable"
    flip = branches.index("Bistable")
    assert all(b == "Monostable" for b in branches[:flip])
    assert all(b == "Bistable" for b in branches[flip:])
    # ring force is single-beam force times the beam count
    first = lines[1].split(",")
    assert float(first[5]) == pytest.approx(12 * float(first[4]), rel=1e-9)


@pytest.mark.parametrize("command", ["curve", "d1", "grasper", "design"])
def test_curve_command_deterministic_bytes(tmp_path, command):
    csv_name = ("design_candidates.csv" if command == "design"
                else f"{command}.csv")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_command([command, "--config", str(TABLE1_JSON),
                            "--out", str(out), "--quiet"]) == 0
    assert (out_a / csv_name).read_bytes() == (out_b / csv_name).read_bytes()


def test_curve_two_sample_file(tmp_path):
    rc = run_command(["curve", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--samples", "2", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 2.5
    assert float(lines[2].split(",")[0]) == 5.0


def test_d1_command(tmp_path):
    rc = run_command(["d1", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--samples", "100", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "d1.csv").read_text().strip().split("\n")
    assert lines[0] == "delta_y_mm,d1,satisfied"
    assert len(lines) == 101
    flags = [row.split(",")[2] for row in lines[1:]]
    assert flags[0] == "false" and flags[-1] == "true"


def test_grasper_command(tmp_path):
    rc = run_command(["grasper", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--samples", "40", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "grasper.csv").read_text().strip().split("\n")
    assert lines[0] == ("ring_disp_mm,ring_force_N,shuttle_disp_mm,"
                        "jaw_opening_mm,latch_phase,jaw_root_stress_MPa")
    assert len(lines) == 41
    last = lines[-1].split(",")
    assert float(last[0]) == 8.0
    assert float(last[3]) == pytest.approx(20.52)
    assert last[4] == "StressedLatched"


def test_grasper_model_evaluations_do_not_depend_on_samples(tmp_path,
                                                            monkeypatch):
    import graspsynth.beam as beam
    calls = []

    def counted(*args):
        calls.append(args[1].size)
        return kernel(*args)

    kernel = beam._loads
    monkeypatch.setattr(beam, "_loads", counted)
    # the sweep builds no per-row object: no latch step, no response record
    rows = []

    def counted_as(name, fn):
        def count(*args, **kwargs):
            rows.append(name)
            return fn(*args, **kwargs)
        return count

    for name in ("latch_step", "GrasperResponse"):
        monkeypatch.setattr(mechanism, name,
                            counted_as(name, getattr(mechanism, name)))
    passes = {}
    for samples in (5, 40, 400):
        calls.clear()
        assert run_command(["grasper", "--config", str(TABLE1_JSON),
                            "--out", str(tmp_path / str(samples)),
                            "--samples", str(samples), "--quiet"]) == 0
        passes[samples] = list(calls)
    # the tangent pass and the force pass take one point per sample each
    assert passes == {n: [n, n] for n in (5, 40, 400)}
    assert rows == []
    # the counters see a one-point response, which does build its records
    mechanism.grasper_response(parse_config(TABLE1_JSON.read_text()).mechanism,
                               1.0)
    assert rows == ["latch_step", "GrasperResponse"]


def test_cached_parser_parses_each_call_afresh(tmp_path, capsys):
    def grasper_rows(*extra):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        rc = run_command(["grasper", "--config", str(TABLE1_JSON),
                          "--out", str(out), "--quiet", *extra])
        csv = out / "grasper.csv"
        return rc, (len(csv.read_text().splitlines()) - 1
                    if csv.exists() else None)

    n_samples = parse_config(TABLE1_JSON.read_text()).sweep.n_samples
    assert n_samples != 7
    assert cli._build_parser() is cli._build_parser()
    assert grasper_rows("--samples", "7") == (0, 7)
    assert grasper_rows() == (0, n_samples)
    assert grasper_rows("--travel", "2") == (1, None)
    assert "unrecognized arguments" in capsys.readouterr().err
    assert grasper_rows() == (0, n_samples)


def test_design_command(tmp_path):
    rc = run_command(["design", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "design_candidates.csv").read_text().strip().split("\n")
    assert lines[0] == ("rank,L_mm,T_mm,W_mm,theta_deg,n_beams,"
                        "peak_force_N,objective,violations")
    assert len(lines) > 200
    objectives = [float(r.split(",")[7]) for r in lines[1:]
                  if r.split(",")[8] == ""]
    assert objectives == sorted(objectives)


@pytest.mark.parametrize("max_evals", [0, 1, 2, 3, 5])
def test_design_writes_each_point_once(tmp_path, max_evals):
    # a budget of 0 returns the best grid point flagged exhausted, whose
    # copy used to be written next to its grid twin; from a budget of 1
    # refine solves the winner's width and beam count, a point off the grid
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["refine_max_evals"] = max_evals
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(doc))
    assert run_command(["design", "--config", str(cfg),
                        "--out", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "design_candidates.csv").read_text().strip().split("\n")
    points = [tuple(r.split(",")[1:6]) for r in rows[1:]]
    assert len(points) == len(set(points)) == 243 + (max_evals > 0)


def test_design_rows_beside_the_refined_one_are_the_grid_ranking(tmp_path):
    assert run_command(["design", "--config", str(TABLE1_JSON),
                        "--out", str(tmp_path), "--quiet"]) == 0
    design = parse_config(TABLE1_JSON.read_text()).design
    ranked = grid_search(design.spec, design.grid_density)
    best = refine(design.spec, ranked[0], design.refine_max_evals)
    write_candidates_csv(ranked, tmp_path / "grid.csv")
    write_candidates_csv([best], tmp_path / "refined.csv")

    def unranked(name):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        return [row.split(",", 1)[1] for row in rows]

    rows = unranked("design_candidates.csv")
    rows.remove(*unranked("refined.csv"))
    assert rows == unranked("grid.csv")


def test_design_beam_count_bounds(tmp_path, capsys):
    # [9.4, 10.6] used to round its grid levels out of the bounds and write
    # a header-only CSV; [9.5, 9.7] holds no beam count at all
    doc = json.loads(TABLE1_JSON.read_text())
    for bounds, code in (([9.4, 10.6], 0), ([9.5, 9.7], 2)):
        doc["design"]["bounds"]["n_beams"] = bounds
        doc["design"]["grid_density"]["n_beams"] = 2
        cfg, out = tmp_path / "design.json", tmp_path / str(code)
        cfg.write_text(json.dumps(doc))
        assert run_command(["design", "--config", str(cfg),
                            "--out", str(out), "--quiet"]) == code
    rows = (tmp_path / "0" / "design_candidates.csv").read_text().splitlines()
    assert {row.split(",")[5] for row in rows[1:]} == {"10"}
    assert not (tmp_path / "2").exists()
    assert "n_beams bounds must hold an integer" in capsys.readouterr().err


def test_design_refuses_negative_refine_budget(tmp_path, capsys):
    # a budget of -3 used to exit 0 and skip refinement silently
    doc = json.loads(TABLE1_JSON.read_text())
    doc["design"]["refine_max_evals"] = -3
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(doc))
    assert run_command(["design", "--config", str(cfg),
                        "--out", str(tmp_path), "--quiet"]) == 2
    assert ("invariant violation: refine_max_evals"
            in capsys.readouterr().err)
    assert not (tmp_path / "design_candidates.csv").exists()


def test_design_requires_block(tmp_path):
    cfg = tmp_path / "min.json"
    cfg.write_text(json.dumps(MINIMAL))
    rc = run_command(["design", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_verify_command_reports_and_fails_on_disagreement(tmp_path, capsys):
    """The halved single-beam convention disagrees with the frame solver by
    about a factor of two, so verification must fail with the report written.
    """
    rc = run_command(["verify", "--config", str(TABLE1_JSON),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "verification failed" in err
    report = (tmp_path / "verify_report.csv").read_text().strip().split("\n")
    assert report[0] == ("comparison,rms_rel,max_rel,peak_force_rel_diff,"
                         "peak_location_diff_mm")
    rows = {r.split(",")[0]: r.split(",") for r in report[1:]}
    halved = rows["tebc_single_vs_fe"]
    unhalved = rows["tebc_double_vs_fe"]
    assert float(halved[1]) > 0.9            # the factor-two disagreement
    assert float(unhalved[1]) < 0.05         # unhalved closed form agrees
    assert (tmp_path / "fe_path.csv").exists()


# ---------------------------------------------------------------------------
# README contract
# ---------------------------------------------------------------------------

def readme_table(first_column: str):
    """Rows of the README table whose header starts with first_column."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^\| {first_column} \|.*\n\|[- |]+\|\n((?:\|.*\n)+)",
                      text, re.MULTILINE)
    assert match, f"README has no table headed '{first_column}'"
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in match.group(1).splitlines()]


def test_readme_flag_table_matches_the_parser():
    documented = {command: set(re.findall(r"--[a-z]+", flags))
                  for command, flags in readme_table("subcommand")}
    assert {name: flags | COMMON_FLAGS
            for name, flags in documented.items()} == parser_flags()


def test_readme_output_headers_match_the_code():
    documented = dict(readme_table("file"))
    assert documented == {
        "curve.csv": cli.CURVE_CSV_HEADER,
        "d1.csv": cli.D1_CSV_HEADER,
        "grasper.csv": cli.GRASPER_CSV_HEADER,
        "design_candidates.csv": CANDIDATES_CSV_HEADER,
        "verify_report.csv": cli.VERIFY_CSV_HEADER,
        "fe_path.csv": PATH_CSV_HEADER,
    }
