"""Tests that pin the config key table: round trip, refusals, README schema."""

import copy
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspsynth import (ConfigError, MaterialModel, RunConfig,
                        ValidationError, parse_config, serialize_config)
from graspsynth.beam import SAMPLE_CAP
from graspsynth.config import _KEYS
from graspsynth.fe.model import ELEMENT_CAP
from graspsynth.search import DEFAULT_GRID_DENSITY

ROOT = Path(__file__).resolve().parents[1]

# Every key the schema has, each with a value of its own type: floats for
# numbers, ints for integers, two-element lists for [low, high] pairs.
FULL = {
    "beam": {"length_L": 40.0, "thickness_T": 1.2, "width_W": 5.0,
             "tilt_theta_deg": 7.0},
    "material": {"youngs_modulus_E": 1800.0, "poisson_ratio": 0.3},
    "mechanism": {
        "n_beams": 12, "latch_travel": 8.0, "series_stiffness_ks": 10.0,
        "latch_ramp_factor": 1.5, "overall_length_budget": 200.0,
        "jaw_calibration": [[3.2, 7.13], [6.4, 15.99], [8.0, 20.52]],
        "jaw_section": {"out_of_plane_b": 3.0, "in_plane_h": 1.5,
                        "jaw_length": 45.0},
    },
    "sweep": {"travel_max": 5.0, "n_samples": 500},
    "design": {
        "target_force": 20.0, "target_travel": 5.0, "stress_limit": 120.0,
        "length_budget": 200.0, "require_non_bistable_at_travel": False,
        "fixture_allowance": 0.0, "refine_max_evals": 120,
        "bounds": {"length_L": [36.0, 44.0], "thickness_T": [1.0, 1.4],
                   "width_W": [4.0, 6.0], "tilt_theta_deg": [5.0, 9.0],
                   "n_beams": [10.0, 14.0]},
        "grid_density": {"length_L": 3, "thickness_T": 3, "width_W": 3,
                         "tilt_theta_deg": 3, "n_beams": 3},
    },
    "fe": {"n_elements": 16, "n_steps": 100, "tolerance": 1e-8},
    "output_dir": "out",
}

REQUIRED = {
    "beam", "material", "mechanism", "sweep",
    "beam.length_L", "beam.thickness_T", "beam.width_W", "beam.tilt_theta_deg",
    "material.youngs_modulus_E",
    "mechanism.n_beams", "mechanism.latch_travel", "mechanism.jaw_calibration",
    "mechanism.jaw_section", "mechanism.jaw_section.out_of_plane_b",
    "mechanism.jaw_section.in_plane_h", "mechanism.jaw_section.jaw_length",
    "sweep.travel_max",
    "design.target_force", "design.target_travel", "design.bounds",
    "design.bounds.length_L", "design.bounds.thickness_T",
    "design.bounds.width_W", "design.bounds.tilt_theta_deg",
    "design.bounds.n_beams",
}

BOUND_ORDER = ("length_L", "thickness_T", "width_W", "tilt_theta_deg",
               "n_beams")


def paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


def keys_by_section(doc, section=""):
    """(section, key) for every key of doc, a section named by its last key."""
    pairs = set()
    for key, value in doc.items():
        pairs.add((section, key))
        if isinstance(value, dict):
            pairs |= keys_by_section(value, key)
    return pairs


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def table_keys():
    return {(section, key) for section, keys in _KEYS.items() for key in keys}


def wrong_type(path, value):
    """A value of another type and the end of the message refusing it."""
    if path == ("mechanism", "jaw_calibration"):
        return 3, "a non-empty list of [trigger_mm, jaw_mm] pairs"
    if isinstance(value, dict):
        return 5, "an object"
    if isinstance(value, bool):
        return 1, "a boolean"
    if isinstance(value, int):
        return 2.5, "an integer"
    if isinstance(value, float):
        return "x", "a number"
    if isinstance(value, str):
        return 5, "a string"
    return 3, "[low, high]"


def refusal(doc) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    return str(info.value)


def test_full_document_names_every_key_of_the_table():
    assert table_keys() <= keys_by_section(FULL)
    config = parse_config(json.dumps(FULL))
    assert parse_config(serialize_config(config)) == config


def test_run_config_holds_one_material():
    doc = {key: value for key, value in FULL.items() if key != "design"}
    config = parse_config(json.dumps(doc))
    assert "material" not in {f.name for f in fields(RunConfig)}
    assert config.material is config.mechanism.material
    stiffer = replace(config, mechanism=replace(
        config.mechanism, material=MaterialModel(2000.0)))
    assert stiffer.material.youngs_modulus_E == 2000.0
    assert parse_config(serialize_config(stiffer)) == stiffer


def test_run_config_refuses_two_materials():
    # a design block carries the material its search evaluates with; it
    # must be the mechanism's, or a round trip would change the config
    config = parse_config(json.dumps(FULL))
    stiff = MaterialModel(2000.0)
    with pytest.raises(ValidationError, match="material"):
        replace(config, mechanism=replace(config.mechanism, material=stiff))
    both = replace(
        config, mechanism=replace(config.mechanism, material=stiff),
        design=replace(config.design,
                       spec=replace(config.design.spec, material=stiff)))
    assert both.material is stiff
    assert parse_config(serialize_config(both)) == both


@pytest.mark.parametrize("path", list(paths(FULL)), ids=".".join)
def test_every_key_is_refused_by_its_path(path):
    name = ".".join(path)
    parent_name = ".".join(path[:-1])

    def mutated(change):
        doc = copy.deepcopy(FULL)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        change(parent, path[-1])
        return doc

    missing = mutated(lambda parent, key: parent.pop(key))
    if name in REQUIRED:
        assert refusal(missing) == f"missing required key '{name}'"
    else:
        parse_config(json.dumps(missing))

    typo = f"{path[-1]}_typo"
    unknown = mutated(lambda parent, key: parent.update({typo: 1}))
    assert refusal(unknown) == (f"unknown key '{parent_name}.{typo}'"
                                if parent_name else f"unknown key '{typo}'")

    value, kind = wrong_type(path, value_at(FULL, path))
    bad = mutated(lambda parent, key: parent.update({key: value}))
    assert refusal(bad) == f"'{name}' must be {kind}"


@pytest.mark.parametrize("seed", ["1", "2", "4"])
def test_missing_bound_is_named_in_documented_order(seed):
    """The first missing bound in (L, T, W, tilt, n_beams) order, whatever
    the string hash seed of the process."""
    script = (
        "import json, sys\n"
        "from graspsynth import ConfigError, parse_config\n"
        "doc, order = json.load(sys.stdin)\n"
        "for k in range(len(order)):\n"
        "    doc['design']['bounds'] = {key: [1.0, 2.0] for key in order[:k]}\n"
        "    try:\n"
        "        parse_config(json.dumps(doc))\n"
        "    except ConfigError as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script],
                            input=json.dumps([FULL, BOUND_ORDER]), env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"missing required key 'design.bounds.{key}'" for key in BOUND_ORDER]


def test_readme_schema_example_parses_and_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    parse_config(json.dumps(doc))
    assert table_keys() <= keys_by_section(doc)


@pytest.mark.parametrize("section,key,cap", [
    ("sweep", "n_samples", SAMPLE_CAP), ("fe", "n_steps", SAMPLE_CAP),
    ("fe", "n_elements", ELEMENT_CAP)])
def test_counts_above_their_cap_are_refused_at_parse(section, key, cap):
    for count in (cap + 1, 10 ** 30):
        doc = copy.deepcopy(FULL)
        doc[section][key] = count
        assert refusal(doc) == (f"invariant violation: {section} {key} "
                                f"{count} exceeds the cap {cap}")
    doc[section][key] = cap
    assert getattr(getattr(parse_config(json.dumps(doc)), section), key) == cap


def test_missing_grid_density_entry_gets_the_search_default():
    doc = copy.deepcopy(FULL)
    del doc["design"]["grid_density"]["width_W"]
    density = parse_config(json.dumps(doc)).design.grid_density
    assert density["width_W"] == DEFAULT_GRID_DENSITY
    assert density["length_L"] == 3


# ---------------------------------------------------------------------------
# round trip over generated valid configs
# ---------------------------------------------------------------------------

positive = st.floats(0.01, 1e3)
angle = st.floats(0.0, 89.99)


@st.composite
def anchors(draw):
    steps = draw(st.lists(st.tuples(positive, positive), min_size=1,
                          max_size=4))
    trigger = jaw = 0.0
    pairs = []
    for dt, dj in steps:
        trigger, jaw = trigger + dt, jaw + dj
        pairs.append([trigger, jaw])
    return pairs


def ordered(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


@st.composite
def valid_documents(draw):
    """Valid config documents; each optional key and block may be absent."""
    length = draw(st.floats(1.0, 200.0))
    doc = {
        "beam": {"length_L": length,
                 "thickness_T": length * draw(st.floats(0.001, 0.99)),
                 "width_W": draw(positive), "tilt_theta_deg": draw(angle)},
        "material": {"youngs_modulus_E": draw(st.floats(1.0, 1e6))},
        "mechanism": {
            "n_beams": draw(st.integers(1, 40)),
            "latch_travel": draw(positive), "jaw_calibration": draw(anchors()),
            "jaw_section": {"out_of_plane_b": draw(positive),
                            "in_plane_h": draw(positive),
                            "jaw_length": draw(positive)}},
        "sweep": {"travel_max": draw(positive)},
    }
    optional = {
        "material": {"poisson_ratio": st.floats(0.0, 0.49)},
        "mechanism": {"series_stiffness_ks": positive,
                      "latch_ramp_factor": st.floats(1.0, 5.0),
                      "overall_length_budget": positive},
        "sweep": {"n_samples": st.integers(2, 10_000)},
    }
    if draw(st.booleans()):
        # every in-bounds beam is slender: thickness stays below the length
        lengths = draw(ordered(positive))
        doc["design"] = {
            "target_force": draw(positive), "target_travel": draw(positive),
            "bounds": {"length_L": lengths,
                       "thickness_T": [lengths[0] * f for f in draw(
                           ordered(st.floats(0.001, 0.99)))],
                       "width_W": draw(ordered(positive)),
                       "tilt_theta_deg": draw(ordered(angle)),
                       "n_beams": draw(ordered(st.integers(1, 40)))},
            "grid_density": draw(st.dictionaries(
                st.sampled_from(BOUND_ORDER), st.integers(1, 9)))}
        optional["design"] = {
            "stress_limit": positive, "length_budget": positive,
            "require_non_bistable_at_travel": st.booleans(),
            "fixture_allowance": st.floats(0.0, 50.0),
            "refine_max_evals": st.integers(1, 1000)}
    if draw(st.booleans()):
        doc["fe"] = {}
        optional["fe"] = {"n_elements": st.integers(4, 64),
                          "n_steps": st.integers(2, 500),
                          "tolerance": st.floats(1e-12, 1e-3)}
    for section, keys in optional.items():
        for key, values in keys.items():
            if draw(st.booleans()):
                doc[section][key] = draw(values)
    if draw(st.booleans()):
        doc["output_dir"] = draw(st.text(max_size=12))
    return doc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(valid_documents())
def test_serialize_then_parse_is_the_identity(doc):
    config = parse_config(json.dumps(doc))
    text = serialize_config(config)
    assert parse_config(text) == config
    assert serialize_config(parse_config(text)) == text
