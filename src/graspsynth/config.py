"""Strict JSON configuration for toolkit runs.

Units in files: lengths mm, forces N, moduli MPa, stiffness N/mm, angles
degrees (converted to radians at this boundary).  Unknown keys are rejected
so typos fail loudly.  One table, _KEYS, names each key once for parsing and
serialization; defaults live on the dataclasses.  Serialization emits degree
values that reparse to the identical radian doubles, making
parse(serialize(config)) an exact identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from .beam import (DEFAULT_CURVE_SAMPLES, SAMPLE_CAP, MaterialModel,
                   VBeamGeometry)
from .errors import ConfigError, ValidationError, check_count, check_positive
from .fe.model import DEFAULT_ELEMENTS_PER_BEAM, ELEMENT_CAP
from .fe.solver import DEFAULT_STEPS, DEFAULT_TOLERANCE
from .mechanism import CantileverSection, MechanismConfig
from .search import (DEFAULT_GRID_DENSITY, DEFAULT_REFINE_EVALS, DesignSpec,
                     PARAM_NAMES)


@dataclass(frozen=True)
class SweepSettings:
    travel_max: float
    n_samples: int = DEFAULT_CURVE_SAMPLES

    def __post_init__(self):
        check_positive("sweep travel_max", self.travel_max)
        check_count("sweep n_samples", self.n_samples, 2, SAMPLE_CAP)


@dataclass(frozen=True)
class FESettings:
    n_elements: int = DEFAULT_ELEMENTS_PER_BEAM
    n_steps: int = DEFAULT_STEPS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        check_count("fe n_elements", self.n_elements, 4, ELEMENT_CAP)
        check_count("fe n_steps", self.n_steps, 2, SAMPLE_CAP)
        check_positive("fe tolerance", self.tolerance)


@dataclass(frozen=True)
class DesignSettings:
    """Design block as written in config files (angles in degrees)."""

    spec: DesignSpec
    grid_density: dict
    refine_max_evals: int = DEFAULT_REFINE_EVALS

    def __post_init__(self):
        check_count("refine_max_evals", self.refine_max_evals, 0)
        for name, count in self.grid_density.items():
            check_count(f"grid density {name}", count, 1)


@dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismConfig
    sweep: SweepSettings
    design: Optional[DesignSettings] = None
    fe: FESettings = FESettings()
    output_dir: str = "out"

    def __post_init__(self):
        if self.design and self.design.spec.material != self.material:
            raise ValidationError("design and mechanism materials differ")

    @property
    def material(self) -> MaterialModel:
        """The mechanism's material, the one material of the run."""
        return self.mechanism.material


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"'{path}' must be finite")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}' must be a boolean")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string")
    return value


def _pair(value, path: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"'{path}' must be [low, high]")
    return _number(value[0], path), _number(value[1], path)


def _angle(value, path: str) -> float:
    return math.radians(_number(value, path))


def _angle_pair(value, path: str) -> tuple:
    return tuple(map(math.radians, _pair(value, path)))


def degrees_exact(radians: float) -> float:
    """Degree value whose radian conversion reproduces the input bit-exactly.

    Plain degree conversion loses the round trip for roughly one double in
    eight; nudging by a few ulps recovers it.
    """
    d = math.degrees(radians)
    if math.radians(d) == radians:
        return d
    up = down = d
    for _ in range(4):
        up = math.nextafter(up, math.inf)
        if math.radians(up) == radians:
            return up
        down = math.nextafter(down, -math.inf)
        if math.radians(down) == radians:
            return down
    return d


_BOUNDS = {"length_L": _pair, "thickness_T": _pair, "width_W": _pair,
           "tilt_theta_deg": _angle_pair, "n_beams": _pair}

# Plain keys of each section and their readers, keyed by the last part of the
# section's path ("" is the top level).  A key names the dataclass field (or
# dict entry) it fills, except tilt_theta_deg, which fills tilt_theta.
_KEYS = {
    "": {"output_dir": _string},
    "beam": {"length_L": _number, "thickness_T": _number, "width_W": _number,
             "tilt_theta_deg": _angle},
    "material": {"youngs_modulus_E": _number, "poisson_ratio": _number},
    "mechanism": {"n_beams": _integer, "latch_travel": _number,
                  "series_stiffness_ks": _number, "latch_ramp_factor": _number,
                  "overall_length_budget": _number},
    "jaw_section": {"out_of_plane_b": _number, "in_plane_h": _number,
                    "jaw_length": _number},
    "sweep": {"travel_max": _number, "n_samples": _integer},
    "design": {"target_force": _number, "target_travel": _number,
               "stress_limit": _number, "length_budget": _number,
               "require_non_bistable_at_travel": _boolean,
               "fixture_allowance": _number, "refine_max_evals": _integer},
    "bounds": _BOUNDS,
    "grid_density": dict.fromkeys(_BOUNDS, _integer),
    "fe": {"n_elements": _integer, "n_steps": _integer, "tolerance": _number},
}
_FIELD = {"tilt_theta_deg": "tilt_theta"}
_KEY = {name: key for key, name in _FIELD.items()}
_WRITERS = {_angle: degrees_exact,
            _angle_pair: lambda pair: [degrees_exact(v) for v in pair]}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _missing(path: str, key: str) -> ConfigError:
    return ConfigError(f"missing required key '{_join(path, key)}'")


def _read(doc, path: str, nested=(), required=()) -> dict:
    """Field values of the section's plain keys present in doc.

    Refuses a non-object, a key that is neither plain, nested nor required,
    and a missing required key; the caller reads the keys that are not plain.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"'{path}' must be an object")
    keys = _KEYS[path.rpartition(".")[2]]
    for key in doc:
        if key not in keys and key not in nested and key not in required:
            raise ConfigError(f"unknown key '{_join(path, key)}'")
    for key in required:
        if key not in doc:
            raise _missing(path, key)
    return {_FIELD.get(key, key): read(doc[key], _join(path, key))
            for key, read in keys.items() if key in doc}


def _build(cls, values: dict, path: str, **given):
    """cls from given plus the values of its fields; a field missing from
    both is a missing key unless the dataclass gives it a default."""
    for field in fields(cls):
        if field.name in values:
            given[field.name] = values[field.name]
        elif field.name not in given and field.default is MISSING:
            raise _missing(path, _KEY.get(field.name, field.name))
    return cls(**given)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"JSON nests too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    run = _read(doc, "", nested=("design", "fe"),
                required=("beam", "material", "mechanism", "sweep"))

    try:
        geometry = _build(VBeamGeometry, _read(doc["beam"], "beam"), "beam")
        material = _build(MaterialModel, _read(doc["material"], "material"),
                          "material")

        mech_doc = doc["mechanism"]
        mech = _read(mech_doc, "mechanism",
                     required=("jaw_section", "jaw_calibration"))
        section = _build(CantileverSection, _read(
            mech_doc["jaw_section"], "mechanism.jaw_section"),
            "mechanism.jaw_section")
        calibration = mech_doc["jaw_calibration"]
        if (not isinstance(calibration, list) or not calibration
                or not all(isinstance(a, list) and len(a) == 2 for a in calibration)):
            raise ConfigError(
                "'mechanism.jaw_calibration' must be a non-empty list of "
                "[trigger_mm, jaw_mm] pairs")
        anchors = tuple(_pair(a, "mechanism.jaw_calibration")
                        for a in calibration)
        mechanism = _build(MechanismConfig, mech, "mechanism",
                           beam_geometry=geometry, material=material,
                           jaw_calibration=anchors, jaw_section=section)

        sweep = _build(SweepSettings, _read(doc["sweep"], "sweep"), "sweep")
        design = (_parse_design(doc["design"], material) if "design" in doc
                  else None)
        fe = _build(FESettings, _read(doc.get("fe", {}), "fe"), "fe")
        return _build(RunConfig, run, "", mechanism=mechanism, sweep=sweep,
                      design=design, fe=fe)
    except ValidationError as exc:
        raise ConfigError(f"invariant violation: {exc}") from exc


def _parse_design(doc, material: MaterialModel) -> DesignSettings:
    values = _read(doc, "design", nested=("grid_density",),
                   required=("bounds",))
    bounds = _read(doc["bounds"], "design.bounds", required=_BOUNDS)
    density = _read(doc.get("grid_density", {}), "design.grid_density")
    for name in PARAM_NAMES:
        density.setdefault(name, DEFAULT_GRID_DENSITY)
    spec = _build(DesignSpec, values, "design", bounds=bounds,
                  material=material)
    return _build(DesignSettings, values, "design", spec=spec,
                  grid_density=density)


def _write(values: dict, section: str) -> dict:
    """The section's plain keys from field values, as _read reads them."""
    doc = {}
    for key, read in _KEYS[section].items():
        name = _FIELD.get(key, key)
        if name in values:
            write = _WRITERS.get(read)
            doc[key] = write(values[name]) if write else values[name]
    return doc


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; parse(serialize(c)) == c exactly."""
    mech = config.mechanism
    doc = {
        "beam": _write(vars(mech.beam_geometry), "beam"),
        "material": _write(vars(config.material), "material"),
        "mechanism": {**_write(vars(mech), "mechanism"),
                      "jaw_calibration": mech.jaw_calibration,
                      "jaw_section": _write(vars(mech.jaw_section),
                                            "jaw_section")},
        "sweep": _write(vars(config.sweep), "sweep"),
    }
    if config.design is not None:
        design = config.design
        doc["design"] = {
            **_write({**vars(design.spec), **vars(design)}, "design"),
            "bounds": _write(design.spec.bounds, "bounds"),
            "grid_density": _write(design.grid_density, "grid_density")}
    doc["fe"] = _write(vars(config.fe), "fe")
    doc.update(_write(vars(config), ""))
    return json.dumps(doc, indent=2) + "\n"
