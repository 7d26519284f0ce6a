"""Strict JSON configuration for toolkit runs.

Units in files: lengths mm, forces N, moduli MPa, stiffness N/mm, angles
degrees (converted to radians at this boundary).  Unknown keys are rejected
so typos fail loudly.  Serialization emits degree values that reparse to the
identical radian doubles, making parse(serialize(config)) an exact identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .beam import DEFAULT_CURVE_SAMPLES, MaterialModel, VBeamGeometry
from .errors import ConfigError, ValidationError
from .mechanism import CantileverSection, MechanismConfig
from .search import (DEFAULT_LENGTH_BUDGET, DEFAULT_STRESS_LIMIT, DesignSpec,
                     PARAM_NAMES)


@dataclass(frozen=True)
class SweepSettings:
    travel_max: float
    n_samples: int = DEFAULT_CURVE_SAMPLES

    def __post_init__(self):
        if not self.travel_max > 0:
            raise ValidationError("sweep travel_max must be positive")
        if self.n_samples < 2:
            raise ValidationError("sweep n_samples must be at least 2")


@dataclass(frozen=True)
class FESettings:
    n_elements: int = 16
    n_steps: int = 100
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.n_elements < 4:
            raise ValidationError("fe n_elements must be at least 4")
        if self.n_steps < 1:
            raise ValidationError("fe n_steps must be at least 1")
        if not self.tolerance > 0:
            raise ValidationError("fe tolerance must be positive")


@dataclass(frozen=True)
class DesignSettings:
    """Design block as written in config files (angles in degrees)."""

    spec: DesignSpec
    grid_density: dict
    refine_max_evals: int = 200


@dataclass(frozen=True)
class RunConfig:
    mechanism: MechanismConfig
    material: MaterialModel
    sweep: SweepSettings
    design: Optional[DesignSettings] = None
    fe: FESettings = FESettings()
    output_dir: str = "out"


_SCHEMA = {
    "beam": {"length_L", "thickness_T", "width_W", "tilt_theta_deg"},
    "material": {"youngs_modulus_E", "poisson_ratio"},
    "mechanism": {"n_beams", "latch_travel", "series_stiffness_ks",
                  "latch_ramp_factor", "jaw_calibration", "jaw_section",
                  "overall_length_budget"},
    "jaw_section": {"out_of_plane_b", "in_plane_h", "jaw_length"},
    "sweep": {"travel_max", "n_samples"},
    "design": {"target_force", "target_travel", "bounds", "stress_limit",
               "length_budget", "require_non_bistable_at_travel",
               "fixture_allowance", "grid_density", "refine_max_evals"},
    "fe": {"n_elements", "n_steps", "tolerance"},
}

_BOUND_KEYS = {"length_L", "thickness_T", "width_W", "tilt_theta_deg", "n_beams"}

_TOP_KEYS = {"beam", "material", "mechanism", "sweep", "design", "fe",
             "output_dir"}
_REQUIRED_TOP = ("beam", "material", "mechanism", "sweep")


def _reject_unknown(obj, allowed: set, path: str) -> None:
    """Refuse a section that is not an object or holds an unknown key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{path}' must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path
                              else f"unknown key '{key}'")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"missing required key '{path}.{key}'" if path
                          else f"missing required key '{key}'")
    return obj[key]


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


_REQUIRED = object()


def _field(obj: dict, path: str, key: str, default=_REQUIRED, parse=_number):
    """obj[key] via parse, errors naming path.key; required without default."""
    value = (_need(obj, key, path) if default is _REQUIRED
             else obj.get(key, default))
    return parse(value, f"{path}.{key}")


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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")
    for key in _REQUIRED_TOP:
        _need(doc, key, "")

    try:
        beam = doc["beam"]
        _reject_unknown(beam, _SCHEMA["beam"], "beam")
        geometry = VBeamGeometry.from_degrees(*(
            _field(beam, "beam", key) for key in
            ("length_L", "thickness_T", "width_W", "tilt_theta_deg")))

        mat_doc = doc["material"]
        _reject_unknown(mat_doc, _SCHEMA["material"], "material")
        material = MaterialModel(
            _field(mat_doc, "material", "youngs_modulus_E"),
            _field(mat_doc, "material", "poisson_ratio", 0.3))

        mech_doc = doc["mechanism"]
        _reject_unknown(mech_doc, _SCHEMA["mechanism"], "mechanism")
        sec_doc = _need(mech_doc, "jaw_section", "mechanism")
        _reject_unknown(sec_doc, _SCHEMA["jaw_section"], "mechanism.jaw_section")
        section = CantileverSection(*(
            _field(sec_doc, "mechanism.jaw_section", key)
            for key in ("out_of_plane_b", "in_plane_h", "jaw_length")))
        calibration = _need(mech_doc, "jaw_calibration", "mechanism")
        if (not isinstance(calibration, list) or not calibration
                or not all(isinstance(a, list) and len(a) == 2 for a in calibration)):
            raise ConfigError(
                "'mechanism.jaw_calibration' must be a non-empty list of "
                "[trigger_mm, jaw_mm] pairs")
        anchors = tuple(
            (_number(a[0], "mechanism.jaw_calibration"),
             _number(a[1], "mechanism.jaw_calibration")) for a in calibration)
        mechanism = MechanismConfig(
            beam_geometry=geometry,
            n_beams=_field(mech_doc, "mechanism", "n_beams", parse=_integer),
            material=material,
            latch_travel=_field(mech_doc, "mechanism", "latch_travel"),
            jaw_calibration=anchors,
            jaw_section=section,
            series_stiffness_ks=_field(
                mech_doc, "mechanism", "series_stiffness_ks", 10.0),
            overall_length_budget=_field(
                mech_doc, "mechanism", "overall_length_budget", 200.0),
            latch_ramp_factor=_field(
                mech_doc, "mechanism", "latch_ramp_factor", 1.5))

        sweep_doc = doc["sweep"]
        _reject_unknown(sweep_doc, _SCHEMA["sweep"], "sweep")
        sweep = SweepSettings(
            travel_max=_field(sweep_doc, "sweep", "travel_max"),
            n_samples=_field(sweep_doc, "sweep", "n_samples",
                             DEFAULT_CURVE_SAMPLES, _integer))

        design = None
        if "design" in doc:
            design = _parse_design(doc["design"], material)

        fe = FESettings()
        if "fe" in doc:
            fe_doc = doc["fe"]
            _reject_unknown(fe_doc, _SCHEMA["fe"], "fe")
            fe = FESettings(
                n_elements=_field(fe_doc, "fe", "n_elements", 16, _integer),
                n_steps=_field(fe_doc, "fe", "n_steps", 100, _integer),
                tolerance=_field(fe_doc, "fe", "tolerance", 1e-8))

        output_dir = doc.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("'output_dir' must be a string")

        return RunConfig(mechanism=mechanism, material=material, sweep=sweep,
                         design=design, fe=fe, output_dir=output_dir)
    except ValidationError as exc:
        raise ConfigError(f"invariant violation: {exc}") from exc


def _parse_design(doc, material: MaterialModel) -> DesignSettings:
    _reject_unknown(doc, _SCHEMA["design"], "design")
    bounds_doc = _need(doc, "bounds", "design")
    _reject_unknown(bounds_doc, _BOUND_KEYS, "design.bounds")
    bounds = {}
    for key in _BOUND_KEYS:
        pair = _need(bounds_doc, key, "design.bounds")
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"'design.bounds.{key}' must be [low, high]")
        lo = _number(pair[0], f"design.bounds.{key}")
        hi = _number(pair[1], f"design.bounds.{key}")
        name = "tilt_theta" if key == "tilt_theta_deg" else key
        if key == "tilt_theta_deg":
            lo, hi = math.radians(lo), math.radians(hi)
        bounds[name] = (lo, hi)
    spec = DesignSpec(
        target_force=_field(doc, "design", "target_force"),
        target_travel=_field(doc, "design", "target_travel"),
        bounds=bounds,
        material=material,
        stress_limit=_field(doc, "design", "stress_limit",
                            DEFAULT_STRESS_LIMIT),
        length_budget=_field(doc, "design", "length_budget",
                             DEFAULT_LENGTH_BUDGET),
        require_non_bistable_at_travel=_field(
            doc, "design", "require_non_bistable_at_travel", False, _boolean),
        fixture_allowance=_field(doc, "design", "fixture_allowance", 0.0))
    density_doc = doc.get("grid_density", {})
    _reject_unknown(density_doc, _BOUND_KEYS, "design.grid_density")
    density = {}
    for key, value in density_doc.items():
        name = "tilt_theta" if key == "tilt_theta_deg" else key
        density[name] = _integer(value, f"design.grid_density.{key}")
    for name in PARAM_NAMES:
        density.setdefault(name, 5)
    return DesignSettings(
        spec=spec, grid_density=density,
        refine_max_evals=_field(doc, "design", "refine_max_evals", 200,
                                _integer))


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; parse(serialize(c)) == c exactly."""
    mech = config.mechanism
    geom = mech.beam_geometry
    sec = mech.jaw_section
    doc = {
        "beam": {
            "length_L": geom.length_L,
            "thickness_T": geom.thickness_T,
            "width_W": geom.width_W,
            "tilt_theta_deg": degrees_exact(geom.tilt_theta),
        },
        "material": {
            "youngs_modulus_E": config.material.youngs_modulus_E,
            "poisson_ratio": config.material.poisson_ratio,
        },
        "mechanism": {
            "n_beams": mech.n_beams,
            "latch_travel": mech.latch_travel,
            "series_stiffness_ks": mech.series_stiffness_ks,
            "latch_ramp_factor": mech.latch_ramp_factor,
            "jaw_calibration": [[t, j] for t, j in mech.jaw_calibration],
            "jaw_section": {
                "out_of_plane_b": sec.out_of_plane_b,
                "in_plane_h": sec.in_plane_h,
                "jaw_length": sec.jaw_length,
            },
            "overall_length_budget": mech.overall_length_budget,
        },
        "sweep": {
            "travel_max": config.sweep.travel_max,
            "n_samples": config.sweep.n_samples,
        },
    }
    if config.design is not None:
        d = config.design
        s = d.spec
        bounds = {name: list(s.bounds[name])
                  for name in ("length_L", "thickness_T", "width_W")}
        bounds["tilt_theta_deg"] = [degrees_exact(v)
                                    for v in s.bounds["tilt_theta"]]
        bounds["n_beams"] = list(s.bounds["n_beams"])
        density = {("tilt_theta_deg" if k == "tilt_theta" else k): v
                   for k, v in d.grid_density.items()}
        doc["design"] = {
            "target_force": s.target_force,
            "target_travel": s.target_travel,
            "bounds": bounds,
            "stress_limit": s.stress_limit,
            "length_budget": s.length_budget,
            "require_non_bistable_at_travel": s.require_non_bistable_at_travel,
            "fixture_allowance": s.fixture_allowance,
            "grid_density": density,
            "refine_max_evals": d.refine_max_evals,
        }
    doc["fe"] = {
        "n_elements": config.fe.n_elements,
        "n_steps": config.fe.n_steps,
        "tolerance": config.fe.tolerance,
    }
    doc["output_dir"] = config.output_dir
    return json.dumps(doc, indent=2) + "\n"
