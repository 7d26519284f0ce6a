"""Seeded inputs of the three benchmark workloads.

Each workload is one step of the design loop, run as a closed loop with one
client: the next operation starts when the previous one has returned.

Inputs come in cycles. Every cycle holds a fixed mix of operations by the
property that sets their cost (grid size, tilt class, solver step count),
in a seeded order, and the harness measures whole cycles. The seed moves
every value inside its range, but each run sees the same mix, so run
medians compare across seeds. Ranges span the design space around the
``demos/table1.json`` reference; they are not narrowed to avoid known model
defects (a 0-degree tilt beam can miss the frame solver by rms_rel > 1, and
such cases stay in the data).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

WHY = {
    "design": ("CLI design on seeded bounds: search plus the per-sample "
               "force_curve path carry the work; mechanism and fe stay idle"),
    "grasper": ("CLI grasper, 500 samples: three scalar per-state homotopy "
                "solves per sample, mostly monostable; force_curve is never "
                "called"),
    "verify": ("library verify: frame-solver sweep, curve comparisons and a "
               "small tied assembly; fe does nearly all of the work"),
}

# Number of cycles generated per run; runs longer than the pool wrap around.
POOL_CYCLES = 12

GRASPER_SAMPLES = 500

# The demos/table1.json reference, copied so the inputs stay fixed when a
# demo changes.
_BASE = {
    "beam": {"length_L": 40, "thickness_T": 1.2, "width_W": 5,
             "tilt_theta_deg": 7},
    "material": {"youngs_modulus_E": 1800, "poisson_ratio": 0.3},
    "mechanism": {
        "n_beams": 12, "latch_travel": 8, "series_stiffness_ks": 10,
        "latch_ramp_factor": 1.5,
        "jaw_calibration": [[3.2, 7.13], [6.4, 15.99], [8, 20.52]],
        "jaw_section": {"out_of_plane_b": 3, "in_plane_h": 1.5,
                        "jaw_length": 45},
        "overall_length_budget": 200,
    },
    "sweep": {"travel_max": 5, "n_samples": 500},
    "fe": {"n_elements": 16, "n_steps": 100, "tolerance": 1e-8},
    "output_dir": "out",
}

_DESIGN_AXES = ("length_L", "thickness_T", "width_W", "tilt_theta_deg",
                "n_beams")


@dataclass
class Input:
    """One operation's input: a config document plus call parameters."""

    index: int
    stratum: str
    config: dict
    params: Dict[str, float] = field(default_factory=dict)
    path: Path = None
    parsed: object = None


def _r(x: float) -> float:
    return round(x, 4)


def _base() -> dict:
    return json.loads(json.dumps(_BASE))


# Design cost levels: (axes at grid density 3, refine_max_evals). Grid size
# and refine budget rise together. Three of eight operations sit at the
# middle level (108 points, ~80 evaluations), which holds the median, and
# three at the top level (243 points, ~120 evaluations), which holds the
# tail.
_DESIGN_LEVELS = ((0, 40), (1, 60), (3, 80), (3, 80), (3, 80), (5, 120),
                  (5, 120), (5, 120))
_EVALS_JITTER = 5


def _design_cycle(rng: random.Random) -> list:
    """One config per cost level: 32-243 grid points, 40-120 refine evals."""
    out = []
    for dense_axes, evals in rng.sample(_DESIGN_LEVELS, len(_DESIGN_LEVELS)):
        doc = _base()
        dense = set(rng.sample(_DESIGN_AXES, dense_axes))
        L_lo = _r(rng.uniform(34.0, 38.0))
        T_lo = _r(rng.uniform(0.9, 1.1))
        W_lo = _r(rng.uniform(3.5, 4.5))
        th_lo = _r(rng.uniform(4.0, 6.0))
        n_lo = rng.randint(9, 11)
        doc["design"] = {
            "target_force": _r(rng.uniform(10.0, 30.0)),
            "target_travel": 5,
            "stress_limit": 120,
            "length_budget": 200,
            "bounds": {
                "length_L": [L_lo, _r(L_lo + rng.uniform(6.0, 10.0))],
                "thickness_T": [T_lo, _r(T_lo + rng.uniform(0.3, 0.5))],
                "width_W": [W_lo, _r(W_lo + rng.uniform(1.5, 2.5))],
                "tilt_theta_deg": [th_lo, _r(th_lo + rng.uniform(3.0, 5.0))],
                # an even span keeps the density-3 midpoint an integer
                "n_beams": [n_lo, n_lo + 2 * rng.randint(1, 2)],
            },
            "grid_density": {a: (3 if a in dense else 2) for a in _DESIGN_AXES},
            "refine_max_evals": min(120, max(40, evals + rng.randint(
                -_EVALS_JITTER, _EVALS_JITTER))),
        }
        out.append((f"dense{dense_axes}", doc, {}))
    return out


def _grasper_cycle(rng: random.Random) -> list:
    """Five configs: three untilted (fully monostable), two tilted."""
    tilts = [("tilt0", 0.0), ("tilt0", 0.0), ("tilt0", 0.0),
             ("tilt1-5.5", rng.uniform(1.0, 5.5)),
             ("tilt5.5-10", rng.uniform(5.5, 10.0))]
    rng.shuffle(tilts)
    out = []
    for stratum, tilt in tilts:
        doc = _base()
        doc["beam"].update(length_L=_r(rng.uniform(30.0, 50.0)),
                           thickness_T=_r(rng.uniform(0.8, 1.6)),
                           tilt_theta_deg=_r(tilt))
        doc["mechanism"].update(n_beams=rng.randint(2, 16),
                                series_stiffness_ks=_r(rng.uniform(5.0, 20.0)))
        doc["sweep"]["n_samples"] = GRASPER_SAMPLES
        out.append((stratum, doc, {}))
    return out


def _verify_cycle(rng: random.Random) -> list:
    """Five configs, one per frame-solver step band; one untilted beam.

    The assembly's beam count rises with the band, so cost rises with it.
    """
    bands = [(40, 51, 2), (52, 63, 2), (64, 75, 2), (76, 87, 3), (88, 100, 3)]
    rng.shuffle(bands)
    untilted = rng.randrange(5)
    out = []
    for i, (lo, hi, beams) in enumerate(bands):
        doc = _base()
        tilt = 0.0 if i == untilted else rng.uniform(1.0, 10.0)
        doc["beam"].update(length_L=_r(rng.uniform(30.0, 50.0)),
                           thickness_T=_r(rng.uniform(0.8, 1.6)),
                           width_W=_r(rng.uniform(4.0, 6.0)),
                           tilt_theta_deg=_r(tilt))
        doc["mechanism"]["n_beams"] = beams
        doc["fe"]["n_steps"] = rng.randint(lo, hi)
        params = {"ring_disp": _r(rng.uniform(0.5, 3.0))}
        out.append((f"steps{lo}-{hi}", doc, params))
    return out


_CYCLES: Dict[str, Callable[[random.Random], list]] = {
    "design": _design_cycle,
    "grasper": _grasper_cycle,
    "verify": _verify_cycle,
}

CYCLE_LENGTH = {"design": len(_DESIGN_LEVELS), "grasper": 5, "verify": 5}


def generate(workload: str, seed: int) -> List[Input]:
    """The input pool of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"graspsynth-bench:{workload}:{seed}")
    inputs = []
    for _ in range(POOL_CYCLES):
        for stratum, doc, params in _CYCLES[workload](rng):
            inputs.append(Input(len(inputs), stratum, doc, params))
    return inputs


def write_inputs(workload: str, seed: int, directory: Path,
                 parse_config) -> List[Input]:
    """Generate, write and parse the input pool, plus a manifest.

    Config files are byte-identical for a given seed. Every config goes
    through ``parse_config``, so every input passes the strict schema.
    """
    directory.mkdir(parents=True, exist_ok=True)
    inputs = generate(workload, seed)
    for inp in inputs:
        inp.path = directory / f"config_{inp.index:03d}.json"
        text = json.dumps(inp.config, indent=2) + "\n"
        inp.path.write_text(text, encoding="utf-8")
        inp.parsed = parse_config(text)
    manifest = {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "cycle_length": CYCLE_LENGTH[workload],
        "inputs": [{"config": inp.path.name, "stratum": inp.stratum,
                    "params": inp.params} for inp in inputs],
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return inputs

