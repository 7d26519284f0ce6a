"""Derivative-free search for V-beam geometry meeting force/travel targets.

Candidates are scored by how closely the aggregate peak ring force over the
target travel matches the target force, subject to a screening stress bound,
a device length budget and optionally a non-bistability requirement at full
travel.  The stress screen estimates the beam-root bending stress from the
closed-form end loads (moment of the transverse end load times half the
length); final designs should be re-checked with the frame solver.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beam import (DEFAULT_CURVE_SAMPLES, MaterialModel, VBeamGeometry,
                   bistability_margin, force_curve)
from .errors import ValidationError
from .mechanism import halved_ring_force

PARAM_NAMES = ("length_L", "thickness_T", "width_W", "tilt_theta", "n_beams")

CANDIDATES_CSV_HEADER = ("rank,L_mm,T_mm,W_mm,theta_deg,n_beams,"
                         "peak_force_N,objective,violations")

DEFAULT_GRID_CAP = 1_000_000

# Screening defaults; the stress bound is a printed-polymer yield proxy, not
# a device-documented allowable.
DEFAULT_STRESS_LIMIT = 50.0
DEFAULT_LENGTH_BUDGET = 200.0


@dataclass(frozen=True)
class DesignSpec:
    """Target and constraint set for the geometry search.

    bounds maps each parameter name in PARAM_NAMES to (low, high); tilt_theta
    bounds are radians.  fixture_allowance adds to the beam footprint when
    checking the length budget.
    """

    target_force: float
    target_travel: float
    bounds: Dict[str, Tuple[float, float]]
    material: MaterialModel
    stress_limit: float = DEFAULT_STRESS_LIMIT
    length_budget: float = DEFAULT_LENGTH_BUDGET
    require_non_bistable_at_travel: bool = False
    fixture_allowance: float = 0.0
    sweep_samples: int = DEFAULT_CURVE_SAMPLES

    def __post_init__(self):
        if not self.target_force > 0:
            raise ValidationError("target_force must be positive")
        if not self.target_travel > 0:
            raise ValidationError("target_travel must be positive")
        for name in PARAM_NAMES:
            if name not in self.bounds:
                raise ValidationError(f"bounds must include {name}")
            lo, hi = self.bounds[name]
            if not lo <= hi:
                raise ValidationError(f"bounds for {name} must be ordered")


@dataclass(frozen=True)
class Candidate:
    """One evaluated design point.

    objective is |peak ring force - target| / target; violations carry
    (constraint name, magnitude above the limit) pairs and any nonzero entry
    ranks the candidate after every feasible one.  exhausted marks a refine
    result that ran out of its evaluation budget.
    """

    geometry: VBeamGeometry
    n_beams: int
    objective: float
    violations: Tuple[Tuple[str, float], ...]
    peak_force: float
    exhausted: bool = False

    @property
    def feasible(self) -> bool:
        return not self.violations

    def sort_key(self):
        g = self.geometry
        if self.feasible:
            return (0, self.objective, 0.0,
                    g.length_L, g.thickness_T, g.tilt_theta, g.width_W,
                    self.n_beams)
        total = sum(m for _, m in self.violations)
        return (1, total, self.objective,
                g.length_L, g.thickness_T, g.tilt_theta, g.width_W,
                self.n_beams)


def _within_bounds(spec: DesignSpec, geom: VBeamGeometry, n_beams: int) -> None:
    values = {"length_L": geom.length_L, "thickness_T": geom.thickness_T,
              "width_W": geom.width_W, "tilt_theta": geom.tilt_theta,
              "n_beams": float(n_beams)}
    for name, v in values.items():
        lo, hi = spec.bounds[name]
        tol = 1e-9 * max(1.0, abs(hi))
        if not (lo - tol <= v <= hi + tol):
            raise ValidationError(
                f"{name}={v:g} lies outside the search bounds [{lo:g}, {hi:g}]")


def evaluate_candidate(spec: DesignSpec, geom: VBeamGeometry,
                       n_beams: int) -> Candidate:
    """Score one design point against the spec."""
    if n_beams < 1:
        raise ValidationError("n_beams must be at least 1")
    _within_bounds(spec, geom, n_beams)

    curve = force_curve(geom, spec.material, spec.target_travel,
                        spec.sweep_samples)
    ring = halved_ring_force(curve.force, n_beams)
    peak = float(np.max(ring))
    objective = abs(peak - spec.target_force) / spec.target_force

    violations: List[Tuple[str, float]] = []

    # beam-root bending screen: transverse end load F_o over half the length
    end_load_scale = (4.0 * spec.material.youngs_modulus_E
                      * geom.second_moment / geom.length_L ** 2)
    moment = np.abs(curve.f_o) * end_load_scale * geom.length_L / 2.0
    stress = float(np.max(6.0 * moment / (geom.width_W * geom.thickness_T ** 2)))
    if stress > spec.stress_limit:
        violations.append(("stress", stress - spec.stress_limit))

    footprint = (2.0 * geom.length_L * math.cos(geom.tilt_theta)
                 + spec.fixture_allowance)
    if footprint > spec.length_budget:
        violations.append(("length", footprint - spec.length_budget))

    if spec.require_non_bistable_at_travel:
        d1, satisfied = bistability_margin(geom, spec.target_travel)
        if satisfied:
            violations.append(("bistable_at_travel", d1))

    return Candidate(geometry=geom, n_beams=n_beams, objective=objective,
                     violations=tuple(violations), peak_force=peak)


def _grid_axis(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1 or lo == hi:
        return np.array([(lo + hi) / 2.0]) if count == 1 else np.array([lo])
    return np.linspace(lo, hi, count)


def grid_search(spec: DesignSpec, grid_density: Dict[str, int],
                cap: int = DEFAULT_GRID_CAP,
                n_workers: int = 1) -> List[Candidate]:
    """Exhaustively evaluate a Cartesian grid and rank the candidates.

    Feasible candidates rank by objective, then infeasible ones by total
    violation; equal keys are ordered lexicographically on
    (L, T, theta, W, n_beams), so the ranking is a deterministic total order
    regardless of worker count.
    """
    axes = {}
    for name in PARAM_NAMES:
        lo, hi = spec.bounds[name]
        count = int(grid_density.get(name, 1))
        if count < 1:
            raise ValidationError("grid density must be at least 1")
        if name == "n_beams":
            raw = np.linspace(lo, hi, count) if count > 1 else [lo]
            levels = sorted({int(round(v)) for v in raw})
            axes[name] = [n for n in levels if lo - 1e-9 <= n <= hi + 1e-9]
        else:
            axes[name] = list(_grid_axis(lo, hi, count))

    total = math.prod(len(vals) for vals in axes.values())
    if total > cap:
        raise ValidationError(
            f"grid holds {total} points, above the cap of {cap}; "
            f"raise cap to at least {total} or thin the grid")

    points = list(product(*(axes[name] for name in PARAM_NAMES)))

    def run(point):
        L, T, W, th, n = point
        geom = VBeamGeometry(L, T, W, th)
        return evaluate_candidate(spec, geom, int(n))

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            candidates = list(pool.map(run, points))
    else:
        candidates = [run(p) for p in points]

    return sorted(candidates, key=Candidate.sort_key)


def refine(spec: DesignSpec, start: Candidate,
           max_evals: int = 200) -> Candidate:
    """Pattern search around a candidate; never returns a worse one.

    Continuous parameters are polled one at a time in the fixed order
    (L, T, W, theta) with step halving on a failed full poll; the beam count
    is polled to its integer neighbors.  Exhausting max_evals returns the
    best point found so far flagged as exhausted.
    """
    _within_bounds(spec, start.geometry, start.n_beams)
    best = start
    evals = 0

    steps = {name: (spec.bounds[name][1] - spec.bounds[name][0]) / 8.0
             for name in ("length_L", "thickness_T", "width_W", "tilt_theta")}

    def values_of(c: Candidate):
        g = c.geometry
        return {"length_L": g.length_L, "thickness_T": g.thickness_T,
                "width_W": g.width_W, "tilt_theta": g.tilt_theta,
                "n_beams": c.n_beams}

    def try_point(vals) -> Optional[Candidate]:
        nonlocal evals
        if evals >= max_evals:
            return None
        for name in PARAM_NAMES:
            lo, hi = spec.bounds[name]
            if not (lo - 1e-12 <= vals[name] <= hi + 1e-12):
                return None
        evals += 1
        geom = VBeamGeometry(vals["length_L"], vals["thickness_T"],
                             vals["width_W"], vals["tilt_theta"])
        return evaluate_candidate(spec, geom, int(vals["n_beams"]))

    min_step = {name: max((spec.bounds[name][1] - spec.bounds[name][0]) * 1e-4,
                          1e-12)
                for name in steps}

    while evals < max_evals:
        improved = False
        for name in PARAM_NAMES:
            center = values_of(best)
            deltas = ((-1, 1) if name == "n_beams"
                      else (-steps[name], steps[name]))
            if name != "n_beams" and steps[name] <= 0:
                continue
            for delta in deltas:
                trial = dict(center)
                trial[name] = center[name] + delta
                cand = try_point(trial)
                if cand is not None and cand.sort_key() < best.sort_key():
                    best = cand
                    improved = True
        if not improved:
            live = False
            for name in steps:
                steps[name] /= 2.0
                if steps[name] >= min_step[name]:
                    live = True
            if not live:
                return best
    return Candidate(best.geometry, best.n_beams, best.objective,
                     best.violations, best.peak_force, exhausted=True)


def write_candidates_csv(candidates: Sequence[Candidate], destination) -> None:
    """Ranked CSV dump with the documented header."""
    lines = [CANDIDATES_CSV_HEADER]
    for rank, c in enumerate(candidates, start=1):
        g = c.geometry
        violations = ";".join(f"{name}={mag:.9g}" for name, mag in c.violations)
        lines.append(
            f"{rank},{g.length_L:.9g},{g.thickness_T:.9g},{g.width_W:.9g},"
            f"{math.degrees(g.tilt_theta):.9g},{c.n_beams},"
            f"{c.peak_force:.9g},{c.objective:.9g},{violations}")
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
