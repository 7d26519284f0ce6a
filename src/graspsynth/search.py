"""Derivative-free search for V-beam geometry meeting force/travel targets.

Candidates are scored by how closely the aggregate peak ring force over the
target travel matches the target force, subject to a screening stress bound,
a device length budget and optionally a non-bistability requirement at full
travel.  The stress screen estimates the beam-root bending stress from the
closed-form end loads (moment of the transverse end load times half the
length); final designs should be re-checked with the frame solver.

A design point is one tuple in PARAM_NAMES order, (L, T, W, theta,
n_beams), and one predicate checks it against the bounds with the absolute
slack BOUNDS_TOL.  The spec refuses an n_beams lower bound below 1, so every
in-bounds beam count is at least 1.  A grid_density entry that is missing
means DEFAULT_GRID_DENSITY levels.

The closed-form curve does not depend on the beam count, so a geometry is
evaluated once for all its beam counts: the grid runs its distinct
geometries through the load kernel in blocks, one pass per block, and refine
remembers the geometries it has evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._csv import NUMBER, write_csv
from .beam import (DEFAULT_CURVE_SAMPLES, MaterialModel, VBeamGeometry,
                   _force_rows, bistability_margin)
from .errors import ValidationError
from .mechanism import halved_ring_force

PARAM_NAMES = ("length_L", "thickness_T", "width_W", "tilt_theta", "n_beams")

CANDIDATES_CSV_HEADER = ("rank,L_mm,T_mm,W_mm,theta_deg,n_beams,"
                         "peak_force_N,objective,violations")

# Largest grid grid_search evaluates.
GRID_CAP = 1_000_000

# Grid levels of a parameter missing from grid_density, and refine's
# evaluation budget.
DEFAULT_GRID_DENSITY = 5
DEFAULT_REFINE_EVALS = 200

# Absolute slack of the bounds check.  refine polls at sums of halved steps,
# which land on a bound only up to rounding; the slack decides which of
# those polls are evaluated, and so refine's visit order.
BOUNDS_TOL = 1e-12

# Geometry x travel samples per load-kernel pass of the grid.  The blocks
# bound the arrays a pass allocates: one pass over a whole 81-geometry grid
# of 500-sample curves raised the peak RSS of a design run by ~2.5 MB (6 %);
# blocks of 16 geometries left it unchanged, at the same speed.
BLOCK_SAMPLES = 8192

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
        if self.bounds["n_beams"][0] < 1:
            raise ValidationError("n_beams bounds must start at 1 or above")


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
    def point(self) -> Tuple[float, float, float, float, int]:
        """The design point in PARAM_NAMES order."""
        g = self.geometry
        return (g.length_L, g.thickness_T, g.width_W, g.tilt_theta,
                self.n_beams)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def sort_key(self):
        L, T, W, theta, n_beams = self.point
        if self.feasible:
            return (0, self.objective, 0.0, L, T, theta, W, n_beams)
        total = sum(m for _, m in self.violations)
        return (1, total, self.objective, L, T, theta, W, n_beams)


def _in_bounds(spec: DesignSpec, name: str, value: float) -> bool:
    lo, hi = spec.bounds[name]
    return lo - BOUNDS_TOL <= value <= hi + BOUNDS_TOL


def _screen(spec: DesignSpec, geoms: Sequence[VBeamGeometry]
            ) -> List[Tuple[float, float]]:
    """(peak double-beam force, peak root stress) of each geometry.

    The geometries go through the load kernel in blocks of at most
    BLOCK_SAMPLES samples, one pass per block.  The stress is the beam-root
    bending screen: the transverse end load F_o over half the length.
    """
    mat, n = spec.material, spec.sweep_samples
    per_block = max(1, BLOCK_SAMPLES // n)
    screened = []
    for i in range(0, len(geoms), per_block):
        block = geoms[i:i + per_block]
        _, force, f_o, _, _ = _force_rows(block, mat, spec.target_travel, n)
        end_load_scale, length, section = np.array(
            [(4.0 * mat.youngs_modulus_E * g.second_moment / g.length_L ** 2,
              g.length_L, g.width_W * g.thickness_T ** 2) for g in block]
        ).T[:, :, None]
        moment = np.abs(f_o) * end_load_scale * length / 2.0
        stress = 6.0 * moment / section
        screened += zip(force.max(axis=1).tolist(),
                        stress.max(axis=1).tolist())
    return screened


def _candidate(spec: DesignSpec, geom: VBeamGeometry, n_beams: int,
               force_max: float, stress: float) -> Candidate:
    """Score a design point from its geometry's _screen row."""
    # the ring scaling is monotone, so it maps the curve's peak to the ring's
    peak = halved_ring_force(force_max, n_beams)
    objective = abs(peak - spec.target_force) / spec.target_force

    violations: List[Tuple[str, float]] = []
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


def _check_bounds(spec: DesignSpec, point) -> None:
    for name, v in zip(PARAM_NAMES, point):
        if not _in_bounds(spec, name, v):
            lo, hi = spec.bounds[name]
            raise ValidationError(
                f"{name}={v:g} lies outside the search bounds [{lo:g}, {hi:g}]")


def _evaluate(spec: DesignSpec, point,
              screened: Dict[VBeamGeometry, Tuple[float, float]]) -> Candidate:
    """Score an in-bounds design point; screened caches _screen rows by
    geometry."""
    geom = VBeamGeometry(*point[:4])
    if geom not in screened:
        screened[geom] = _screen(spec, [geom])[0]
    return _candidate(spec, geom, point[4], *screened[geom])


def evaluate_candidate(spec: DesignSpec, geom: VBeamGeometry,
                       n_beams: int) -> Candidate:
    """Score one design point against the spec."""
    point = (geom.length_L, geom.thickness_T, geom.width_W, geom.tilt_theta,
             n_beams)
    _check_bounds(spec, point)
    return _evaluate(spec, point, {})


def _grid_axis(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1 or lo == hi:
        return np.array([(lo + hi) / 2.0]) if count == 1 else np.array([lo])
    return np.linspace(lo, hi, count)


def grid_search(spec: DesignSpec, grid_density: Dict[str, int],
                n_workers: int = 1) -> List[Candidate]:
    """Exhaustively evaluate a Cartesian grid and rank the candidates.

    The grid's distinct geometries go through the load kernel in blocks of
    at most BLOCK_SAMPLES samples, one pass per block; each geometry's peak
    force and stress then score every beam count.  Feasible candidates rank
    by objective, then infeasible ones by total violation; equal keys are
    ordered lexicographically on (L, T, theta, W, n_beams), so the ranking
    is a deterministic total order.  A parameter missing from grid_density
    gets DEFAULT_GRID_DENSITY levels, and a grid above GRID_CAP points is
    refused before the first kernel pass.  n_workers must be at least 1 and
    has no effect: the grid is evaluated in one thread.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be at least 1")
    axes = {}
    for name in PARAM_NAMES:
        lo, hi = spec.bounds[name]
        count = int(grid_density.get(name, DEFAULT_GRID_DENSITY))
        if count < 1:
            raise ValidationError("grid density must be at least 1")
        if name == "n_beams":
            raw = np.linspace(lo, hi, count) if count > 1 else [lo]
            levels = sorted({int(round(v)) for v in raw})
            axes[name] = [n for n in levels if _in_bounds(spec, name, n)]
        else:
            axes[name] = list(_grid_axis(lo, hi, count))

    total = math.prod(len(vals) for vals in axes.values())
    if total > GRID_CAP:
        raise ValidationError(
            f"grid holds {total} points, above the cap of {GRID_CAP}; "
            f"thin the grid")
    if total == 0:
        return []

    # grid values lie inside the bounds by construction
    geoms = [VBeamGeometry(*dims)
             for dims in product(*(axes[name] for name in PARAM_NAMES[:4]))]
    levels = axes["n_beams"]
    candidates = [_candidate(spec, geom, n, *row)
                  for geom, row in zip(geoms, _screen(spec, geoms))
                  for n in levels]
    return sorted(candidates, key=Candidate.sort_key)


def refine(spec: DesignSpec, start: Candidate,
           max_evals: int = DEFAULT_REFINE_EVALS) -> Candidate:
    """Pattern search around a candidate; never returns a worse one.

    Continuous parameters are polled one at a time in the fixed order
    (L, T, W, theta) with step halving on a failed full poll; the beam count
    is polled to its integer neighbors.  A poll outside the bounds is
    skipped and not counted; every other poll counts against max_evals,
    but a geometry is screened once per call, whatever its beam counts.
    Exhausting max_evals returns the best point found so far flagged as
    exhausted.
    """
    _check_bounds(spec, start.point)
    spans = [spec.bounds[name][1] - spec.bounds[name][0]
             for name in PARAM_NAMES[:4]]
    steps = [span / 8.0 for span in spans]
    min_steps = [max(span * 1e-4, 1e-12) for span in spans]
    best, evals = start, 0
    screened: Dict[VBeamGeometry, Tuple[float, float]] = {}

    while evals < max_evals:
        improved = False
        # the beam count always steps by one
        for i, step in enumerate((*steps, 1)):
            if step <= 0:
                continue
            center = best.point
            for delta in (-step, step):
                trial = (*center[:i], center[i] + delta, *center[i + 1:])
                if evals < max_evals and all(
                        _in_bounds(spec, name, v)
                        for name, v in zip(PARAM_NAMES, trial)):
                    evals += 1
                    cand = _evaluate(spec, trial, screened)
                    if cand.sort_key() < best.sort_key():
                        best, improved = cand, True
        if not improved:
            steps = [step / 2.0 for step in steps]
            if all(step < low for step, low in zip(steps, min_steps)):
                return best
    return replace(best, exhausted=True)


def write_candidates_csv(candidates: Sequence[Candidate], destination) -> None:
    """Ranked CSV dump with the documented header."""
    write_csv(destination, CANDIDATES_CSV_HEADER, (
        (rank, *c.point[:3], math.degrees(c.point[3]), c.n_beams,
         c.peak_force, c.objective,
         ";".join(f"{name}={NUMBER.format(mag)}" for name, mag in c.violations))
        for rank, c in enumerate(candidates, start=1)))
