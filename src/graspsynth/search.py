"""Derivative-free search for V-beam geometry meeting force/travel targets.

Candidates are scored by how closely the aggregate peak ring force over the
target travel matches the target force, subject to a screening stress bound,
a device length budget and optionally a non-bistability requirement at full
travel.  The stress screen estimates the beam-root bending stress from the
closed-form end loads (moment of the transverse end load times half the
length); final designs should be re-checked with the frame solver.

A design point is one tuple in PARAM_NAMES order, (L, T, W, theta,
n_beams), and one predicate checks it against the bounds with the absolute
slack BOUNDS_TOL.  The spec refuses an n_beams lower bound below 1 and
n_beams bounds that hold no integer, so every spec admits a beam count of
at least 1.  A grid_density entry that is missing means
DEFAULT_GRID_DENSITY levels.

Work that depends only on the beam shape is done once per shape, work that
depends only on the geometry once per geometry, and work that depends on
the point once per point.  The normalized end loads depend on the shape
(L, T, theta) and the travel, not on the width W, which scales them
through the load scale 4 E I / L^2 alone (Awtar, Slocum & Sevincer,
J. Mech. Des. 129(6), 2007).  Per shape: one load-kernel row.  Per
geometry: one record (_records), from its shape's rows at its own load
scale.  Per point: the ring peak, the objective and the ranking key.  No
row or record is kept between calls.  So the screen (_screen) takes shapes
and widths, a shape fixes the peak force per mm of width, c, the ring peak
of n beams at width W is halved_ring_force(W c, n), and refine searches
shapes alone, solving each one's W and n by inverting that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ._csv import NUMBER, write_csv
from .beam import (DEFAULT_CURVE_SAMPLES, MaterialModel, VBeamGeometry,
                   _force, _kernel_pass, _load_column, _load_scale,
                   bistability_margin, uniform_travels)
from .errors import ValidationError, check_count, check_positive
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

# Absolute slack of the bounds check.  refine polls shapes at sums of halved
# steps, which land on a bound only up to rounding; the slack decides which
# of those polls are evaluated, and so refine's visit order.
BOUNDS_TOL = 1e-12

# Beam shapes per load-kernel pass of the screen.  The blocks bound the
# arrays a pass allocates: one pass over a whole 81-geometry grid of
# 500-sample curves raised the peak RSS of a design run by ~2.5 MB (6 %);
# blocks of 16 rows left it unchanged, at the same speed.
BLOCK_SHAPES = 16

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

    def __post_init__(self):
        check_positive("target_force", self.target_force)
        check_positive("target_travel", self.target_travel)
        for name in ("stress_limit", "length_budget", "fixture_allowance"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in PARAM_NAMES:
            if name not in self.bounds:
                raise ValidationError(f"bounds must include {name}")
            lo, hi = self.bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"bounds for {name} must be finite")
            if not lo <= hi:
                raise ValidationError(f"bounds for {name} must be ordered")
        n_lo, n_hi = self.bounds["n_beams"]
        if n_lo < 1:
            raise ValidationError("n_beams bounds must start at 1 or above")
        if math.ceil(n_lo) > math.floor(n_hi):
            raise ValidationError("n_beams bounds must hold an integer")
        # every in-bounds geometry builds, with a finite load scale, if these
        # corners do: the lows, the largest T and W on the lowest L (the
        # largest W T^3 and load scale), the largest L, and both tilt limits
        (L_lo, L_hi), (T_lo, T_hi), (W_lo, W_hi), (th_lo, th_hi) = (
            self.bounds[name] for name in PARAM_NAMES[:4])
        try:
            VBeamGeometry(L_lo, T_lo, W_lo, th_lo)
            _load_column([VBeamGeometry(L_lo, T_hi, W_hi, th_hi)],
                         self.material)
            VBeamGeometry(L_hi, T_hi, W_hi, th_hi)
        except ValidationError as exc:
            raise ValidationError(
                f"bounds hold a geometry that cannot be built: {exc}") from exc


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


Record = Tuple[VBeamGeometry, float, Tuple[Tuple[str, float], ...]]
Shape = Tuple[float, float, float]


class _ShapeRows(NamedTuple):
    """One beam shape's kernel rows at the spec's travels: the normalized
    loads f_o and p_o, the tilt's cos and sin, and the peak |f_o|."""

    f_o: np.ndarray
    p_o: np.ndarray
    cos: float
    sin: float
    peak: float


def _shape_rows(spec: DesignSpec,
                geoms: Sequence[VBeamGeometry]) -> List[_ShapeRows]:
    """The _ShapeRows of the geometries' shapes from one kernel pass over
    DEFAULT_CURVE_SAMPLES travels."""
    cols, f_o, p_o, _ = _kernel_pass(
        geoms, uniform_travels(spec.target_travel, DEFAULT_CURVE_SAMPLES))
    return list(map(_ShapeRows, f_o, p_o, cols.cos[:, 0].tolist(),
                    cols.sin[:, 0].tolist(),
                    np.abs(f_o).max(axis=1).tolist()))


def _positive_force(force: float) -> float:
    """force, refused if it is not positive.  Rounding keeps a force's sign,
    so a negative peak is real: the force is negative at every sample.  A
    peak of 0 has underflowed its load scale."""
    if force < 0.0:
        raise ValidationError(
            f"the force is negative at every sampled travel (peak {force:.6g}"
            f" N): the target travel is too long for a beam in the bounds")
    if not force > 0.0:
        raise ValidationError(
            "the force underflows at the load scale 4 E I / L^2: the beam's "
            "width, thickness or Young's modulus is too small for its length")
    return force


def _records(spec: DesignSpec, rows: _ShapeRows,
             geoms: Sequence[VBeamGeometry]) -> List[Record]:
    """The (geometry, peak double-beam force, violations) record of each
    of one shape's geometries, from the shape's rows at each geometry's
    load scale: the force as one (geometries, samples) array of _force, and
    the stress, the beam-root bending screen, as the transverse end load
    F_o over half the length, from the shape's peak |f_o|.  Each step from
    |f_o| to the stress multiplies or divides by a positive per-geometry
    constant, which IEEE rounding keeps monotone, so each record equals a
    one-geometry pass's bit for bit.  A force that overflows (_force) and
    a peak force at or below 0 (_positive_force) are refused."""
    f_o, p_o, cos, sin, peak = rows
    loads = [_load_scale(g, spec.material) for g in geoms]
    forces = _force(np.array(loads)[:, None], f_o, p_o, cos, sin)
    records = []
    for g, load, force in zip(geoms, loads, forces.max(axis=1).tolist()):
        force = _positive_force(force)
        moment = peak * load * g.length_L / 2.0
        stress = float(6.0 * moment / (g.width_W * g.thickness_T ** 2))
        records.append((g, force, _violations(spec, g, stress)))
    return records


def _screen(spec: DesignSpec, shapes: Sequence[Shape],
            widths: Sequence[float]) -> List[Record]:
    """The records of the distinct shapes (L, T, theta) at each of the
    distinct widths, shape-major.

    The shapes are screened in blocks of BLOCK_SHAPES: a block builds each
    of its geometries once, passes one geometry per shape through one
    kernel pass, and derives the records from the rows (_records), whose
    one _force call per shape refuses a force that overflows.  A block that
    fails raises; nothing outlives the call.
    """
    records: List[Record] = []
    for i in range(0, len(shapes), BLOCK_SHAPES):
        block = [[VBeamGeometry(L, T, W, theta) for W in widths]
                 for L, T, theta in shapes[i:i + BLOCK_SHAPES]]
        rows = _shape_rows(spec, [geoms[0] for geoms in block])
        for r, geoms in zip(rows, block):
            records += _records(spec, r, geoms)
    return records


def _violations(spec: DesignSpec, geom: VBeamGeometry,
                stress: float) -> Tuple[Tuple[str, float], ...]:
    """The constraint violations of a geometry whose peak root stress is
    stress; none depends on the beam count."""
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
    return tuple(violations)


def _candidate(spec: DesignSpec, record: Record, n_beams: int) -> Candidate:
    """Score a design point from its geometry's _screen record."""
    geom, force_max, violations = record
    # the ring scaling is monotone, so it maps the curve's peak to the ring's
    peak = halved_ring_force(force_max, n_beams)
    objective = abs(peak - spec.target_force) / spec.target_force
    return Candidate(geometry=geom, n_beams=n_beams, objective=objective,
                     violations=violations, peak_force=peak)


def _require_in_bounds(spec: DesignSpec, point) -> None:
    for name, v in zip(PARAM_NAMES, point):
        if not _in_bounds(spec, name, v):
            lo, hi = spec.bounds[name]
            raise ValidationError(
                f"{name}={v:g} lies outside the search bounds [{lo:g}, {hi:g}]")


def evaluate_candidate(spec: DesignSpec, geom: VBeamGeometry,
                       n_beams: int) -> Candidate:
    """Score one design point against the spec; n_beams must be an
    integer."""
    check_count("n_beams", n_beams, 1)
    point = (geom.length_L, geom.thickness_T, geom.width_W, geom.tilt_theta,
             n_beams)
    _require_in_bounds(spec, point)
    [record] = _screen(spec, [(geom.length_L, geom.thickness_T,
                               geom.tilt_theta)], [geom.width_W])
    return _candidate(spec, record, n_beams)


def grid_search(spec: DesignSpec, grid_density: Dict[str, int],
                n_workers: int = 1) -> List[Candidate]:
    """Exhaustively evaluate a Cartesian grid and rank the candidates.

    The grid's shapes (L, T, theta) go through the load kernel in blocks of
    BLOCK_SHAPES, one pass per block; each geometry's peak force and
    stress, at its width's load scale, then score every beam count.
    Feasible candidates rank by objective, then infeasible ones by total
    violation; equal keys are ordered lexicographically on (L, T, theta, W,
    n_beams), so the ranking is a deterministic total order, whatever the
    order the candidates are built in.  Levels that round to one value count
    once, so the candidates are distinct design points.  A parameter
    missing from grid_density gets DEFAULT_GRID_DENSITY levels; a key
    outside PARAM_NAMES and a density that is not an integer from 1 to
    GRID_CAP are refused before any axis is built, and a grid above GRID_CAP
    points before the first kernel pass.
    n_workers must be an integer of at least 1 and has no effect: the grid
    is evaluated in one thread.
    """
    check_count("n_workers", n_workers, 1)
    unknown = sorted(set(grid_density) - set(PARAM_NAMES), key=str)
    if unknown:
        raise ValidationError(
            f"grid density names unknown parameter(s) "
            f"{', '.join(map(repr, unknown))}; expected {PARAM_NAMES}")
    counts = {name: grid_density.get(name, DEFAULT_GRID_DENSITY)
              for name in PARAM_NAMES}
    for count in counts.values():
        check_count("grid density", count, 1, GRID_CAP)
    axes = {}
    for name, count in counts.items():
        lo, hi = spec.bounds[name]
        if name == "n_beams":
            raw = np.linspace(lo, hi, count) if count > 1 else [lo]
            n_lo, n_hi = math.ceil(lo), math.floor(hi)
            axes[name] = sorted({min(max(int(round(v)), n_lo), n_hi)
                                 for v in raw})
        else:
            levels = (np.linspace(lo, hi, count) if count > 1
                      else np.array([(lo + hi) / 2.0]))
            # levels closer than the float spacing round together: keep one
            axes[name] = list(dict.fromkeys(levels))

    total = math.prod(len(vals) for vals in axes.values())
    if total > GRID_CAP:
        raise ValidationError(
            f"grid holds {total} points, above the cap of {GRID_CAP}; "
            f"thin the grid")

    # grid values lie inside the bounds by construction
    records = _screen(spec, list(product(
        axes["length_L"], axes["thickness_T"], axes["tilt_theta"])),
        axes["width_W"])
    return sorted((_candidate(spec, record, n) for record in records
                   for n in axes["n_beams"]), key=Candidate.sort_key)


def refine(spec: DesignSpec, start: Candidate,
           max_evals: int = DEFAULT_REFINE_EVALS) -> Candidate:
    """Pattern search over beam shapes around a candidate; never returns a
    worse one.

    The start's shape is scored first, then the best point's shape
    (L, T, theta) is polled one coordinate at a time, -/+ its step, with
    step halving on a failed full sweep; a poll outside the bounds is
    skipped.  Each poll scored is one evaluation against max_evals and one
    kernel pass, at the start's width; nothing is kept between polls.  The
    pass's peak force per mm of width, c, gives the width at which n beams
    meet the target, W*(n) = target / halved_ring_force(c, n), clamped to
    the width bounds.  The floor and ceiling of each end of the unclamped
    range, target / halved_ring_force(W c, 1) at W_hi and at W_lo, clipped
    to the n_beams bounds, are scored at W* from the pass's rows; the best
    by sort_key is the shape's candidate.  refine returns once a shape is
    feasible at an unclamped W*, where the target is met to rounding, and
    flags the best so far exhausted when max_evals runs out.  The start
    must lie inside the bounds, and max_evals be an integer of at least 0.
    """
    check_count("max_evals", max_evals, 0)
    _require_in_bounds(spec, start.point)
    target, width = spec.target_force, start.geometry.width_W
    W_lo, W_hi = map(float, spec.bounds["width_W"])
    n_lo, n_hi = spec.bounds["n_beams"]
    n_lo, n_hi = math.ceil(n_lo), math.floor(n_hi)

    def over(force):
        """target / force: inf where it overflows or force is 0."""
        return target / force if force else math.inf

    def score(shape):
        """The shape's best candidate; is it feasible at an unclamped W*?"""
        L, T, theta = shape
        geom = VBeamGeometry(L, T, width, theta)
        [rows] = _shape_rows(spec, [geom])
        # c from the start width's record, in Python floats
        c = _records(spec, rows, [geom])[0][1] / float(width)
        _positive_force(W_lo * c)
        # below the range W* clamps to W_hi and the ring peak rises with n,
        # above it W* clamps to W_lo: the nearest count on each side is best
        ends = (min(max(over(halved_ring_force(W * c, 1)), n_lo), n_hi)
                for W in (W_hi, W_lo))
        counts = sorted({f(n) for n in ends for f in (math.floor, math.ceil)})
        widths = [over(halved_ring_force(c, n)) for n in counts]
        geoms = [VBeamGeometry(L, T, min(max(W, W_lo), W_hi), theta)
                 for W in widths]
        cands = [_candidate(spec, r, n)
                 for r, n in zip(_records(spec, rows, geoms), counts)]
        exact = any(cand.feasible and W_lo <= W <= W_hi
                    for cand, W in zip(cands, widths))
        return min(cands, key=Candidate.sort_key), exact

    def shape(cand):
        L, T, _, theta, _ = cand.point
        return L, T, theta

    def polls():
        """The shapes to score, around the best point as refine moves it;
        a poll moves one coordinate of an in-bounds center, so only that
        coordinate is checked."""
        yield shape(best)
        names = ("length_L", "thickness_T", "tilt_theta")
        spans = [spec.bounds[name][1] - spec.bounds[name][0] for name in names]
        steps = [span / 8.0 for span in spans]
        min_steps = [max(span * 1e-4, 1e-12) for span in spans]
        while True:
            before = best
            for i, step in enumerate(steps):
                center = shape(best)
                for v in (center[i] - step, center[i] + step) if step else ():
                    if _in_bounds(spec, names[i], v):
                        yield (*center[:i], v, *center[i + 1:])
            if best is before:
                steps = [step / 2.0 for step in steps]
                if all(step < low for step, low in zip(steps, min_steps)):
                    return

    best = start
    for evals, trial in enumerate(polls()):
        if evals == max_evals:
            return replace(best, exhausted=True)
        cand, exact = score(trial)
        best = min(best, cand, key=Candidate.sort_key)
        if exact:
            return best
    return best


def write_candidates_csv(candidates: Sequence[Candidate], destination) -> None:
    """Ranked CSV dump with the documented header."""
    write_csv(destination, CANDIDATES_CSV_HEADER, (
        (rank, *c.point[:3], math.degrees(c.point[3]), c.n_beams,
         c.peak_force, c.objective,
         ";".join(f"{name}={NUMBER % mag}" for name, mag in c.violations))
        for rank, c in enumerate(candidates, start=1)))
