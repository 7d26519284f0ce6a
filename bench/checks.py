"""Output checks, one per workload; each raises CheckFailure on a bad output.

The checks read what a user gets back (CSV text, returned objects) and the
inputs, never the program's internals, and return the operation's work
units. They run outside the timed region. Headers are copied from README,
which makes them a contract of their own.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DESIGN_HEADER = ("rank,L_mm,T_mm,W_mm,theta_deg,n_beams,peak_force_N,"
                 "objective,violations")
GRASPER_HEADER = ("ring_disp_mm,ring_force_N,shuttle_disp_mm,jaw_opening_mm,"
                  "latch_phase,jaw_root_stress_MPa")

# Scalar actuation_force against force_curve on the same geometry: two code
# paths of one model (agreement seen in probes: 1.7e-15).
PATH_AGREEMENT = 1e-9
# CSV peak against the re-derived peak: the CSV prints five inputs and the
# peak with 9 significant digits (5e-9 relative each).
CSV_ROUNDING = 1e-7
# Work done along the frame-solver path against its stored strain energy
# (seed probes: <= 9.4e-4).
ENERGY_AGREEMENT = 1e-2
# Ring reaction against ks * (ring - shuttle) from the series spring.
SPRING_BALANCE = 1e-6
# Keys compared with this relative slack when checking the CSV order.
ORDER_SLACK = 1e-8
# Force samples per design evaluation (DesignSpec default, not in configs).
DESIGN_SAMPLES = 500


class CheckFailure(Exception):
    """An operation's output is wrong; the message says how."""


def _rows(csv_text: str, header: str):
    lines = csv_text.split("\n")
    if not csv_text.endswith("\n") or lines[-1] != "":
        raise CheckFailure("CSV does not end with a single LF")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        raise CheckFailure(f"header {lines[0] if lines else ''!r} != {header!r}")
    n_cols = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows, start=1):
        if len(row) != n_cols:
            raise CheckFailure(f"row {i} has {len(row)} fields, not {n_cols}")
    return rows


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailure(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailure(f"{what} is {text}")
    return value


def _in_order(a, b) -> bool:
    """a <= b for sort keys, comparing numbers with ORDER_SLACK."""
    for x, y in zip(a, b):
        tol = ORDER_SLACK * max(1.0, abs(x), abs(y))
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return True


def _sort_key(row):
    """Candidate.sort_key rebuilt from a CSV row (theta in degrees)."""
    L, T, W, th, n, _, objective = (_finite(v, "candidate value")
                                    for v in row[1:8])
    if not row[8]:
        return (0.0, objective, 0.0, L, T, th, W, n)
    total = 0.0
    for item in row[8].split(";"):
        name, _, mag = item.partition("=")
        total += _finite(mag, f"violation {name}")
    return (1.0, total, objective, L, T, th, W, n)


def design_grid(design_doc: dict):
    """The grid points of a design block as CSV fields (L, T, W, theta, n).

    Axes follow the documented grid: evenly spaced from low to high bound,
    tilt spaced in radians, beam counts rounded to distinct integers.
    """
    b, density = design_doc["bounds"], design_doc["grid_density"]

    def axis(key, convert=float):
        lo, hi = (convert(v) for v in b[key])
        return np.linspace(lo, hi, density[key])

    levels = sorted({int(round(v)) for v in axis("n_beams")})
    return [tuple(f"{v:.9g}" for v in (L, T, W, math.degrees(th))) + (str(n),)
            for L, T, W, th, n in itertools.product(
                axis("length_L"), axis("thickness_T"), axis("width_W"),
                axis("tilt_theta_deg", math.radians), levels)]


def check_design(csv_text: str, design_doc: dict, youngs_modulus: float,
                 gs) -> int:
    """Ranked design CSV: order, grid coverage, and the top row's peak force.

    ``gs`` is the graspsynth package, used for the scalar re-derivation.
    Returns the number of ranked rows.
    """
    rows = _rows(csv_text, DESIGN_HEADER)
    grid = design_grid(design_doc)
    if not len(grid) <= len(rows) <= len(grid) + 1:
        raise CheckFailure(
            f"{len(rows)} ranked rows for a {len(grid)}-point grid")
    missing = set(grid) - {tuple(row[1:6]) for row in rows}
    if missing:
        raise CheckFailure(f"{len(missing)} grid points are not ranked, "
                           f"e.g. {sorted(missing)[0]}")
    keys = [_sort_key(row) for row in rows]
    for i, row in enumerate(rows, start=1):
        if row[0] != str(i):
            raise CheckFailure(f"row {i} carries rank {row[0]}")
    for i in range(1, len(keys)):
        if not _in_order(keys[i - 1], keys[i]):
            raise CheckFailure(f"rows {i} and {i + 1} are not in sort_key order")

    top = rows[0]
    L, T, W, th = (float(v) for v in top[1:5])
    n_beams = int(top[5])
    geom = gs.VBeamGeometry.from_degrees(L, T, W, th)
    mat = gs.MaterialModel(youngs_modulus_E=youngs_modulus)
    travel = float(design_doc["target_travel"])
    scalar = max(gs.actuation_force(geom, mat, travel * i / DESIGN_SAMPLES)
                 for i in range(1, DESIGN_SAMPLES + 1)) / 2.0 * n_beams
    curve = gs.force_curve(geom, mat, travel, DESIGN_SAMPLES)
    swept = float(max(curve.force)) / 2.0 * n_beams
    if abs(scalar - swept) > PATH_AGREEMENT * abs(scalar):
        raise CheckFailure(f"top row: scalar peak {scalar!r} and force_curve "
                           f"peak {swept!r} disagree")
    reported = _finite(top[6], "top peak_force_N")
    if abs(reported - scalar) > CSV_ROUNDING * abs(scalar):
        raise CheckFailure(f"top row peak_force_N {reported!r} but "
                           f"re-derived {scalar!r}")
    return len(rows)


def check_grasper(csv_text: str, n_samples: int, latch_travel: float) -> int:
    """Grasper CSV: finite values, monotone jaw, latch phase. Returns rows."""
    rows = _rows(csv_text, GRASPER_HEADER)
    if len(rows) != n_samples:
        raise CheckFailure(f"{len(rows)} rows, expected {n_samples}")
    prev_ring, prev_jaw = 0.0, 0.0
    for i, row in enumerate(rows, start=1):
        ring, _, _, jaw = (_finite(v, f"row {i} value") for v in row[:4])
        _finite(row[5], f"row {i} stress")
        if not ring > prev_ring:
            raise CheckFailure(f"row {i}: ring travel does not increase")
        if jaw < prev_jaw:
            raise CheckFailure(f"row {i}: jaw opening decreases")
        phase = "StressedLatched" if ring >= latch_travel else "Unstressed"
        if row[4] != phase:
            raise CheckFailure(f"row {i}: latch phase {row[4]} at ring "
                               f"{ring} mm, expected {phase}")
        prev_ring, prev_jaw = ring, jaw
    return len(rows)


def check_verify(result: dict, tolerance: float, ks: float,
                 assembly_steps: int) -> int:
    """Oracle comparison: converged path, energy balance, finite comparisons.

    ``result`` holds the returned sweep ``path``, the ``halved`` and
    ``unhalved`` comparisons and the assembly's ``ring``, ``shuttle`` and
    ``reaction``. Returns the converged load steps (sweep plus assembly).
    """
    steps = result["path"].steps
    if not steps:
        raise CheckFailure("frame-solver path is empty")
    for i, step in enumerate(steps):
        if not step.residual < tolerance:
            raise CheckFailure(f"step {i} residual {step.residual!r} is not "
                               f"below {tolerance!r}")
    controls = [0.0] + [s.control for s in steps]
    reactions = [0.0] + [s.reaction for s in steps]
    work = sum(0.5 * (reactions[i] + reactions[i - 1])
               * (controls[i] - controls[i - 1])
               for i in range(1, len(controls)))
    stored = steps[-1].strain_energy
    if not abs(work - stored) <= ENERGY_AGREEMENT * abs(stored):
        raise CheckFailure(f"path work {work!r} != strain energy {stored!r}")
    for name in ("halved", "unhalved"):
        cmp_ = result[name]
        values = (cmp_.rms_rel, cmp_.max_rel, cmp_.peak_force_rel_diff,
                  cmp_.peak_location_diff)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailure(f"{name} comparison is not finite: {cmp_}")
    ring, shuttle, reaction = result["ring"], result["shuttle"], result["reaction"]
    if not (math.isfinite(shuttle) and math.isfinite(reaction)):
        raise CheckFailure("assembly result is not finite")
    spring = ks * (ring - shuttle)
    if abs(reaction - spring) > SPRING_BALANCE * max(1.0, abs(spring)):
        raise CheckFailure(f"assembly reaction {reaction!r} != "
                           f"ks * (ring - shuttle) = {spring!r}")
    return len(steps) + assembly_steps
