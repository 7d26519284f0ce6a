"""Tests for the derivative-free design search."""

import math
import re
from dataclasses import astuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graspsynth.beam as beam
from graspsynth import (Candidate, DesignSpec, MaterialModel, NumericalError,
                        SingularityError, ValidationError, VBeamGeometry,
                        aggregate_ring_force, bistability_margin,
                        evaluate_candidate, force_curve, grid_search,
                        monostable_intermediates, normalize_deflection,
                        parse_config, peak_force, refine,
                        solve_monostable_cubic, write_candidates_csv)
from graspsynth import search
from graspsynth.beam import DEFAULT_CURVE_SAMPLES
from graspsynth.mechanism import halved_ring_force

from common import GEOM as TABLE1, MAT, count_force_checks, count_travel_checks

DEMOS = Path(__file__).resolve().parent.parent / "demos"

BOUNDS = {
    "length_L": (36.0, 44.0),
    "thickness_T": (1.0, 1.4),
    "width_W": (4.0, 6.0),
    "tilt_theta": (math.radians(5.0), math.radians(9.0)),
    "n_beams": (11, 13),
}

DENSITY = {"length_L": 3, "thickness_T": 3, "width_W": 3,
           "tilt_theta": 3, "n_beams": 3}


def make_spec(**overrides):
    base = dict(target_force=21.6, target_travel=5.0, bounds=dict(BOUNDS),
                material=MAT, stress_limit=120.0, length_budget=200.0)
    base.update(overrides)
    return DesignSpec(**base)


def table1_peak() -> float:
    ring = aggregate_ring_force(force_curve(TABLE1, MAT, 5.0, 500), 12)
    return peak_force(ring)[1]


def reference_screen(spec, geom):
    """The geometry's double-beam curve and its peak root stress."""
    curve = force_curve(geom, spec.material, spec.target_travel,
                        DEFAULT_CURVE_SAMPLES)
    end_load_scale = (4.0 * spec.material.youngs_modulus_E
                      * geom.second_moment / geom.length_L ** 2)
    moment = np.abs(curve.f_o) * end_load_scale * geom.length_L / 2.0
    section = geom.width_W * geom.thickness_T ** 2
    return curve, float(np.max(6.0 * moment / section))


def reference_violations(spec, geom, stress):
    """The constraint violations of a geometry with this peak root stress."""
    violations = []
    if stress > spec.stress_limit:
        violations.append(("stress", stress - spec.stress_limit))
    footprint = 2.0 * geom.length_L * math.cos(geom.tilt_theta)
    if footprint > spec.length_budget:
        violations.append(("length", footprint - spec.length_budget))
    if spec.require_non_bistable_at_travel:
        d1, satisfied = bistability_margin(geom, spec.target_travel)
        if satisfied:
            violations.append(("bistable_at_travel", d1))
    return tuple(violations)


def reference_candidate(spec, geom, n_beams):
    """Per-point scorer: one force_curve per design point."""
    curve, stress = reference_screen(spec, geom)
    peak = float(np.max(halved_ring_force(curve.force, n_beams)))
    objective = abs(peak - spec.target_force) / spec.target_force
    return Candidate(geometry=geom, n_beams=n_beams, objective=objective,
                     violations=reference_violations(spec, geom, stress),
                     peak_force=peak)


def reference_grid(spec, density):
    """Every grid point scored on its own, in product order, then ranked."""
    axes = [np.linspace(*spec.bounds[name], density[name])
            for name in search.PARAM_NAMES[:4]]
    lo, hi = spec.bounds["n_beams"]
    levels = sorted({int(round(v)) for v in np.linspace(lo, hi,
                                                        density["n_beams"])})
    points = [reference_candidate(spec, VBeamGeometry(L, T, W, th), n)
              for L, T, W, th, n in product(*axes, levels)]
    return sorted(points, key=Candidate.sort_key)


def count_kernel_rows(monkeypatch):
    """Rows of every load-kernel pass from now on, one entry per pass."""
    kernel, rows = beam._loads, []

    def counted(cols, dys):
        out = kernel(cols, dys)
        rows.append(out[0].shape[0])
        return out

    monkeypatch.setattr(beam, "_loads", counted)
    return rows


def record_kernel_geometries(monkeypatch):
    """Geometries of every load-kernel pass from now on, one list per pass."""
    columns, passes = beam._columns, []

    def recorded(geoms):
        passes.append(list(geoms))
        return columns(geoms)

    monkeypatch.setattr(beam, "_columns", recorded)
    return passes


def shape(geom):
    """The beam shape (L, T, theta) of a geometry, which the kernel sees."""
    return geom.length_L, geom.thickness_T, geom.tilt_theta


def outcome(fn, *args):
    """fn's result, or the type of the NumericalError it raised."""
    try:
        return fn(*args)
    except NumericalError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------

def test_reference_candidate_against_reported_force():
    cand = evaluate_candidate(make_spec(), TABLE1, 12)
    assert cand.peak_force == pytest.approx(18.1, abs=0.1)
    assert cand.objective == pytest.approx(abs(18.1086 - 21.6) / 21.6, abs=2e-3)
    assert cand.feasible


def test_self_consistent_target_gives_zero_objective():
    spec = make_spec(target_force=table1_peak())
    cand = evaluate_candidate(spec, TABLE1, 12)
    assert cand.objective < 1e-12


def test_invalid_geometry_raises_not_candidate():
    # bounds that hold a geometry that cannot be built refuse the spec, so
    # no search reaches such a geometry
    for name, pair in [("thickness_T", (1.0, 40.0)),
                       ("length_L", (-1.0, 44.0)),
                       ("tilt_theta", (0.1, math.radians(95.0))),
                       ("width_W", (0.0, 6.0))]:
        with pytest.raises(ValidationError, match="cannot be built"):
            make_spec(bounds={**BOUNDS, name: pair})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, pair, named", [
    ("length_L", (36.0, 1e308), "L\\^2 and W T\\^3 must be finite"),
    ("width_W", (4.0, 1e306), "load scale 4 E I / L\\^2 overflows"),
])
def test_bounds_whose_loads_overflow_are_refused(name, pair, named):
    # only the low-length corners were built: [36, 1e308] used to be
    # searched and rank inf
    with pytest.raises(ValidationError, match=f"cannot be built: .*{named}"):
        make_spec(bounds={**BOUNDS, name: pair})


def test_out_of_bounds_rejected():
    with pytest.raises(ValidationError, match="bounds"):
        evaluate_candidate(make_spec(), VBeamGeometry(60.0, 1.2, 5.0, 0.12), 12)


def test_stress_violation_recorded():
    cand = evaluate_candidate(make_spec(stress_limit=1e-3), TABLE1, 12)
    assert not cand.feasible
    assert cand.violations[0][0] == "stress"
    assert cand.violations[0][1] > 0


def test_length_violation_recorded():
    cand = evaluate_candidate(make_spec(length_budget=50.0), TABLE1, 12)
    assert ("length" in dict(cand.violations))


def test_bistability_flag_optional():
    relaxed = evaluate_candidate(make_spec(), TABLE1, 12)
    assert relaxed.feasible
    strict = evaluate_candidate(
        make_spec(require_non_bistable_at_travel=True), TABLE1, 12)
    assert "bistable_at_travel" in dict(strict.violations)


def test_spec_validation():
    with pytest.raises(ValidationError):
        make_spec(target_force=-1.0)
    with pytest.raises(ValidationError):
        make_spec(bounds={**BOUNDS, "width_W": (6.0, 4.0)})
    with pytest.raises(ValidationError, match="n_beams"):
        DesignSpec(target_force=20, target_travel=5,
                   bounds={k: v for k, v in BOUNDS.items() if k != "n_beams"},
                   material=MAT)


@pytest.mark.parametrize("field, value", [
    ("target_force", math.inf), ("target_force", math.nan),
    ("target_travel", math.inf), ("target_travel", math.nan),
    ("stress_limit", math.nan), ("stress_limit", math.inf),
    ("length_budget", math.nan), ("length_budget", -math.inf),
    ("stress_limit", -math.inf), ("length_budget", math.inf),
    pytest.param("target_force", 10 ** 400, id="target_force-1e400"),
    pytest.param("target_travel", 10 ** 400, id="target_travel-1e400"),
    pytest.param("stress_limit", 10 ** 400, id="stress_limit-1e400"),
    pytest.param("stress_limit", -10 ** 400, id="stress_limit--1e400"),
    pytest.param("length_budget", 10 ** 400, id="length_budget-1e400"),
    pytest.param("length_budget", -10 ** 400, id="length_budget--1e400"),
])
def test_spec_refuses_non_finite_values(field, value):
    with pytest.raises(ValidationError, match=field):
        make_spec(**{field: value})


@pytest.mark.parametrize("name", search.PARAM_NAMES)
@pytest.mark.parametrize("pair", [(1.0, math.inf), (-math.inf, 1.0),
                                  (math.nan, 1.0), (1.0, 10 ** 400),
                                  (-10 ** 400, 1.0)])
def test_spec_refuses_non_finite_bounds(name, pair):
    with pytest.raises(ValidationError, match=f"bounds for {name}"):
        make_spec(bounds={**BOUNDS, name: pair})


@pytest.mark.parametrize("low", [0, 0.5, -3])
def test_spec_refuses_beam_counts_below_one(low):
    with pytest.raises(ValidationError, match="n_beams bounds"):
        make_spec(bounds={**BOUNDS, "n_beams": (low, 13)})
    make_spec(bounds={**BOUNDS, "n_beams": (1, 13)})


def test_candidate_point_in_param_order():
    cand = evaluate_candidate(make_spec(), TABLE1, 12)
    assert cand.point == (40.0, 1.2, 5.0, math.radians(7.0), 12)


def test_evaluate_candidate_refuses_a_beam_count_that_is_not_an_integer():
    # 12.5 used to be scored; True was refused only by the bounds
    spec = make_spec()
    for n_beams in (12.5, True, "12"):
        with pytest.raises(ValidationError, match="n_beams"):
            evaluate_candidate(spec, TABLE1, n_beams)
    assert (evaluate_candidate(spec, TABLE1, np.int64(12))
            == evaluate_candidate(spec, TABLE1, 12))


def test_bounds_slack_is_absolute():
    spec = make_spec()
    hi = BOUNDS["length_L"][1]
    inside = VBeamGeometry(hi + 0.5 * search.BOUNDS_TOL, 1.2, 5.0, 0.12)
    assert evaluate_candidate(spec, inside, 12).geometry == inside
    with pytest.raises(ValidationError, match="length_L"):
        evaluate_candidate(spec, VBeamGeometry(hi + 1e-10, 1.2, 5.0, 0.12), 12)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_self_consistency_recovers_reference():
    spec = make_spec(target_force=table1_peak())
    ranked = grid_search(spec, DENSITY)
    best = ranked[0]
    assert best.objective < 1e-9
    assert best.geometry.length_L == pytest.approx(40.0, rel=1e-9)
    assert best.geometry.thickness_T == pytest.approx(1.2, rel=1e-9)
    assert best.geometry.width_W == pytest.approx(5.0, rel=1e-9)
    assert math.degrees(best.geometry.tilt_theta) == pytest.approx(7.0, rel=1e-9)
    assert best.n_beams == 12


def test_grid_deterministic_ranking():
    spec = make_spec()
    a = grid_search(spec, DENSITY)
    b = grid_search(spec, DENSITY)
    assert [c.sort_key() for c in a] == [c.sort_key() for c in b]
    c = grid_search(spec, DENSITY, n_workers=4)
    assert [x.sort_key() for x in c] == [x.sort_key() for x in a]


ALL_VIOLATIONS = {"stress", "length", "bistable_at_travel"}


@pytest.mark.parametrize("overrides, kinds, feasibility", [
    (dict(), set(), {True}),
    (dict(stress_limit=65.0, length_budget=79.5,
          require_non_bistable_at_travel=True), ALL_VIOLATIONS, {False}),
    (dict(target_travel=1.5, stress_limit=16.0, length_budget=80.0,
          require_non_bistable_at_travel=True),
     ALL_VIOLATIONS, {True, False}),
], ids=["feasible", "violations", "short-travel"])
def test_grid_matches_per_point_scoring(overrides, kinds, feasibility,
                                        monkeypatch):
    # bit for bit, in rank order, with one kernel pass per block and one
    # row per shape; the 27 shapes of the 81-geometry grid span several
    # blocks, the last one partial
    spec = make_spec(**overrides)
    expected = reference_grid(spec, DENSITY)
    rows = count_kernel_rows(monkeypatch)
    ranked = grid_search(spec, DENSITY)
    assert [astuple(c) for c in ranked] == [astuple(c) for c in expected]
    per_block = search.BLOCK_SHAPES
    assert rows == [min(per_block, 27 - i) for i in range(0, 27, per_block)]
    assert len(rows) > 1 and 27 % per_block
    assert {name for c in ranked for name, _ in c.violations} == kinds
    assert {c.feasible for c in ranked} == feasibility


@pytest.mark.parametrize("block, expected", [(16, [16, 11]), (27, [27])])
def test_grid_passes_each_shape_once(block, expected, monkeypatch):
    # the 81 geometries hold 27 shapes (L, T, theta); the width enters
    # through the load scale alone, so each shape is one kernel row
    spec = make_spec()
    monkeypatch.setattr(search, "BLOCK_SHAPES", block)
    rows = count_kernel_rows(monkeypatch)
    ranked = grid_search(spec, DENSITY)
    geoms = {c.geometry for c in ranked}
    assert len(geoms) == 81 and len({shape(g) for g in geoms}) == 27
    assert rows == expected


def test_grid_checks_the_forces_once_per_shape(monkeypatch):
    # each of the 27 shapes checks the forces of its 3 widths in one _force
    # call, never one per sample
    checks = count_force_checks(monkeypatch)
    grid_search(make_spec(), DENSITY)
    assert len(checks) == 27


@pytest.mark.filterwarnings("error")
def test_screen_refuses_forces_that_overflow_a_finite_load_scale():
    # at E 4e307 the 2 mm beams' load scales are finite, their forces not;
    # the screen used to rank them from inf and NaN peaks after a
    # RuntimeWarning, and now refuses the block
    bounds = dict(length_L=(2.0, 3.0), thickness_T=(1.2, 1.2),
                  width_W=(5.0, 5.0), tilt_theta=(0.12, 0.12), n_beams=(11, 13))
    spec = make_spec(bounds=bounds, material=MaterialModel(4e307))
    with pytest.raises(ValidationError, match="force overflows"):
        grid_search(spec, DENSITY)
    with pytest.raises(ValidationError, match="force overflows"):
        search._screen(spec, [(2.0, 1.2, 0.12)], [5.0])
    start = Candidate(VBeamGeometry(2.0, 1.2, 5.0, 0.12), 12, 1.0, (), 1.0)
    with pytest.raises(ValidationError, match="force overflows"):
        refine(spec, start)


@pytest.mark.filterwarnings("error")
def test_forces_that_underflow_are_refused_and_tiny_ones_run():
    # at E 1e-321 the largest load scale is 5e-324 and the least ones are
    # 0: the grid ranked -0 forces, and refine divided by zero
    geom = VBeamGeometry(40.0, 1.2, 5.0, 0.12)
    start = Candidate(geom, 12, 1.0, (), 0.0)
    spec = make_spec(material=MaterialModel(1e-321))
    for search_ in (lambda: grid_search(spec, DENSITY),
                    lambda: refine(spec, start, 20)):
        with pytest.raises(ValidationError, match="force underflows"):
            search_()
    # at E 1e-310 every force is positive and the W* quotients overflow
    # to inf, which the width clamp maps to the upper bound; a grid start's
    # width is a numpy float, whose division warned
    spec = make_spec(material=MaterialModel(1e-310))
    start = evaluate_candidate(
        spec, VBeamGeometry(40.0, 1.2, np.float64(5.0), 0.12), 12)
    best = refine(spec, start, 20)
    assert 0.0 < best.peak_force < 1e-300 and best.exhausted


@pytest.mark.filterwarnings("error")
def test_a_ring_force_per_mm_that_halves_to_zero_clamps_to_the_upper_width(
        monkeypatch):
    # at E 7.5e-321 some shapes' c is 5e-324, whose halved ring force is 0:
    # W* is then inf, not a ZeroDivisionError, and clamps to the upper
    # width bound, as the quotient that overflowed did.  A budget of 3
    # scores the start and the first two polls of its set; at 5 the set
    # holds a thinner shape whose force underflows, which refuses the set
    zeros, halve = [], search.halved_ring_force

    def watched(force, n_beams):
        zeros.append(halve(force, n_beams) == 0.0)
        return halve(force, n_beams)

    monkeypatch.setattr(search, "halved_ring_force", watched)
    spec = make_spec(material=MaterialModel(7.5e-321))
    start = evaluate_candidate(spec, TABLE1, 12)
    best = refine(spec, start, 3)
    assert any(zeros) and best.exhausted
    assert best.geometry.width_W == 6.0 and 0.0 < best.peak_force < 1e-320
    with pytest.raises(ValidationError, match="force underflows"):
        refine(spec, start, 5)


@pytest.mark.parametrize("force", [0.0, -0.0, -1e-320, -0.39])
def test_a_peak_force_at_or_below_zero_is_refused_by_its_sign(force):
    # rounding keeps a force's sign: a negative peak is a real one, and
    # used to be reported as an underflow; 0 and -0 are the underflow's
    if force < 0.0:
        with pytest.raises(ValidationError, match=f"negative at every "
                           f"sampled travel \\(peak {force:.6g} N\\)"):
            search._positive_force(force)
    else:
        with pytest.raises(ValidationError, match="force underflows"):
            search._positive_force(force)
    assert search._positive_force(5e-324) == 5e-324


def test_grid_checks_each_geometry_once(monkeypatch):
    # the violations depend on the geometry alone: every beam count of a
    # geometry shares one bistability check
    spec = make_spec(require_non_bistable_at_travel=True)
    margin, checked = search.bistability_margin, []

    def counted(geom, travel):
        checked.append(geom)
        return margin(geom, travel)

    monkeypatch.setattr(search, "bistability_margin", counted)
    ranked = grid_search(spec, DENSITY)
    assert len(ranked) == 3 * len(checked) == 243
    assert set(checked) == {c.geometry for c in ranked}


def test_grid_levels_that_round_together_count_once():
    # five levels over a span below two float spacings hold two values
    spec = make_spec(bounds={**BOUNDS, "length_L": (36.0, 36.0 + 1e-14)})
    ranked = grid_search(spec, dict(DENSITY, length_L=5))
    assert len({c.geometry.length_L for c in ranked}) == 2
    assert len({c.point for c in ranked}) == len(ranked) == 2 * 27 * 3



@pytest.mark.parametrize("density", [1, 2, 3])
def test_grid_beam_counts_round_into_the_bounds(density):
    # 9.4 used to round to 9 and 10.6 to 11, both filtered out: an empty
    # grid, though 10 lies inside the bounds
    spec = make_spec(bounds={**BOUNDS, "n_beams": (9.4, 10.6)})
    ranked = grid_search(spec, dict(DENSITY, n_beams=density))
    assert {c.n_beams for c in ranked} == {10}
    assert len(ranked) == 81


@pytest.mark.parametrize("pair", [(9.5, 9.7), (1.2, 1.9), (12.01, 12.99)])
def test_spec_refuses_beam_count_bounds_without_an_integer(pair):
    with pytest.raises(ValidationError, match="n_beams bounds must hold"):
        make_spec(bounds={**BOUNDS, "n_beams": pair})
    make_spec(bounds={**BOUNDS, "n_beams": (pair[0], math.ceil(pair[1]))})


POLE_TILT = math.radians(1.0)


def pole_spec():
    """A spec at whose target travel the beam 40 x 1.2 x 5 mm, tilted by
    POLE_TILT, raises SingularityError.

    At this tilt d1 stays negative and the root grows with the travel; the
    target travel, found by bisection of the reference root over 10-12 mm,
    is where it makes the force expression's denominator
    4 + 2p/15 - 11p^2/6300 vanish to rounding.
    """
    def den(dy):
        p = solve_monostable_cubic(monostable_intermediates(
            normalize_deflection(VBeamGeometry(40.0, 1.2, 5.0, POLE_TILT),
                                 dy)))
        return 4.0 + 2.0 * p / 15.0 - 11.0 * p * p / 6300.0

    lo, hi = 10.0, 12.0
    assert den(lo) > 0.0 > den(hi)
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        lo, hi = (mid, hi) if den(mid) > 0.0 else (lo, mid)
    return make_spec(target_travel=lo,
                     bounds={**BOUNDS, "tilt_theta": (POLE_TILT, POLE_TILT),
                             "width_W": (5.0, 5.0)})


def test_grid_failing_row_raises_like_per_point_scoring():
    spec = pole_spec()
    density = dict(DENSITY, length_L=5, width_W=1, tilt_theta=1)
    outcomes = []
    for L, T in product(np.linspace(36.0, 44.0, 5), np.linspace(1.0, 1.4, 3)):
        try:
            reference_screen(spec, VBeamGeometry(L, T, 5.0, POLE_TILT))
            outcomes.append(None)
        except NumericalError as exc:
            outcomes.append(type(exc))
    assert outcomes == [None] * 7 + [SingularityError] + [None] * 7
    expected = next(kind for kind in outcomes if kind is not None)
    with pytest.raises(expected):
        grid_search(spec, density)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.floats(30.0, 60.0), st.floats(0.6, 2.0),
                          st.floats(0.0, 15.0)),
                min_size=2, max_size=40, unique=True),
       st.lists(st.floats(3.0, 7.0), min_size=1, max_size=3, unique=True),
       st.floats(1.0, 3.0))
def test_batched_screen_matches_one_geometry_curves(dims, widths, travel):
    # every shape at every width, shape-major, bit for bit
    spec = make_spec(target_travel=travel, require_non_bistable_at_travel=True)
    shapes = [(L, T, math.radians(tilt)) for L, T, tilt in dims]
    expected = []
    for (L, T, theta), W in product(shapes, widths):
        g = VBeamGeometry(L, T, W, theta)
        curve, stress = reference_screen(spec, g)
        expected.append((g, float(np.max(curve.force)),
                         reference_violations(spec, g, stress)))
    records = search._screen(spec, shapes, widths)
    assert records == expected
    assert [r[1].hex() for r in records] == [e[1].hex() for e in expected]


def test_grid_infeasible_ranking_is_total():
    spec = make_spec(stress_limit=1e-3)
    ranked = grid_search(spec, DENSITY)
    assert all(not c.feasible for c in ranked)
    keys = [c.sort_key() for c in ranked]
    assert keys == sorted(keys)


def test_feasible_dominance():
    spec = make_spec(length_budget=79.0)  # 2 L cos(theta) crosses the budget
    ranked = grid_search(spec, DENSITY)
    feas = [c.feasible for c in ranked]
    assert True in feas and False in feas
    assert feas == sorted(feas, reverse=True)


def test_single_point_grid():
    spec = make_spec(bounds={"length_L": (40.0, 40.0), "thickness_T": (1.2, 1.2),
                             "width_W": (5.0, 5.0),
                             "tilt_theta": (math.radians(7.0),) * 2,
                             "n_beams": (12, 12)})
    ranked = grid_search(spec, {k: 1 for k in DENSITY})
    assert len(ranked) == 1
    assert ranked[0].n_beams == 12


@pytest.mark.parametrize("name", ["n_beams", "length_L"])
@pytest.mark.parametrize("count", [0, -2, 2.7, True])
def test_grid_density_below_one_is_refused(name, count):
    with pytest.raises(ValidationError,
                       match=f"grid density {name} must be at least 1"):
        grid_search(make_spec(), dict(DENSITY, **{name: count}))


@pytest.mark.parametrize("density, named", [
    (dict(DENSITY, length=2), "'length'"),
    (dict(DENSITY, tilt_theta_deg=2), "'tilt_theta_deg'"),
    ({"length": 0, "tilt_theta_deg": 2, "n_beams": 1},
     "'length', 'tilt_theta_deg'"),
], ids=["length", "tilt_theta_deg", "both"])
def test_grid_density_refuses_unknown_keys(density, named, monkeypatch):
    # these used to be ignored: "length" hid its zero density and the config
    # spelling of the tilt fell back to the default 5 levels
    rows = count_kernel_rows(monkeypatch)
    with pytest.raises(ValidationError,
                       match=f"unknown parameter\\(s\\) {named}; expected"):
        grid_search(make_spec(), density)
    assert rows == []


def test_grid_worker_count_below_one_is_refused():
    with pytest.raises(ValidationError, match="n_workers must be at least 1"):
        grid_search(make_spec(), DENSITY, n_workers=0)


def test_grid_cap_enforced(monkeypatch):
    dense = dict(DENSITY, **dict.fromkeys(search.PARAM_NAMES[:4], 40))
    assert 40 ** 4 * 3 > search.GRID_CAP
    rows = count_kernel_rows(monkeypatch)
    with pytest.raises(ValidationError, match="cap"):
        grid_search(make_spec(), dense)
    assert rows == []


@pytest.mark.parametrize("name", ["n_beams", "length_L"])
@pytest.mark.parametrize("count", [search.GRID_CAP + 1, 2 ** 63])
def test_grid_density_above_the_cap_is_refused(name, count, monkeypatch):
    # a density is refused before its axis is built: 2**63 levels used to
    # raise IndexError inside np.linspace, and 2**31 to ask for 16 GiB
    rows = count_kernel_rows(monkeypatch)
    with pytest.raises(ValidationError,
                       match=f"grid density {name} {count} exceeds the cap"):
        grid_search(make_spec(), dict(DENSITY, **{name: count}))
    assert rows == []


def test_grid_missing_density_means_default_levels():
    # the same 5 levels parse_config fills in for a missing entry
    spec = make_spec()
    full = dict.fromkeys(search.PARAM_NAMES, 5)
    expected = [astuple(c) for c in grid_search(spec, full)]
    assert [astuple(c) for c in grid_search(spec, {})] == expected
    partial = {"length_L": 5, "n_beams": 5}
    assert [astuple(c) for c in grid_search(spec, partial)] == expected


def test_ranking_scale_invariant_in_modulus():
    # stresses are force-derived, so the screen limit scales with the target
    base_spec = make_spec(target_force=20.0)
    scaled_spec = make_spec(target_force=60.0, stress_limit=3 * 120.0,
                            material=MaterialModel(3 * 1800.0))
    a = grid_search(base_spec, DENSITY)
    b = grid_search(scaled_spec, DENSITY)
    geoms_a = [(c.geometry, c.n_beams) for c in a]
    geoms_b = [(c.geometry, c.n_beams) for c in b]
    assert geoms_a == geoms_b
    for ca, cb in zip(a, b):
        assert cb.peak_force == pytest.approx(3 * ca.peak_force, rel=1e-12)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

WALK_START = VBeamGeometry.from_degrees(40, 1.2, 5, 7)


def walk_spec(**overrides):
    """A spec whose narrow width bounds make refine search from WALK_START:
    it scores 13 shapes, in three poll sets, before one meets the target
    at an unclamped width."""
    return make_spec(bounds={**BOUNDS, "width_W": (5.0, 5.2),
                             "n_beams": (12, 12)}, **overrides)


def test_refine_descends_from_perturbed_start():
    spec = make_spec(target_force=table1_peak())
    start = evaluate_candidate(spec, VBeamGeometry.from_degrees(40, 1.26, 5, 7), 12)
    assert start.objective > 1e-3
    out = refine(spec, start, max_evals=200)
    assert out.objective < start.objective


def test_refine_meets_the_target_at_an_exact_width():
    # the table1 design from its grid winner, and a perturbed start: the
    # first shape admits an unclamped width, so refine stops there
    design = parse_config((DEMOS / "table1.json").read_text()).design
    spec = make_spec(target_force=table1_peak())
    starts = [(design.spec, grid_search(design.spec, design.grid_density)[0]),
              (spec, evaluate_candidate(
                  spec, VBeamGeometry.from_degrees(40, 1.26, 5, 7), 12))]
    for spec, start in starts:
        out = refine(spec, start, max_evals=200)
        assert out.feasible and not out.exhausted
        assert out.objective <= 1e-15 < start.objective


def test_table1_design_checks_no_travel_and_holds_floats(monkeypatch):
    # the grid's levels are Python floats, so every geometry and candidate
    # holds floats, and the screen's kernel passes take the travels
    # uniform_travels made: no travel is checked again.  The geometries
    # held numpy float64 levels, and the kernel checked its travels three
    # times over table1's grid and refine.
    design = parse_config((DEMOS / "table1.json").read_text()).design
    checks = count_travel_checks(monkeypatch)
    ranked = grid_search(design.spec, design.grid_density)
    out = refine(design.spec, ranked[0], design.refine_max_evals)
    assert checks == []
    assert {type(value) for cand in [*ranked, out]
            for value in astuple(cand.geometry)} == {float}


def test_exact_width_of_a_hand_built_shape():
    # c is the shape's peak double-beam force per mm of width at the
    # start's width, and n beams meet the target at W* = 2 target / (n c)
    theta = math.radians(7.0)
    spec = make_spec(bounds={"length_L": (40.0, 40.0),
                             "thickness_T": (1.2, 1.2),
                             "width_W": (1.0, 20.0),
                             "tilt_theta": (theta, theta),
                             "n_beams": (11, 13)})
    start = evaluate_candidate(spec, VBeamGeometry(40.0, 1.2, 5.0, theta), 12)
    c = float(np.max(force_curve(start.geometry, MAT, 5.0, 500).force)) / 5.0
    out = refine(spec, start, max_evals=1)
    assert out.geometry.width_W == 2.0 * spec.target_force / (out.n_beams * c)
    assert not out.exhausted and out.objective <= 1e-15


def test_refine_scores_at_most_four_beam_counts_per_shape(monkeypatch):
    # the floor and ceiling of each end of the exact range, never the
    # whole range of beam counts
    spec = make_spec(bounds={**BOUNDS, "width_W": (5.0, 5.2),
                             "n_beams": (1, 1e9)})
    start = evaluate_candidate(spec, WALK_START, 12)
    candidate, counts = search._candidate, {}

    def counted(spec_, record, n_beams):
        counts.setdefault(shape(record[0]), set()).add(n_beams)
        return candidate(spec_, record, n_beams)

    monkeypatch.setattr(search, "_candidate", counted)
    refine(spec, start, max_evals=50)
    assert counts and all(1 <= len(n) <= 4 for n in counts.values())


def test_refine_zero_budget_flags_exhaustion():
    spec = make_spec()
    start = evaluate_candidate(spec, TABLE1, 12)
    out = refine(spec, start, max_evals=0)
    assert out.exhausted
    assert out.geometry == start.geometry
    assert out.objective == start.objective


def test_refine_point_region_returns_start():
    spec = make_spec(bounds={"length_L": (40.0, 40.0), "thickness_T": (1.2, 1.2),
                             "width_W": (5.0, 5.0),
                             "tilt_theta": (math.radians(7.0),) * 2,
                             "n_beams": (12, 12)})
    start = evaluate_candidate(spec, TABLE1, 12)
    out = refine(spec, start, max_evals=100)
    assert out.geometry == start.geometry
    assert not out.exhausted


def test_refine_never_worse_monotone():
    spec = make_spec()
    start = evaluate_candidate(spec, TABLE1, 12)
    for budget in (1, 5, 20, 100):
        out = refine(spec, start, max_evals=budget)
        assert out.sort_key() <= start.sort_key()


@pytest.mark.parametrize("budget", [2.5, 20.0, True, "20"])
def test_refine_refuses_non_integer_budgets(budget):
    spec = make_spec()
    start = evaluate_candidate(spec, TABLE1, 12)
    with pytest.raises(ValidationError, match="max_evals"):
        refine(spec, start, max_evals=budget)
    assert refine(spec, start, max_evals=np.int64(0)).exhausted


def test_refine_refuses_negative_budget():
    # -3 used to skip refinement and return the start flagged exhausted
    spec = make_spec()
    start = evaluate_candidate(spec, TABLE1, 12)
    with pytest.raises(ValidationError, match="max_evals must be at least 0"):
        refine(spec, start, max_evals=-3)
    out = refine(spec, start, max_evals=0)
    assert out.exhausted and out.point == start.point


def reference_refine(spec, start, max_evals):
    """refine's shape search by complete polling, scoring every design
    point on its own.

    A shape's peak force per mm of width, c, comes from its own curve at
    the start's width; the beam counts at the floor and ceiling of each end
    of the range where 2 target / (n c) lies inside the width bounds are
    scored at that width, clamped.  The start's shape is scored first; then
    every in-bounds poll of the best point's shape, each coordinate -/+ its
    step, before the search moves to the best or halves the steps.  Returns
    the result and the shape sets scored, in visit order.
    """
    names = ("length_L", "thickness_T", "tilt_theta")
    spans = {name: spec.bounds[name][1] - spec.bounds[name][0]
             for name in names}
    steps = {name: span / 8.0 for name, span in spans.items()}
    min_step = {name: max(span * 1e-4, 1e-12) for name, span in spans.items()}
    (W_lo, W_hi), (n_lo, n_hi) = spec.bounds["width_W"], spec.bounds["n_beams"]
    width, target = start.geometry.width_W, spec.target_force
    best, visited = start, []

    def score(L, T, theta):
        """The shape's best candidate, and whether it is exact."""
        curve = force_curve(VBeamGeometry(L, T, width, theta), spec.material,
                            spec.target_travel, DEFAULT_CURVE_SAMPLES)
        c = float(np.max(curve.force)) / width
        counts = set()
        for W in (W_hi, W_lo):
            end = min(max(2.0 * target / (W * c), math.ceil(n_lo)),
                      math.floor(n_hi))
            counts |= {math.floor(end), math.ceil(end)}
        shape_best, hit = None, False
        for n in sorted(counts):
            W = 2.0 * target / (n * c)
            cand = reference_candidate(
                spec, VBeamGeometry(L, T, min(max(W, W_lo), W_hi), theta), n)
            hit = hit or (cand.feasible and W_lo <= W <= W_hi)
            if shape_best is None or cand.sort_key() < shape_best.sort_key():
                shape_best = cand
        return shape_best, hit

    def poll(shapes):
        """Score the shapes the budget leaves, all of them before any is
        taken; "hit", "exhausted" or None."""
        nonlocal best
        cut = shapes[:max_evals - sum(map(len, visited))]
        if cut:
            visited.append(cut)
        scored = [score(*shape_) for shape_ in cut]
        for cand, _ in scored:
            if cand.sort_key() < best.sort_key():
                best = cand
        if any(hit for _, hit in scored):
            return "hit"
        return "exhausted" if len(cut) < len(shapes) else None

    g = start.geometry
    stop = poll([(g.length_L, g.thickness_T, g.tilt_theta)])
    while stop is None:
        g, before = best.geometry, best
        here = dict(zip(names, (g.length_L, g.thickness_T, g.tilt_theta)))
        shapes = []
        for name in names:
            lo, hi = spec.bounds[name]
            for delta in (-steps[name], steps[name]) if steps[name] else ():
                if lo - 1e-12 <= here[name] + delta <= hi + 1e-12:
                    shapes.append(tuple(
                        dict(here, **{name: here[name] + delta}).values()))
        stop = poll(shapes)
        if stop is None and best is before:
            for name in names:
                steps[name] /= 2.0
            if all(steps[name] < min_step[name] for name in names):
                return best, visited
    if stop == "exhausted":
        best = Candidate(best.geometry, best.n_beams, best.objective,
                         best.violations, best.peak_force, exhausted=True)
    return best, visited


@pytest.mark.parametrize("budget", [1, 5, 20, 100])
def test_refine_screens_each_geometry_once(budget, monkeypatch):
    # each poll set goes through the kernel in one pass, each of its shapes
    # once and in poll order, and its exact widths are derived from its rows
    spec = walk_spec()
    start = evaluate_candidate(spec, WALK_START, 12)
    expected, visited = reference_refine(spec, start, budget)
    passes = record_kernel_geometries(monkeypatch)
    assert refine(spec, start, max_evals=budget) == expected
    assert [list(map(shape, geoms)) for geoms in passes] == visited
    assert all(len(set(polled)) == len(polled) for polled in visited)
    assert sum(map(len, visited)) == min(budget, 13)


def test_refine_passes_each_shape_once(monkeypatch):
    # a poll set holds no shape twice, so no shape goes through its pass
    # twice, and the records at a shape's exact widths make no kernel pass
    spec = walk_spec()
    start = evaluate_candidate(spec, WALK_START, 12)
    expected, visited = reference_refine(spec, start, 100)
    passes = record_kernel_geometries(monkeypatch)
    records, derived = search._records, []

    def watched(spec_, rows, geoms):
        first = len(passes)
        out = records(spec_, rows, geoms)
        assert len(passes) == first
        derived.extend(geoms)
        return out

    monkeypatch.setattr(search, "_records", watched)
    assert refine(spec, start, max_evals=100) == expected
    assert len(passes) == len(visited) > 1
    for geoms in passes:
        assert len(set(map(shape, geoms))) == len(geoms)
    passed = [g for geoms in passes for g in geoms]
    # every record is derived from a passed shape's rows, some at widths
    # that went through no pass
    assert {shape(g) for g in derived} <= {shape(g) for g in passed}
    assert set(derived) - set(passed)


@pytest.mark.parametrize("budget", [5, 100])
def test_refine_poll_builds_its_start_and_one_geometry_per_count(
        budget, monkeypatch):
    # a poll set builds its shapes at the start's width, passes them
    # through the kernel at once, then, shape by shape, builds one geometry
    # per beam count it scores, at the count's clamped W*; nothing is kept
    # from one poll set to the next
    spec = walk_spec()
    start = evaluate_candidate(spec, WALK_START, 12)
    expected, visited = reference_refine(spec, start, budget)
    build, candidate, kernel = (search.VBeamGeometry, search._candidate,
                                search._kernel_pass)
    events = []

    def built(*dims):
        events.append(("b", dims))
        return build(*dims)

    def scored(spec_, record, n_beams):
        events.append(("c", astuple(record[0])))
        return candidate(spec_, record, n_beams)

    def passed(geoms, dys):
        events.append(("p", None))
        return kernel(geoms, dys)

    monkeypatch.setattr(search, "VBeamGeometry", built)
    monkeypatch.setattr(search, "_candidate", scored)
    monkeypatch.setattr(search, "_kernel_pass", passed)
    assert refine(spec, start, max_evals=budget) == expected
    kinds = "".join(kind for kind, _ in events)
    sets = list(re.finditer("(b+)p((?:b+c+)+)", kinds))
    assert "".join(m.group() for m in sets) == kinds
    assert len(sets) == len(visited)
    for m, polled in zip(sets, visited):
        dims = [d for _, d in events[m.start():m.end()]]
        starts = dims[:len(m.group(1))]
        assert [(L, T, theta) for L, T, _, theta in starts] == polled
        assert {W for _, _, W, _ in starts} == {start.geometry.width_W}
        groups = re.findall("b+c+", m.group(2))
        assert len(groups) == len(polled)
        i = m.start(2) - m.start()
        for group, (L, T, theta) in zip(groups, polled):
            n = group.count("b")
            assert n == group.count("c") <= 4
            widths, cands = dims[i:i + n], dims[i + n:i + 2 * n]
            assert cands == widths
            assert all((d[0], d[1], d[3]) == (L, T, theta) for d in widths)
            i += 2 * n


def test_refine_raises_where_the_reference_search_raises():
    # at the pole spec some shapes raise: refine raises, or returns, as the
    # reference search does from the same start
    spec = pole_spec()
    kinds = set()
    for L, T in product(np.linspace(36.0, 44.0, 9), (1.15, 1.2, 1.25)):
        start = outcome(evaluate_candidate, spec,
                        VBeamGeometry(L, T, 5.0, POLE_TILT), 12)
        if not isinstance(start, Candidate):
            continue
        for budget in (5, 20, 200):
            expected = outcome(lambda: reference_refine(spec, start, budget)[0])
            assert outcome(refine, spec, start, budget) == expected
            kinds.add(isinstance(expected, Candidate))
    assert kinds == {True, False}


def test_screen_passes_each_shape_once_and_a_failing_block_raises(
        monkeypatch):
    # two shapes at two widths: one pass of the shapes' geometries at the
    # first width, in order, on travels made once, and the records
    # shape-major
    spec = make_spec()
    shapes, widths = [(38.0, 1.1, 0.1), (40.0, 1.2, 0.12)], [4.5, 5.0]
    passes = record_kernel_geometries(monkeypatch)
    travels, uniform_travels = [], beam.uniform_travels

    def counted(*args):
        travels.append(args)
        return uniform_travels(*args)

    monkeypatch.setattr(search, "uniform_travels", counted)
    records = search._screen(spec, shapes, widths)
    assert [astuple(r[0]) for r in records] == [
        (L, T, W, theta) for (L, T, theta), W in product(shapes, widths)]
    assert [list(map(shape, geoms)) for geoms in passes] == [shapes]
    assert [g.width_W for g in passes[0]] == [4.5, 4.5]
    assert len(travels) == 1
    # a call keeps nothing: the next one passes the shape again
    rows = count_kernel_rows(monkeypatch)
    assert search._screen(spec, shapes[1:], [5.0]) == [records[3]]
    assert search._screen(spec, shapes[1:], [5.0]) == [records[3]]
    assert rows == [1, 1]
    # at the pole spec some rows raise: a block whose pass raises raises,
    # whether it is the first block or follows one that passed
    pole = pole_spec()
    points = [(L, T, POLE_TILT)
              for L, T in product(np.linspace(36.0, 44.0, 5), (1.0, 1.2, 1.4))]
    builds = [isinstance(outcome(reference_screen, pole,
                                 VBeamGeometry(L, T, 5.0, theta)), tuple)
              for L, T, theta in points]
    good, bad = points[builds.index(True)], points[builds.index(False)]
    rows.clear()
    with pytest.raises(NumericalError):
        search._screen(pole, [good, bad], [5.0])
    assert rows == []
    monkeypatch.setattr(search, "BLOCK_SHAPES", 1)
    with pytest.raises(NumericalError):
        search._screen(pole, [good, bad], [5.0])
    assert rows == [1]


def test_width_variant_record_equals_the_one_geometry_record(monkeypatch):
    # a width of a shape is derived from the shape's rows at its own load
    # scale, with no kernel pass, and equals the record of a one-geometry
    # pass bit for bit
    spec = make_spec(require_non_bistable_at_travel=True, stress_limit=50.0)
    theta = math.radians(7.0)
    geoms = [VBeamGeometry(40.0, 1.2, W, theta)
             for W in (4.0, 4.75, 5.25, 6.0)]
    expected = []
    for geom in geoms:
        curve, stress = reference_screen(spec, geom)
        expected.append((geom, float(np.max(curve.force)),
                         reference_violations(spec, geom, stress)))
    [shape_rows] = search._shape_rows(
        spec, [VBeamGeometry(40.0, 1.2, 5.0, theta)])
    rows = count_kernel_rows(monkeypatch)
    records = search._records(spec, shape_rows, geoms)
    assert rows == []
    assert records == expected
    assert [r[1].hex() for r in records] == [e[1].hex() for e in expected]
    assert {kind for r in records for kind, _ in r[2]} >= {"stress"}
    screened = [search._screen(spec, [shape(g)], [g.width_W])[0]
                for g in geoms]
    assert screened == expected
    assert [r[1].hex() for r in screened] == [e[1].hex() for e in expected]


def test_screen_on_repeated_dims_makes_one_pass(monkeypatch):
    # a shape's widths add no pass, even when a width repeats: a call
    # screens each shape once, in order, on travels made once, and equal
    # dims get equal records
    spec = make_spec()
    shapes, widths = [(40.0, 1.2, 0.12), (38.0, 1.1, 0.1)], [4.5, 5.0, 5.0,
                                                             4.5]
    passes = record_kernel_geometries(monkeypatch)
    travels, uniform_travels = [], beam.uniform_travels

    def counted(*args):
        travels.append(args)
        return uniform_travels(*args)

    monkeypatch.setattr(search, "uniform_travels", counted)
    records = search._screen(spec, shapes, widths)
    assert [astuple(r[0]) for r in records] == [
        (L, T, W, theta) for (L, T, theta), W in product(shapes, widths)]
    for i in (0, 4):
        a, b = records[i:i + 2]
        assert records[i:i + 4] == [a, b, b, a]
    assert [list(map(shape, geoms)) for geoms in passes] == [shapes]
    assert len(travels) == 1


def test_refine_checks_each_geometry_once_for_bistability(monkeypatch):
    # a poll set checks each geometry it builds once: each shape at the
    # start's width, then that shape's geometry per beam count; a shape
    # polled again in a later set is checked again, since nothing is kept
    spec = walk_spec(require_non_bistable_at_travel=True)
    start = evaluate_candidate(spec, WALK_START, 12)
    expected, visited = reference_refine(spec, start, 120)
    build, built = search.VBeamGeometry, []
    margin, checked = search.bistability_margin, []

    def counted_build(*dims):
        built.append(build(*dims))
        return built[-1]

    def counted(geom, delta_y):
        checked.append(geom)
        return margin(geom, delta_y)

    monkeypatch.setattr(search, "VBeamGeometry", counted_build)
    monkeypatch.setattr(search, "bistability_margin", counted)
    assert refine(spec, start, max_evals=120) == expected
    assert checked and sorted(map(id, checked)) == sorted(map(id, built))
    polled = [s for shapes in visited for s in shapes]
    assert len(polled) > len(set(polled))


@pytest.mark.parametrize("flag,budget,polls", [(False, 100, 13),
                                               (True, 60, 60),
                                               (True, 120, 94)])
def test_refine_makes_one_kernel_pass_per_poll(flag, budget, polls,
                                               monkeypatch):
    # each poll set scored is one kernel pass of its shapes, a shape polled
    # again in a later set included: the flagged search polls 80 shapes 94
    # times in 24 passes before its steps converge, and a run that uses its
    # whole budget scores max_evals shapes
    spec = walk_spec(require_non_bistable_at_travel=flag)
    start = evaluate_candidate(spec, WALK_START, 12)
    expected, visited = reference_refine(spec, start, budget)
    kernel, passes = search._kernel_pass, []

    def counted(geoms, dys):
        passes.append(len(geoms))
        return kernel(geoms, dys)

    monkeypatch.setattr(search, "_kernel_pass", counted)
    out = refine(spec, start, max_evals=budget)
    assert out == expected and out.exhausted == (polls == budget)
    assert passes == list(map(len, visited)) and sum(passes) == polls


def test_refine_passes_each_poll_set_at_once(monkeypatch):
    # the start's shape is one pass, then each poll set one pass of at
    # most 6 shapes, the in-bounds -/+ steps of the center's L, T and theta
    spec = make_spec(require_non_bistable_at_travel=True)
    start = evaluate_candidate(spec, TABLE1, 12)
    kernel, passes = search._kernel_pass, []

    def counted(geoms, dys):
        passes.append(len(geoms))
        return kernel(geoms, dys)

    monkeypatch.setattr(search, "_kernel_pass", counted)
    refine(spec, start, max_evals=200)
    assert passes[0] == 1 and max(passes[1:]) == 6
    assert all(1 <= n <= 6 for n in passes)


@pytest.mark.parametrize("budget", [3, 6])
def test_a_budget_that_ends_inside_a_poll_set_cuts_it_in_poll_order(
        budget, monkeypatch):
    # with the flag no shape is exact, so the start's set is followed by
    # the start's six polls; the budget cuts them in poll order, L -/+,
    # T -/+, theta -/+, scores those it keeps in one pass and flags the
    # best exhausted
    spec = make_spec(require_non_bistable_at_travel=True)
    start = evaluate_candidate(spec, TABLE1, 12)
    L, T, theta = shape(start.geometry)
    dL, dT, dtheta = ((hi - lo) / 8.0 for lo, hi in map(
        spec.bounds.get, ("length_L", "thickness_T", "tilt_theta")))
    polls = [(L - dL, T, theta), (L + dL, T, theta), (L, T - dT, theta),
             (L, T + dT, theta), (L, T, theta - dtheta),
             (L, T, theta + dtheta)]
    passes = record_kernel_geometries(monkeypatch)
    out = refine(spec, start, max_evals=budget)
    assert [list(map(shape, geoms)) for geoms in passes] == [
        [(L, T, theta)], polls[:budget - 1]]
    expected, visited = reference_refine(spec, start, budget)
    assert visited == [[(L, T, theta)], polls[:budget - 1]]
    assert out == expected and out.exhausted


def test_refine_follows_the_ring_convention(monkeypatch):
    # W* and the beam-count range invert mechanism.halved_ring_force, so a
    # changed convention still meets the target; a restated 2 target /
    # (n c) missed it by 4e-4 on table1
    monkeypatch.setattr(search, "halved_ring_force",
                        lambda force, n_beams: force / 3.0 * n_beams)
    design = parse_config((DEMOS / "table1.json").read_text()).design
    start = grid_search(design.spec, design.grid_density)[0]
    out = refine(design.spec, start, design.refine_max_evals)
    assert out.feasible and not out.exhausted
    assert out.objective <= 1e-15 < start.objective


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.lists(st.tuples(st.floats(0.0, 1.0),
                          st.just(0.0) | st.floats(0.0, 1.0),
                          st.floats(0.0, 1.0)), min_size=5, max_size=5),
       st.floats(8.0, 35.0), st.integers(0, 120))
def test_refine_matches_sequential_search(axes, target, budget):
    # per axis: where the low bound sits, the span, and the start's place
    ranges = {"length_L": (34.0, 8.0, 10.0), "thickness_T": (0.8, 0.5, 0.5),
              "width_W": (3.5, 1.5, 2.5),
              "tilt_theta": (math.radians(3.0), math.radians(5.0),
                             math.radians(5.0)),
              "n_beams": (8, 4, 4)}
    bounds, point = {}, []
    for (name, (base, shift, width)), (a, b, c) in zip(ranges.items(), axes):
        lo, span = base + a * shift, b * width
        if name == "n_beams":
            lo, span = round(lo), round(span)
            point.append(lo + round(c * span))
        else:
            point.append(lo + c * span)
        bounds[name] = (lo, lo + span)
    spec = make_spec(target_force=target, bounds=bounds)
    start = evaluate_candidate(spec, VBeamGeometry(*point[:4]), point[4])
    expected = outcome(lambda: reference_refine(spec, start, budget)[0])
    assert outcome(refine, spec, start, budget) == expected


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_candidates_csv(tmp_path):
    spec = make_spec()
    ranked = grid_search(spec, {k: (2 if k != "n_beams" else 1)
                                for k in DENSITY})
    dest = tmp_path / "ranked.csv"
    write_candidates_csv(ranked, dest)
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == ("rank,L_mm,T_mm,W_mm,theta_deg,n_beams,"
                        "peak_force_N,objective,violations")
    assert len(lines) == 1 + len(ranked)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) in (36.0, 44.0)


def test_candidates_csv_bytes_on_hand_built_candidates(tmp_path):
    feasible = Candidate(VBeamGeometry.from_degrees(40, 1.2, 5, 7), 12,
                         0.0125, (), 21.87)
    violating = Candidate(
        VBeamGeometry.from_degrees(36.5, 1.0, 4.25, 5.5), 10, 0.4,
        (("stress", 3.25), ("length", 1.0 / 3.0)), 12.0 + 1e-12)
    dest = tmp_path / "ranked.csv"
    write_candidates_csv([feasible, violating], dest)
    assert dest.read_bytes() == (
        b"rank,L_mm,T_mm,W_mm,theta_deg,n_beams,peak_force_N,objective,"
        b"violations\n"
        b"1,40,1.2,5,7,12,21.87,0.0125,\n"
        b"2,36.5,1,4.25,5.5,10,12,0.4,stress=3.25;length=0.333333333\n")
