"""Tests for the derivative-free design search."""

import math
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graspsynth.beam as beam
from graspsynth import (Candidate, DesignSpec, MaterialModel, NumericalError,
                        ValidationError, VBeamGeometry, aggregate_ring_force,
                        bistability_margin, evaluate_candidate, force_curve,
                        grid_search, peak_force, refine, write_candidates_csv)
from graspsynth import search
from graspsynth.mechanism import halved_ring_force

MAT = MaterialModel(youngs_modulus_E=1800)
TABLE1 = VBeamGeometry.from_degrees(40, 1.2, 5, 7)

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
                        spec.sweep_samples)
    end_load_scale = (4.0 * spec.material.youngs_modulus_E
                      * geom.second_moment / geom.length_L ** 2)
    moment = np.abs(curve.f_o) * end_load_scale * geom.length_L / 2.0
    section = geom.width_W * geom.thickness_T ** 2
    return curve, float(np.max(6.0 * moment / section))


def reference_candidate(spec, geom, n_beams):
    """Per-point scorer: one force_curve per design point."""
    curve, stress = reference_screen(spec, geom)
    peak = float(np.max(halved_ring_force(curve.force, n_beams)))
    objective = abs(peak - spec.target_force) / spec.target_force
    violations = []
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
    spec = make_spec(bounds={**BOUNDS, "thickness_T": (1.0, 100.0),
                             "length_L": (0.5, 44.0)})
    with pytest.raises(ValidationError):
        evaluate_candidate(spec, VBeamGeometry(1.0, 50.0, 5.0, 0.1), 12)


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


@pytest.mark.parametrize("low", [0, 0.5, -3])
def test_spec_refuses_beam_counts_below_one(low):
    with pytest.raises(ValidationError, match="n_beams bounds"):
        make_spec(bounds={**BOUNDS, "n_beams": (low, 13)})
    make_spec(bounds={**BOUNDS, "n_beams": (1, 13)})


def test_candidate_point_in_param_order():
    cand = evaluate_candidate(make_spec(), TABLE1, 12)
    assert cand.point == (40.0, 1.2, 5.0, math.radians(7.0), 12)


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
    (dict(target_travel=1.5, sweep_samples=60, stress_limit=16.0,
          length_budget=80.0, require_non_bistable_at_travel=True),
     ALL_VIOLATIONS, {True, False}),
], ids=["feasible", "violations", "short-travel"])
def test_grid_matches_per_point_scoring(overrides, kinds, feasibility,
                                        monkeypatch):
    # bit for bit, in rank order, with one kernel pass per block; at 500
    # samples the 81-geometry grid spans several blocks, the last one partial
    spec = make_spec(**overrides)
    expected = reference_grid(spec, DENSITY)
    rows = count_kernel_rows(monkeypatch)
    ranked = grid_search(spec, DENSITY)
    assert [astuple(c) for c in ranked] == [astuple(c) for c in expected]
    per_block = search.BLOCK_SAMPLES // spec.sweep_samples
    assert rows == [min(per_block, 81 - i) for i in range(0, 81, per_block)]
    if spec.sweep_samples == 500:
        assert len(rows) > 1 and 81 % per_block
    assert {name for c in ranked for name, _ in c.violations} == kinds
    assert {c.feasible for c in ranked} == feasibility


def test_grid_failing_row_raises_like_per_point_scoring():
    # near rest the cubic's discriminant loses its digits on some rows only
    spec = make_spec(target_travel=4e-7, sweep_samples=2,
                     bounds={**BOUNDS, "tilt_theta": (math.radians(7.0),) * 2,
                             "width_W": (5.0, 5.0)})
    density = dict(DENSITY, length_L=5, width_W=1, tilt_theta=1)
    outcomes = []
    for L, T in product(np.linspace(36.0, 44.0, 5), np.linspace(1.0, 1.4, 3)):
        try:
            reference_screen(spec, VBeamGeometry(L, T, 5.0, math.radians(7.0)))
            outcomes.append(None)
        except NumericalError as exc:
            outcomes.append(type(exc))
    assert None in outcomes
    expected = next(kind for kind in outcomes if kind is not None)
    with pytest.raises(expected):
        grid_search(spec, density)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.floats(30.0, 60.0), st.floats(0.6, 2.0),
                          st.floats(3.0, 7.0), st.floats(0.0, 15.0)),
                min_size=2, max_size=40),
       st.floats(1.0, 3.0))
def test_batched_screen_matches_one_geometry_curves(dims, travel):
    spec = make_spec(target_travel=travel)
    geoms = [VBeamGeometry.from_degrees(*d) for d in dims]
    expected = []
    for g in geoms:
        curve, stress = reference_screen(spec, g)
        expected.append((float(np.max(curve.force)), stress))
    assert search._screen(spec, geoms) == expected


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
@pytest.mark.parametrize("count", [0, -2])
def test_grid_density_below_one_is_refused(name, count):
    with pytest.raises(ValidationError, match="grid density must be at least 1"):
        grid_search(make_spec(), dict(DENSITY, **{name: count}))


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


def test_grid_missing_density_means_default_levels():
    # the same 5 levels parse_config fills in for a missing entry
    spec = make_spec(sweep_samples=20)
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

def test_refine_descends_from_perturbed_start():
    spec = make_spec(target_force=table1_peak())
    start = evaluate_candidate(spec, VBeamGeometry.from_degrees(40, 1.26, 5, 7), 12)
    assert start.objective > 1e-3
    out = refine(spec, start, max_evals=200)
    assert out.objective < start.objective


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


def reference_refine(spec, start, max_evals):
    """refine's pattern search, scoring every evaluation on its own.

    Returns the result and the geometries of the evaluations in visit order.
    """
    best, visited = start, []
    steps = {name: (spec.bounds[name][1] - spec.bounds[name][0]) / 8.0
             for name in search.PARAM_NAMES[:4]}
    min_step = {name: max((spec.bounds[name][1] - spec.bounds[name][0]) * 1e-4,
                          1e-12) for name in steps}

    def try_point(vals):
        if len(visited) >= max_evals:
            return None
        for name in search.PARAM_NAMES:
            lo, hi = spec.bounds[name]
            if not (lo - 1e-12 <= vals[name] <= hi + 1e-12):
                return None
        geom = VBeamGeometry(*(vals[name] for name in search.PARAM_NAMES[:4]))
        visited.append(geom)
        return reference_candidate(spec, geom, int(vals["n_beams"]))

    while len(visited) < max_evals:
        improved = False
        for name in search.PARAM_NAMES:
            g = best.geometry
            center = dict(zip(search.PARAM_NAMES,
                              (g.length_L, g.thickness_T, g.width_W,
                               g.tilt_theta, best.n_beams)))
            if name != "n_beams" and steps[name] <= 0:
                continue
            deltas = (-1, 1) if name == "n_beams" else (-steps[name],
                                                        steps[name])
            for delta in deltas:
                cand = try_point(dict(center, **{name: center[name] + delta}))
                if cand is not None and cand.sort_key() < best.sort_key():
                    best, improved = cand, True
        if not improved:
            live = False
            for name in steps:
                steps[name] /= 2.0
                live = live or steps[name] >= min_step[name]
            if not live:
                return best, visited
    return Candidate(best.geometry, best.n_beams, best.objective,
                     best.violations, best.peak_force, exhausted=True), visited


@pytest.mark.parametrize("budget", [1, 5, 20, 100])
def test_refine_screens_each_geometry_once(budget, monkeypatch):
    spec = make_spec()
    start = evaluate_candidate(spec, TABLE1, 12)
    expected, visited = reference_refine(spec, start, budget)
    rows = count_kernel_rows(monkeypatch)
    assert refine(spec, start, max_evals=budget) == expected
    assert rows == [1] * len(set(visited))


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
