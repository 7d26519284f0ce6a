"""Tests for the derivative-free design search."""

import math

import pytest

from graspsynth import (DesignSpec, MaterialModel, ValidationError,
                        VBeamGeometry, aggregate_ring_force,
                        evaluate_candidate, force_curve, grid_search,
                        peak_force, refine, write_candidates_csv)

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


def test_grid_cap_enforced():
    with pytest.raises(ValidationError, match="cap"):
        grid_search(make_spec(), DENSITY, cap=10)


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
