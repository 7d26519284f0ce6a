"""Acceptance suite: one test per acceptance criterion, with stated tolerances.

Each test prints one pass/fail line (run with `pytest -s` to see them all).

Criterion 6 is expected to fail, and the failure is intentional: the halved
single-beam convention it compares against disagrees with the frame-solver
oracle by a factor of two.  The closed-form model itself matches the frame
solver within a few percent; see README.md ("Known verification failure")
for the analysis.  The test asserts the criterion exactly as stated rather
than weakening it.
"""

import itertools
import math
import time
import numpy as np
import pytest

from graspsynth import (CantileverSection, LatchPhase, LatchState,
                        PressTrigger, PullRing, VBeamGeometry,
                        aggregate_ring_force,
                        bistable_crossover, cantilever_stress, compare_curves,
                        force_curve, grasper_response, grid_search,
                        jaw_opening, latch_step, monostable_intermediates,
                        normalize_deflection, peak_force,
                        shuttle_transfer_ratio, solve_monostable_cubic,
                        solve_multibeam_assembly, solve_vbeam_sweep,
                        sweep_to_curve)
from common import GEOM, MAT, TABLE2, make_config
from test_beam import oracle_cubic_root, random_monostable_states

REPORTED_RING_FORCE = 21.6
MEASURED_FULL_ACTUATION = 16.829


def report(criterion, ok, detail):
    print(f"[ACCEPTANCE] criterion {criterion:2d}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_reported_ring_force_within_band():
    t0 = time.perf_counter()
    ring = aggregate_ring_force(force_curve(GEOM, MAT, 5.0, 500), 12)
    dy_pk, f_pk = peak_force(ring)
    elapsed = time.perf_counter() - t0
    rel = abs(f_pk - REPORTED_RING_FORCE) / REPORTED_RING_FORCE
    ok = rel <= 0.30 and elapsed < 1.0
    assert report(
        1, ok,
        f"computed peak ring force {f_pk:.3f} N at {dy_pk:.3f} mm vs "
        f"reported {REPORTED_RING_FORCE} N (rel diff {rel:.3f}, limit 0.30; "
        f"{elapsed * 1e3:.0f} ms)")


def test_criterion_02_branch_crossover_location():
    curve = force_curve(GEOM, MAT, 5.0, 500)
    step = 5.0 / 500
    flip = next(i for i, b in enumerate(curve.branches)
                if b.value == "Bistable")
    dy_flip = float(curve.delta_y[flip])
    ok = abs(dy_flip - 1.137) <= step
    assert report(
        2, ok,
        f"sign change at {dy_flip:.4f} mm vs 1.137 mm "
        f"(one grid step = {step:.4f} mm); analytic root "
        f"{bistable_crossover(GEOM):.4f} mm")


def test_criterion_03_jaw_kinematics_exact():
    config = make_config()
    values = [jaw_opening(config, t) for t, _ in TABLE2]
    ok = values == [7.13, 15.99, 20.52]
    assert report(3, ok, f"anchors reproduce exactly: {values}")


def test_criterion_04_cubic_root_against_independent_solver():
    t0 = time.perf_counter()
    worst = 0.0
    for geom, dy in random_monostable_states(1000, seed=101):
        nd = normalize_deflection(geom, dy)
        p = solve_monostable_cubic(monostable_intermediates(nd))
        ref = oracle_cubic_root(nd.t, nd.x_o, nd.y_o)
        worst = max(worst, abs(p - ref) / max(abs(ref), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(
        4, ok,
        f"worst relative root deviation {worst:.2e} over 1000 states "
        f"(limit 1e-8; {elapsed:.2f} s)")


def test_criterion_05_fe_linear_consistency():
    g0 = VBeamGeometry.from_degrees(40, 1.2, 5, 0)
    path = solve_vbeam_sweep(g0, MAT, 1e-4 * 40, n_steps=1)
    k = path.steps[-1].reaction / path.steps[-1].control
    expected = 12 * 1800 * g0.second_moment / 40 ** 3
    rel = abs(k - expected) / expected
    ok = rel <= 0.01
    assert report(
        5, ok,
        f"guided stiffness {k:.6f} N/mm vs 12EI/L^3 = {expected:.6f} "
        f"(rel diff {rel:.2e}, limit 0.01)")


def test_criterion_06_closed_form_vs_frame_solver():
    t0 = time.perf_counter()
    tebc_single = aggregate_ring_force(force_curve(GEOM, MAT, 5.0, 100), 1)
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=100, n_elements=16)
    fe_curve = sweep_to_curve(path, GEOM, MAT)
    elapsed = time.perf_counter() - t0

    cmp_ = compare_curves(tebc_single, fe_curve)
    unhalved = compare_curves(force_curve(GEOM, MAT, 5.0, 100), fe_curve)

    def single_peak_declining(force):
        i = int(np.argmax(force))
        rising = np.all(np.diff(force[: i + 1]) > -1e-9)
        declining = np.all(np.diff(force[i:]) < 1e-9)
        near_zero = abs(force[-1]) < 0.05 * force[i]
        return rising and declining and near_zero

    shapes_ok = (single_peak_declining(tebc_single.force)
                 and single_peak_declining(fe_curve.force))
    ok = (cmp_.rms_rel <= 0.20 and cmp_.peak_location_diff <= 0.5
          and shapes_ok and elapsed < 60.0)
    assert report(
        6, ok,
        f"halved closed form vs frame solver: rms_rel={cmp_.rms_rel:.4f} "
        f"(limit 0.20), peak_location_diff={cmp_.peak_location_diff:.3f} mm "
        f"(limit 0.5), shapes ok={shapes_ok}, {elapsed:.1f} s "
        f"[diagnostic: unhalved closed form gives rms_rel="
        f"{unhalved.rms_rel:.4f} - the halving convention, not the model, "
        f"drives the disagreement; see README 'Known verification failure']"), (
        f"report attached: {cmp_}")


def test_criterion_07_beam_count_ordering():
    r10 = shuttle_transfer_ratio(make_config(n_beams=10), 1.0)
    r12 = shuttle_transfer_ratio(make_config(n_beams=12), 1.0)
    s10, _ = solve_multibeam_assembly(make_config(n_beams=10), 1.5)
    s12, _ = solve_multibeam_assembly(make_config(n_beams=12), 1.5)
    ok = r10 > r12 and s10 > s12
    assert report(
        7, ok,
        f"transfer ratio 10 vs 12 beams: {r10:.4f} > {r12:.4f}; "
        f"frame-solver shuttle travel: {s10:.4f} > {s12:.4f} mm")


def test_criterion_08_latch_state_machine_exhaustive():
    events = [PressTrigger(), PullRing(0.0), PullRing(4.0), PullRing(7.99),
              PullRing(8.0), PullRing(11.0)]
    travel = 8.0
    U, S = LatchPhase.UNSTRESSED, LatchPhase.STRESSED_LATCHED
    checked = 0
    for length in range(1, 7):
        for seq in itertools.product(events, repeat=length):
            state = LatchState(U, 0.0)
            for ev in seq:
                prev = state
                state = latch_step(state, ev, travel)
                assert state.phase in (U, S), seq
                if state.phase is S:
                    assert state.ring_displacement >= travel, seq
                if isinstance(ev, PullRing) and prev.phase is U:
                    assert state.phase is (S if ev.d >= travel else U), seq
                if isinstance(ev, PressTrigger) and prev.phase is U:
                    assert state == prev, seq
            checked += 1
    # every sequence of the six events, of each length 1..6, was walked
    ok = checked == sum(len(events) ** n for n in range(1, 7))
    assert report(
        8, ok,
        f"{checked} event sequences up to length 6: two phases only, "
        f"threshold at 8 mm, trigger idempotent on the unstressed phase")


def test_criterion_09_stress_scaling_law():
    rng = np.random.default_rng(31)
    m_b = 7.3
    worst = 0.0
    sections = []
    for _ in range(500):
        b = rng.uniform(0.5, 20.0)
        h = rng.uniform(0.2, 10.0)
        sections.append(CantileverSection(b, h, 10.0))
    ref = cantilever_stress(m_b, sections[0])
    ref_product = ref * sections[0].out_of_plane_b * sections[0].in_plane_h ** 2
    for sec in sections[1:]:
        product = (cantilever_stress(m_b, sec)
                   * sec.out_of_plane_b * sec.in_plane_h ** 2)
        worst = max(worst, abs(product - ref_product) / ref_product)
    ok = worst <= 1e-12
    assert report(
        9, ok,
        f"sigma*b*h^2 constant across 500 random sections to {worst:.2e} "
        f"(limit 1e-12)")


def test_criterion_10_design_search_self_consistency():
    t0 = time.perf_counter()
    from graspsynth import DesignSpec
    ring = aggregate_ring_force(force_curve(GEOM, MAT, 5.0, 500), 12)
    target = peak_force(ring)[1]
    spec = DesignSpec(
        target_force=target, target_travel=5.0,
        bounds={"length_L": (36.0, 44.0), "thickness_T": (1.0, 1.4),
                "width_W": (4.0, 6.0),
                "tilt_theta": (math.radians(5.0), math.radians(9.0)),
                "n_beams": (11, 13)},
        material=MAT, stress_limit=120.0, length_budget=200.0)
    density = {"length_L": 3, "thickness_T": 3, "width_W": 3,
               "tilt_theta": 3, "n_beams": 3}
    grid_points = 3 ** 5
    ranked = grid_search(spec, density)
    elapsed = time.perf_counter() - t0
    best = ranked[0]
    g = best.geometry
    hit = (abs(g.length_L - 40) < 1e-6 and abs(g.thickness_T - 1.2) < 1e-6
           and abs(g.width_W - 5) < 1e-6
           and abs(math.degrees(g.tilt_theta) - 7) < 1e-6
           and best.n_beams == 12)
    ok = hit and best.objective < 1e-9 and grid_points <= 1e5 and elapsed < 30.0
    assert report(
        10, ok,
        f"rank 1 = (L={g.length_L:.1f}, T={g.thickness_T:.2f}, "
        f"W={g.width_W:.1f}, theta={math.degrees(g.tilt_theta):.1f} deg, "
        f"n={best.n_beams}) with objective {best.objective:.2e} "
        f"(limit 1e-9; grid {grid_points} points; {elapsed:.1f} s)")


def test_criterion_11_measured_actuation_force_band():
    config = make_config(n_beams=6)
    ring = np.linspace(1e-3, 8.0, 400)
    forces = [grasper_response(config, float(d)).ring_force for d in ring]
    peak = max(forces)
    lo, hi = MEASURED_FULL_ACTUATION / 2, MEASURED_FULL_ACTUATION * 2
    ok = lo <= peak <= hi
    assert report(
        11, ok,
        f"six-beam prototype peak ring force {peak:.3f} N inside the "
        f"plausibility band [{lo:.2f}, {hi:.2f}] N around the measured "
        f"{MEASURED_FULL_ACTUATION} N")
