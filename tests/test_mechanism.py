"""Tests for the whole-grasper mechanism layer."""

import math

import numpy as np
import pytest

from graspsynth import (CantileverSection, LatchPhase, LatchState,
                        NumericalError, PressTrigger, PullRing,
                        ValidationError, VBeamGeometry,
                        actuation_force, aggregate_ring_force,
                        bistable_crossover, cantilever_stress, force_curve,
                        grasper_response, grasper_sweep, jaw_opening,
                        latch_step, peak_force, shuttle_transfer_ratio,
                        single_beam_force)
from graspsynth import mechanism
from graspsynth.mechanism import beam_tangent_stiffness

from common import (GEOM, MAT, cardano_residuals, count_travel_checks,
                    make_config)


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError, match="n_beams"):
        make_config(n_beams=0)
    with pytest.raises(ValidationError, match="latch_travel"):
        make_config(latch_travel=0.0)
    with pytest.raises(ValidationError, match="series_stiffness"):
        make_config(series_stiffness_ks=-1.0)
    with pytest.raises(ValidationError, match="anchors"):
        make_config(jaw_calibration=((3.2, 7.13), (3.0, 9.0)))
    with pytest.raises(ValidationError, match="anchors"):
        make_config(jaw_calibration=((0.0, 0.0), (3.2, 7.13)))
    with pytest.raises(ValidationError, match="at least one anchor"):
        make_config(jaw_calibration=())


# 10 ** 400, an int too large for a float, was accepted by these rules or
# raised OverflowError
NON_FINITE = [math.inf, -math.inf, math.nan, 10 ** 400]
NON_FINITE_IDS = ["inf", "-inf", "nan", "1e400"]


@pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
@pytest.mark.parametrize("field", ["latch_travel", "series_stiffness_ks",
                                   "overall_length_budget",
                                   "latch_ramp_factor"])
def test_config_refuses_non_finite_values(field, value):
    # an infinite ks, latch travel or ramp factor, and a NaN ramp factor,
    # used to be accepted and fail later in the sweep; an infinite length
    # budget was accepted silently
    with pytest.raises(ValidationError, match=field):
        make_config(**{field: value})


@pytest.mark.parametrize("value", [*NON_FINITE, -10 ** 400],
                         ids=[*NON_FINITE_IDS, "-1e400"])
@pytest.mark.parametrize("anchor", [0, 1])
def test_config_refuses_non_finite_calibration(anchor, value):
    point = [3.2, 7.13]
    point[anchor] = value
    with pytest.raises(ValidationError, match="anchors must be finite"):
        make_config(jaw_calibration=(tuple(point),))


@pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
@pytest.mark.parametrize("field", ["out_of_plane_b", "in_plane_h",
                                   "jaw_length"])
def test_section_refuses_non_finite_values(field, value):
    dims = dict(out_of_plane_b=3.0, in_plane_h=1.5, jaw_length=45.0)
    with pytest.raises(ValidationError, match=field):
        CantileverSection(**{**dims, field: value})


@pytest.mark.parametrize("dims", [
    (3.0, 1e103, 45.0), (3.0, 1.5, 1e103), (3.0, 5e102, 45.0),
    (1e308, 1.5, 45.0), (1e-10, 1e103, 45.0)],
    ids=["h", "jaw_length", "b_h3", "b", "small_b_h"])
def test_section_whose_powers_overflow_is_refused(dims):
    # grasper_sweep's h ** 3 and jaw_length ** 3 raised OverflowError, and
    # b h^3 / 12 was inf; with b first, b h h h stays finite at b 1e-10,
    # h 1e103, where h ** 3 raises
    with pytest.raises(ValidationError, match="must be finite"):
        CantileverSection(*dims)


def test_section_just_inside_the_overflow_runs():
    # a jaw length of 5e102 has a finite cube, and the sweep runs
    config = make_config(jaw_section=CantileverSection(3.0, 1.5, 5e102))
    sweep = grasper_sweep(config, [0.0, 4.0, 8.0])
    assert np.isfinite(sweep.stress).all()


# ---------------------------------------------------------------------------
# force aggregation
# ---------------------------------------------------------------------------

def test_aggregate_halves_then_multiplies():
    curve = force_curve(GEOM, MAT, 5.0, 50)
    ring = aggregate_ring_force(curve, 12)
    assert np.allclose(ring.force, curve.force / 2 * 12, rtol=1e-15)
    assert np.array_equal(ring.delta_y, curve.delta_y)
    sample = curve.force[10]
    assert ring.force[10] == pytest.approx(sample * 6, rel=1e-15)


def test_aggregate_identity_for_two_beams():
    curve = force_curve(GEOM, MAT, 5.0, 50)
    ring = aggregate_ring_force(curve, 2)
    assert np.array_equal(ring.force, curve.force)


def test_aggregate_three_newtons_example():
    curve = force_curve(GEOM, MAT, 5.0, 10)
    scaled = curve.with_force(np.full(10, 3.0))
    ring = aggregate_ring_force(scaled, 12)
    assert np.allclose(ring.force, 18.0)


def test_aggregate_linear_in_beam_count():
    curve = force_curve(GEOM, MAT, 5.0, 20)
    for n in (1, 3, 7):
        ring = aggregate_ring_force(curve, n)
        assert np.allclose(ring.force, n * aggregate_ring_force(curve, 1).force,
                           rtol=1e-15)


def test_aggregate_rejects_zero_beams():
    curve = force_curve(GEOM, MAT, 5.0, 10)
    with pytest.raises(ValidationError):
        aggregate_ring_force(curve, 0)


BAD_BEAM_COUNTS = [2.5, 3.0, True, math.nan, 0, -2, 10 ** 400]
BAD_BEAM_COUNT_IDS = ["fraction", "integral-float", "bool", "nan", "zero",
                      "negative", "beyond-float"]


@pytest.mark.parametrize("n_beams", BAD_BEAM_COUNTS, ids=BAD_BEAM_COUNT_IDS)
def test_config_refuses_non_integer_beam_count(n_beams):
    # 2.5 used to report a response for "2.5 beams", True counted as 1,
    # NaN failed deep in the kernel with "cubic discriminant nan" and
    # 10 ** 400 raised OverflowError in the first sweep
    with pytest.raises(ValidationError, match="n_beams"):
        make_config(n_beams=n_beams)


@pytest.mark.parametrize("n_beams", BAD_BEAM_COUNTS, ids=BAD_BEAM_COUNT_IDS)
def test_aggregate_refuses_non_integer_beam_count(n_beams):
    curve = force_curve(GEOM, MAT, 5.0, 10)
    with pytest.raises(ValidationError, match="n_beams"):
        aggregate_ring_force(curve, n_beams)


def test_numpy_integer_beam_count_is_accepted():
    curve = force_curve(GEOM, MAT, 5.0, 10)
    assert make_config(n_beams=np.int64(12)).n_beams == 12
    assert np.array_equal(aggregate_ring_force(curve, np.int32(12)).force,
                          aggregate_ring_force(curve, 12).force)


def test_reference_ring_peak_near_reported_value():
    ring = aggregate_ring_force(force_curve(GEOM, MAT, 5.0, 500), 12)
    _, f_pk = peak_force(ring)
    assert f_pk == pytest.approx(18.1, abs=0.1)           # hand: dense sweep


# ---------------------------------------------------------------------------
# shuttle transfer
# ---------------------------------------------------------------------------

def test_transfer_ratio_beam_count_ordering():
    r10 = shuttle_transfer_ratio(make_config(n_beams=10), 1.0)
    r12 = shuttle_transfer_ratio(make_config(n_beams=12), 1.0)
    assert r10 > r12


def test_transfer_ratio_strictly_decreasing_in_beam_count():
    ratios = [shuttle_transfer_ratio(make_config(n_beams=n), 1.0)
              for n in (1, 4, 12, 40, 150, 600)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.05


def test_transfer_ratio_is_one_on_zero_stiffness_plateau():
    # past the crossover the per-beam force declines, the clamped tangent
    # stiffness vanishes and the transfer becomes rigid
    assert shuttle_transfer_ratio(make_config(), 3.0) == 1.0


def test_tangent_stiffness_is_half_the_exact_slope_clamped():
    # the demo beam's per-beam slopes: 12 E I cos^2 / L^3 + E A sin^2 / L,
    # halved, at rest; each branch's own slope on either side of d1's
    # crossover (the snap side clamped to 0); no step, so no straddling
    config = make_config()
    E, L, th = MAT.youngs_modulus_E, GEOM.length_L, GEOM.tilt_theta
    rest = (12.0 * E * GEOM.second_moment * math.cos(th) ** 2 / L ** 3
            + E * GEOM.area * math.sin(th) ** 2 / L) / 2.0
    xc = bistable_crossover(GEOM)
    k = beam_tangent_stiffness(config, [0.0, xc * (1 - 1e-12),
                                        xc * (1 + 1e-12)])
    assert k[0] == pytest.approx(rest, rel=1e-14)
    assert k[1] == pytest.approx(0.5337, abs=1e-4)
    assert k[2] == 0.0


def test_tangent_stiffness_refuses_a_slope_that_is_not_finite(monkeypatch):
    monkeypatch.setattr(mechanism, "_slope_rows",
                        lambda geoms, mat, dys: np.full(len(dys), np.nan))
    with pytest.raises(NumericalError, match="tangent stiffness is not finite"):
        beam_tangent_stiffness(make_config(), [1.0, 2.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dy", [1e-9, 2.3e-9, 1e-8, 1e-7])
def test_near_rest_travels_raise_and_warn_nothing(dy, monkeypatch):
    # this beam's cubic discriminant rounds to <= 0 at these travels, which
    # used to raise NumericalError in actuation_force; the closed-form root
    # meets the kernel's residual bound there
    geom = VBeamGeometry.from_degrees(72.19, 0.694, 5, 11.13)
    config = make_config(beam_geometry=geom)
    residuals = cardano_residuals(monkeypatch)
    assert actuation_force(geom, MAT, dy) > 0.0
    k = beam_tangent_stiffness(config, dy)
    response = grasper_response(config, dy)
    assert residuals and np.max(residuals) < 1.0
    assert k == pytest.approx(1.615869, rel=1e-6)
    assert 0.0 < response.shuttle_displacement < dy


@pytest.mark.filterwarnings("error")
def test_transfer_ratio_whose_split_overflows_is_refused():
    # 10 ** 308 beams times the rest stiffness used to overflow with a
    # RuntimeWarning to a ratio of 0, and grasper then wrote -0 forces
    config = make_config(n_beams=10 ** 308)
    with pytest.raises(ValidationError,
                       match=r"series split ks \+ n_beams k_b overflows"):
        shuttle_transfer_ratio(config, 0.0)
    with pytest.raises(ValidationError, match="series split"):
        grasper_sweep(config, [0.0, 1.0])
    # on the zero-stiffness plateau the split stays ks
    assert shuttle_transfer_ratio(config, 3.0) == 1.0


def test_transfer_ratio_in_unit_interval():
    for dy in np.linspace(0.1, 5.0, 20):
        r = shuttle_transfer_ratio(make_config(), float(dy))
        assert 0.0 < r <= 1.0


# ---------------------------------------------------------------------------
# jaw kinematics
# ---------------------------------------------------------------------------

def test_jaw_exact_at_anchors():
    config = make_config()
    assert jaw_opening(config, 3.2) == 7.13
    assert jaw_opening(config, 6.4) == 15.99
    assert jaw_opening(config, 8.0) == 20.52


def test_jaw_zero_at_rest():
    assert jaw_opening(make_config(), 0.0) == 0.0


def test_jaw_linear_between_anchors():
    assert jaw_opening(make_config(), 4.8) == pytest.approx(11.56, rel=1e-12)


def test_jaw_monotone_over_domain():
    config = make_config()
    values = [jaw_opening(config, d) for d in np.linspace(0.0, 8.0, 100)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_jaw_refuses_extrapolation():
    with pytest.raises(ValidationError, match=r"\[0, 8\]"):
        jaw_opening(make_config(), 8.5)
    with pytest.raises(ValidationError):
        jaw_opening(make_config(), -0.1)


# ---------------------------------------------------------------------------
# cantilever stress
# ---------------------------------------------------------------------------

def test_stress_hand_value():
    assert cantilever_stress(1.0, CantileverSection(3.0, 1.0, 10.0)) == 2.0


def test_stress_zero_moment():
    assert cantilever_stress(0.0, CantileverSection(3.0, 1.0, 10.0)) == 0.0


def test_stress_quarters_when_height_doubles():
    s1 = cantilever_stress(5.0, CantileverSection(3.0, 1.0, 10.0))
    s2 = cantilever_stress(5.0, CantileverSection(3.0, 2.0, 10.0))
    assert s1 == pytest.approx(4.0 * s2, rel=1e-15)


def test_stress_linear_in_moment():
    rng = np.random.default_rng(2)
    sec = CantileverSection(2.5, 1.2, 30.0)
    for _ in range(50):
        m = rng.uniform(0.1, 100.0)
        a = rng.uniform(0.1, 10.0)
        assert cantilever_stress(a * m, sec) == pytest.approx(
            a * cantilever_stress(m, sec), rel=1e-14)


# ---------------------------------------------------------------------------
# latch state machine
# ---------------------------------------------------------------------------

U = LatchPhase.UNSTRESSED
S = LatchPhase.STRESSED_LATCHED


def test_latch_engages_at_travel():
    out = latch_step(LatchState(U, 0.0), PullRing(8.0), 8.0)
    assert out.phase is S and out.ring_displacement == 8.0


def test_latch_short_pull_stays_unlatched():
    out = latch_step(LatchState(U, 0.0), PullRing(7.9), 8.0)
    assert out.phase is U and out.ring_displacement == 7.9


def test_latch_release_resets():
    out = latch_step(LatchState(S, 8.0), PressTrigger(), 8.0)
    assert out.phase is U and out.ring_displacement == 0.0


def test_latch_trigger_noop_when_unstressed():
    state = LatchState(U, 3.0)
    assert latch_step(state, PressTrigger(), 8.0) == state


def test_latch_pull_while_latched_keeps_at_least_travel():
    out = latch_step(LatchState(S, 8.0), PullRing(5.0), 8.0)
    assert out.phase is S and out.ring_displacement == 8.0
    out = latch_step(LatchState(S, 8.0), PullRing(9.0), 8.0)
    assert out.ring_displacement == 9.0


def test_latch_rejects_negative_pull():
    with pytest.raises(ValidationError):
        latch_step(LatchState(U, 0.0), PullRing(-1.0), 8.0)


def test_latch_rejects_an_unknown_event():
    with pytest.raises(ValidationError, match="unknown latch event 'pull'"):
        latch_step(LatchState(U, 0.0), "pull", 8.0)


# ---------------------------------------------------------------------------
# grasper response
# ---------------------------------------------------------------------------

def test_response_zero_input():
    r = grasper_response(make_config(), 0.0)
    assert r.ring_force == 0.0
    assert r.shuttle_displacement == 0.0
    assert r.jaw_opening == 0.0
    assert r.jaw_root_stress == 0.0
    assert r.latch.phase is U


def test_response_full_travel_matches_calibration_and_latch():
    r = grasper_response(make_config(), 8.0)
    assert r.jaw_opening == 20.52
    assert r.latch.phase is S


def test_response_latch_phase_flips_only_at_threshold():
    below = grasper_response(make_config(), 8.0 * (1 - 1e-9))
    at = grasper_response(make_config(), 8.0)
    assert below.latch.phase is U
    assert at.latch.phase is S


def test_response_shuttle_is_ratio_times_ring():
    config = make_config()
    d = 1.0
    expected = shuttle_transfer_ratio(config, d) * d
    assert grasper_response(config, d).shuttle_displacement == pytest.approx(
        expected, rel=1e-12)


def test_response_ring_force_composes_beam_force():
    config = make_config()
    d = 0.5
    r = grasper_response(config, d)
    expected = 12 * single_beam_force(GEOM, MAT, r.shuttle_displacement)
    assert r.ring_force == pytest.approx(expected, rel=1e-12)  # no ramp yet


def test_response_latch_ramp_exceeds_local_slope_prediction():
    # latch placed in the rising-force region so the ramp is visible
    config = make_config(latch_travel=1.0)
    f = {d: grasper_response(config, d).ring_force
         for d in (0.90, 0.94, 1.0)}
    slope = (f[0.94] - f[0.90]) / 0.04
    predicted = f[0.94] + slope * 0.06
    assert f[1.0] > predicted
    ramped = grasper_response(config, 1.0).ring_force
    base = config.n_beams * single_beam_force(GEOM, MAT,
                                              grasper_response(config, 1.0).shuttle_displacement)
    assert ramped == pytest.approx(1.5 * base, rel=1e-12)


def test_response_rejects_negative_input():
    with pytest.raises(ValidationError):
        grasper_response(make_config(), -1.0)


SWEEP_COLUMNS = ("ring", "ring_force", "shuttle", "opening", "stress",
                 "latched")


def test_sweep_columns_equal_single_responses():
    # the rest state, the rising and declining branches, the latch ramp and
    # a ring exactly at the latch travel
    config = make_config()
    ring = [0.0, 1e-4] + list(np.linspace(0.05, 7.9, 37)) + [8.0]
    sweep = grasper_sweep(config, ring)
    assert len(sweep) == len(ring)
    assert sweep.ring.tolist() == ring
    assert sweep.latched.dtype == bool
    rest = LatchState(U, 0.0)
    for i, d in enumerate(ring):
        r = grasper_response(config, d)
        assert (sweep.ring_force[i], sweep.shuttle[i], sweep.opening[i],
                sweep.stress[i]) == (r.ring_force, r.shuttle_displacement,
                                     r.jaw_opening, r.jaw_root_stress)
        assert r.latch == latch_step(rest, PullRing(d), config.latch_travel)
        assert sweep.latched[i] == (r.latch.phase is S)
    assert sweep.latched.tolist() == [False] * 39 + [True]


def test_empty_sweep_has_zero_length_columns():
    sweep = grasper_sweep(make_config(), [])
    assert len(sweep) == 0
    for name in SWEEP_COLUMNS:
        assert getattr(sweep, name).shape == (0,)


@pytest.mark.parametrize("name", SWEEP_COLUMNS)
def test_sweep_columns_are_read_only(name):
    column = getattr(grasper_sweep(make_config(), [0.5, 8.0]), name)
    with pytest.raises(ValueError, match="read-only"):
        column[0] = column[1]


def test_sweep_refuses_ragged_columns():
    with pytest.raises(ValidationError, match="share one length"):
        mechanism.GrasperSweep([0.0, 1.0], [0.0], [0.0, 1.0], [0.0, 1.0],
                               [0.0, 1.0], [False, False])


def test_non_finite_response_is_refused(monkeypatch):
    # unit transfer ratio, so only the shuttle force goes non-finite
    monkeypatch.setattr(mechanism, "beam_tangent_stiffness",
                        lambda config, d: np.zeros_like(d))
    monkeypatch.setattr(mechanism, "_force_rows",
                        lambda geoms, mat, d: (np.full((1, d.size), np.nan),))
    with pytest.raises(ValidationError,
                       match="response magnitudes must be finite"):
        grasper_sweep(make_config(), [0.5, 1.0])
    with pytest.raises(ValidationError,
                       match="response magnitudes must be finite"):
        grasper_response(make_config(), 1.0)


def test_a_sweep_checks_its_travels_twice(monkeypatch):
    # the ring travels where they enter, and again at the public
    # beam_tangent_stiffness; the shuttle force and both kernel passes take
    # checked floats.  A sweep used to make five checks.
    checks = count_travel_checks(monkeypatch)
    grasper_sweep(make_config(), np.linspace(0.1, 8.0, 50))
    assert len(checks) == 2


def test_a_response_checks_its_travel_three_times(monkeypatch):
    # where it enters, at the public beam_tangent_stiffness and at
    # latch_step; it used to check it again through grasper_sweep
    checks = count_travel_checks(monkeypatch)
    grasper_response(make_config(), 1.0)
    assert len(checks) == 3


@pytest.mark.parametrize("ring", [np.array([1.0, 2.0]), [1.0]])
def test_response_refuses_several_displacements(ring):
    with pytest.raises(ValidationError,
                       match="^ring_disp takes one travel"):
        grasper_response(make_config(), ring)
    sweep = grasper_sweep(make_config(), [1.0])
    r = grasper_response(make_config(), np.float64(1.0))
    assert (r.ring_force, r.shuttle_displacement, r.jaw_opening,
            r.jaw_root_stress, r.latch) == (
        sweep.ring_force[0], sweep.shuttle[0], sweep.opening[0],
        sweep.stress[0], LatchState(U, 1.0))


def test_sweep_rejects_negative_input():
    with pytest.raises(ValidationError, match="non-negative"):
        grasper_sweep(make_config(), [1.0, -0.5])


def test_mechanism_functions_accept_arrays():
    config = make_config()
    dys = np.array([0.0, 0.3, 1.1, 2.5, 6.0])
    for fn in (lambda d: single_beam_force(GEOM, MAT, d),
               lambda d: beam_tangent_stiffness(config, d),
               lambda d: shuttle_transfer_ratio(config, d),
               lambda d: jaw_opening(config, d)):
        values = fn(dys)
        assert values.shape == dys.shape
        assert [fn(float(d)) for d in dys] == values.tolist()
        assert fn(tuple(dys)).tobytes() == values.tobytes()
    with pytest.raises(ValidationError, match=r"trigger_disp 8.5 outside"):
        jaw_opening(config, np.array([1.0, 8.5]))
