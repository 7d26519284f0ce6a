"""Whole-grasper behavior assembled from single-beam results.

The closed-form model reports the symmetric double V-beam force; the device
uses single V-beams, so the per-beam force is taken as half of that value and
the ring-level force as the halved force times the beam count.  This halving
is the device-level approximation the finite-element oracle is meant to
falsify, and it is kept in this one place, halved_ring_force, so it stays
testable.  Functions taking a travel also take an array of them, except
latch_step (one event) and grasper_response (one ring displacement).
grasper_sweep takes many and returns a GrasperSweep: one read-only column
each of ring displacement, ring force, shuttle travel, jaw opening, jaw-root
stress and the boolean latched, with row i the pull from rest to ring[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

from .beam import (ForceDisplacementCurve, MaterialModel, VBeamGeometry,
                   _load_column, _slope_rows, actuation_force)
from .errors import (FLOAT_MAX, NumericalError, ValidationError, _shown,
                     check_count, check_non_negative, check_positive)

# Fraction of the latch travel over which the engagement ramp acts.
LATCH_RAMP_SPAN = 0.05


@dataclass(frozen=True)
class CantileverSection:
    """Rectangular jaw cross-section and cantilever length.

    grasper_sweep's b h^3 / 12 and jaw_length^3 must be finite; h^2 and
    b h^2 then are too.  Python's float ** raises where * gives inf, so
    each power is taken as the sweep takes it, in Python floats, and one
    that overflows is refused.
    """

    out_of_plane_b: float
    in_plane_h: float
    jaw_length: float

    def __post_init__(self):
        for name in ("out_of_plane_b", "in_plane_h", "jaw_length"):
            check_positive(name, getattr(self, name))
        b, h, length = map(float, (self.out_of_plane_b, self.in_plane_h,
                                   self.jaw_length))
        try:
            finite = (math.isfinite(b * h ** 3 / 12.0)
                      and math.isfinite(length ** 3))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                "the jaw section's b h^3 / 12 and jaw_length^3 must be finite")


class LatchPhase(Enum):
    UNSTRESSED = "Unstressed"
    STRESSED_LATCHED = "StressedLatched"


@dataclass(frozen=True)
class LatchState:
    phase: LatchPhase
    ring_displacement: float


@dataclass(frozen=True)
class PullRing:
    """Pull the actuation ring proximally by d mm."""

    d: float


@dataclass(frozen=True)
class PressTrigger:
    """Press the trigger, releasing the latch."""


LatchEvent = Union[PullRing, PressTrigger]


@dataclass(frozen=True)
class MechanismConfig:
    """Whole-grasper description.

    jaw_calibration anchors map trigger (ring) displacement to jaw opening
    and implicitly include (0, 0); series_stiffness_ks lumps the handle and
    ring compliance between the ring and the beam shuttle.  The default ks of
    10 N/mm is an uncalibrated placeholder: quantitative transfer claims need
    a measured value.  latch_ramp_factor scales the ring force at full latch
    engagement; only the existence of the stiffening is documented, not its
    magnitude.  The beam's load scale must neither overflow nor underflow
    to 0 (beam._load_column).
    """

    beam_geometry: VBeamGeometry
    n_beams: int
    material: MaterialModel
    latch_travel: float
    jaw_calibration: Tuple[Tuple[float, float], ...]
    jaw_section: CantileverSection
    series_stiffness_ks: float = 10.0
    overall_length_budget: float = 200.0
    latch_ramp_factor: float = 1.5

    def __post_init__(self):
        check_count("n_beams", self.n_beams, 1)
        _load_column([self.beam_geometry], self.material)
        for name in ("latch_travel", "series_stiffness_ks",
                     "overall_length_budget"):
            check_positive(name, getattr(self, name))
        if not 1.0 <= self.latch_ramp_factor <= FLOAT_MAX:
            raise ValidationError("latch_ramp_factor must be finite and at "
                                  "least 1")
        prev, anchors = (0.0, 0.0), []
        for t, j in self.jaw_calibration:  # in range before float() reads it
            if not (abs(t) <= FLOAT_MAX and abs(j) <= FLOAT_MAX
                    and prev[0] < float(t) and prev[1] < float(j)):
                raise ValidationError(
                    "jaw_calibration anchors must be finite and increase "
                    "strictly in both coordinates starting from the implicit "
                    "(0, 0)")
            prev = (float(t), float(j))
            anchors.append(prev)
        if not anchors:
            raise ValidationError("jaw_calibration needs at least one anchor")
        object.__setattr__(self, "jaw_calibration", tuple(anchors))


@dataclass(frozen=True)
class GrasperResponse:
    ring_force: float
    shuttle_displacement: float
    jaw_opening: float
    latch: LatchState
    jaw_root_stress: float


@dataclass(frozen=True)
class GrasperSweep:
    """Whole-grasper response over a ring sweep, one read-only column each.

    Row i is a pull from rest to ring[i] [mm]: ring_force [N], shuttle
    travel [mm], jaw opening [mm], jaw-root stress [MPa], and latched, which
    is ring >= latch_travel, the phase latch_step gives such a pull.
    """

    ring: np.ndarray
    ring_force: np.ndarray
    shuttle: np.ndarray
    opening: np.ndarray
    stress: np.ndarray
    latched: np.ndarray

    def __post_init__(self):
        for name in ("ring", "ring_force", "shuttle", "opening", "stress",
                     "latched"):
            arr = np.asarray(getattr(self, name),
                             dtype=bool if name == "latched" else float)
            if arr.ndim != 1 or arr.shape != np.shape(self.ring):
                raise ValidationError(
                    "sweep columns must be one-dimensional and share one "
                    "length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return int(self.ring.size)


def halved_ring_force(double_beam_force, n_beams: int):
    """Ring-level force: half the double V-beam force times the beam count."""
    return double_beam_force / 2.0 * n_beams


def aggregate_ring_force(double_beam_curve: ForceDisplacementCurve,
                         n_beams: int) -> ForceDisplacementCurve:
    """Ring-level curve: halve the double-beam force, times the beam count."""
    check_count("n_beams", n_beams, 1)
    return double_beam_curve.with_force(
        halved_ring_force(double_beam_curve.force, n_beams))


def single_beam_force(geom: VBeamGeometry, mat: MaterialModel, delta_y):
    """Per-beam shuttle-direction force, half the double V-beam value [N]."""
    return halved_ring_force(actuation_force(geom, mat, delta_y), 1)


def beam_tangent_stiffness(config: MechanismConfig, delta_y):
    """Single-beam tangent stiffness dF/d(dy), clamped to >= 0 [N/mm].

    Half the exact slope of the double V-beam force on the branch of each
    travel (beam._slope_rows), from one kernel pass at the travels
    themselves.  Negative tangents (the snap region) count as zero
    resistance for displacement-transfer purposes; a slope that is not
    finite raises.
    """
    check_non_negative("delta_y", delta_y)
    dys = np.array(delta_y, dtype=float)
    slope = _slope_rows([config.beam_geometry], config.material, dys.ravel())
    k = halved_ring_force(slope.reshape(dys.shape), 1)
    if not np.isfinite(k).all():
        raise NumericalError("tangent stiffness is not finite")
    return np.maximum(0.0, k)


def shuttle_transfer_ratio(config: MechanismConfig, delta_y):
    """Fraction of ring displacement reaching the shuttle, in (0, 1].

    Series-spring split: ratio = ks / (ks + n k_b) with k_b the clamped
    per-beam tangent stiffness at the given travel (beam_tangent_stiffness,
    exact on the travel's branch); a split that overflows is refused.
    """
    k_b = beam_tangent_stiffness(config, delta_y)
    ks = config.series_stiffness_ks
    with np.errstate(over="ignore"):
        split = ks + config.n_beams * k_b
    if not np.isfinite(split).all():
        raise ValidationError("the series split ks + n_beams k_b overflows")
    return ks / split


def jaw_opening(config: MechanismConfig, trigger_disp):
    """Jaw opening from trigger displacement by calibrated interpolation [mm].

    Piecewise linear through (0, 0) and the calibration anchors; evaluation
    outside the calibrated span is refused because the device diverges from
    any calibration there.
    """
    t_max = config.jaw_calibration[-1][0]
    disp = np.asarray(trigger_disp)
    inside = (0.0 <= disp) & (disp <= t_max)
    if not np.all(inside):
        bad = disp.flat[np.argmin(inside)]  # as given past the float range
        bad = _shown(bad) if abs(bad) > FLOAT_MAX else f"{bad:g}"
        raise ValidationError(f"trigger_disp {bad} outside the calibrated "
                              f"span [0, {t_max:g}] mm")
    ts, js = zip((0.0, 0.0), *config.jaw_calibration)
    return np.interp(disp.astype(float, copy=False), ts, js)


def cantilever_stress(moment: float, section: CantileverSection) -> float:
    """Peak bending stress of a rectangular section, 6 M / (b h^2) [MPa]."""
    return 6.0 * moment / (section.out_of_plane_b * section.in_plane_h ** 2)


def latch_step(state: LatchState, event: LatchEvent,
               latch_travel: float) -> LatchState:
    """Advance the two-phase latch state machine by one event.

    Pulling past the latch travel engages the notch; pulls short of it
    return elastically (modeled as staying unlatched at the pulled position);
    pressing the trigger releases a latched mechanism and is a no-op on an
    unlatched one.
    """
    if isinstance(event, PullRing):
        check_non_negative("ring displacement", event.d)
        if state.phase is LatchPhase.UNSTRESSED:
            if event.d >= latch_travel:
                return LatchState(LatchPhase.STRESSED_LATCHED, event.d)
            return LatchState(LatchPhase.UNSTRESSED, event.d)
        return LatchState(LatchPhase.STRESSED_LATCHED,
                          max(event.d, latch_travel))
    if isinstance(event, PressTrigger):
        if state.phase is LatchPhase.STRESSED_LATCHED:
            return LatchState(LatchPhase.UNSTRESSED, 0.0)
        return state
    raise ValidationError(f"unknown latch event {event!r}")


def _latch_ramp(config: MechanismConfig, ring_disp):
    """Smooth force multiplier over the final span of the latch travel."""
    start = (1.0 - LATCH_RAMP_SPAN) * config.latch_travel
    z = np.clip((ring_disp - start) / (LATCH_RAMP_SPAN * config.latch_travel),
                0.0, 1.0)
    smooth = z * z * (3.0 - 2.0 * z)
    return 1.0 + (config.latch_ramp_factor - 1.0) * smooth


def grasper_sweep(config: MechanismConfig, ring_disps) -> GrasperSweep:
    """Full response of the grasper at each ring displacement of a sequence.

    The ring displacement splits between beam travel and handle compliance
    through the transfer ratio evaluated at the ring displacement itself; the
    exact split is not pinned down by the device description, so this is a
    declared simplification.  The jaw responds to the ring displacement per
    the calibration, and the jaw root stress follows from the linear
    cantilever tip relation (small-deflection only).  Two passes of the load
    kernel, n samples each, serve a sweep of n ring displacements: the exact
    tangent stiffness at the ring displacements, then the shuttle force at
    the shuttle travels.
    """
    check_non_negative("ring_disp", ring_disps)
    ring = np.array(ring_disps, dtype=float, ndmin=1)
    shuttle = shuttle_transfer_ratio(config, ring) * ring
    force = actuation_force(config.beam_geometry, config.material, shuttle)
    opening = jaw_opening(config, ring)

    sec = config.jaw_section
    # extreme mechanisms make these products inf or NaN (a latch travel
    # whose ramp span underflows to zero, a huge latch_ramp_factor, a jaw
    # section whose h^2 underflows); the finite check below refuses them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ring_force = (halved_ring_force(force, config.n_beams)
                      * _latch_ramp(config, ring))
        i_jaw = sec.out_of_plane_b * sec.in_plane_h ** 3 / 12.0
        tip_force = (3.0 * config.material.youngs_modulus_E * i_jaw * opening
                     / sec.jaw_length ** 3)
        stress = cantilever_stress(tip_force * sec.jaw_length, sec)
    if not np.isfinite((ring_force, shuttle, opening, stress)).all():
        raise ValidationError("response magnitudes must be finite")
    return GrasperSweep(ring, ring_force, shuttle, opening, stress,
                        ring >= config.latch_travel)


def grasper_response(config: MechanismConfig, ring_disp: float) -> GrasperResponse:
    """grasper_sweep at one ring displacement; an array goes to grasper_sweep.

    The latch state comes from latch_step, the reference for the sweep's
    latched column.
    """
    if np.ndim(ring_disp):
        raise ValidationError("grasper_response takes one ring displacement; "
                              "use grasper_sweep for several")
    sweep = grasper_sweep(config, [ring_disp])
    d, f, s, j, st = (float(c[0]) for c in (
        sweep.ring, sweep.ring_force, sweep.shuttle, sweep.opening,
        sweep.stress))
    latch = latch_step(LatchState(LatchPhase.UNSTRESSED, 0.0), PullRing(d),
                       config.latch_travel)
    return GrasperResponse(f, s, j, latch, st)
