"""Closed-form load-deflection model for tilted V-beam flexures.

A V-beam is a straight slender flexure of length L, in-plane thickness T and
out-of-plane width W, inclined at angle theta to the direction normal to the
shuttle travel.  One end is clamped; the other (guided) end translates with
the shuttle, rotation suppressed.  For a shuttle travel dy the guided-end
deflections and loads are expressed through the non-dimensional variables

    x_o = -2 dy sin(theta) / L      (axial deflection)
    y_o = -2 dy cos(theta) / L      (transverse deflection)
    t   =  2 T / L
    f_o =  F_o L^2 / (4 E I),  p_o = P_o L^2 / (4 E I),  m_o = M_o L / (2 E I)

with I = W T^3 / 12.  A necessary (not sufficient) condition for a second
stable equilibrium at travel dy is

    d1 = -4.652 cos^2(theta)/L^2 dy + 6.514 sin(theta)/L dy - 21.46 T^2/L^2 >= 0.

On the d1 >= 0 branch the loads are f_o = -4.8618 y_o, p_o = -9.8837 (the
constant is the fixed-guided buckling scale, ~pi^2).  Otherwise p_o is the
real root, continuous with p = 0 at rest, of a cubic in p with coefficients
k1..k4 built from (t, x_o, y_o), and f_o follows from a rational expression
in that root.  On reachable d1 < 0 states the cubic has exactly one real
root.  At rest it is t1 p (p + 30)^2, so near rest its discriminant is zero
to rounding and the simple root is taken; a cubic with three distinct real
roots is refused.  The shuttle-direction actuation force is

    F = -(4 E I f_o / L^2 cos(theta) + 4 E I p_o / L^2 sin(theta)).

One array kernel, _loads, evaluates a block of geometries (rows) at one set
of travels (columns) in a single pass (_kernel_pass); branch_loads wraps
it.  The loads f_o and p_o depend on (L, T, theta) and the travel, not on
W, which enters through the load scale 4 E I / L^2 alone.  _load_scale is
the one place that scale is computed, and _load_column refuses one that
overflows or underflows to 0, once per pass.  _force is the one force
expression, and refuses a force that overflows a finite scale, once per
call: _force_rows, the force entry of force_curve and actuation_force,
applies it to a pass's rows, _slope_rows to their travel derivatives, and
the design search (search._records) to the rows of each beam shape at each
width's load scale.
_slope_rows is the one slope entry: the exact dF/ds on each sample's
branch, from one pass's root by implicit differentiation of the cubic and
the chain rule through the rational expression (at rest it is
12 E I cos^2(theta) / L^3 + E A sin^2(theta) / L).  solve_monostable_cubic
and the scalar chain before it are the reference.

All lengths are mm, forces N, moduli MPa (= N/mm^2); angles are radians
internally and degrees only at interface boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (FLOAT_MAX, NumericalError, SingularityError,
                     ValidationError, _shown, check_count, check_non_negative,
                     check_positive)

BISTABLE_FO_SLOPE = -4.8618
BISTABLE_PO = -9.8837

# Default number of sweep samples; resolves the ~1.1 mm branch crossover of
# Table-scale geometry at 0.01 mm resolution over a 5 mm travel.
DEFAULT_CURVE_SAMPLES = 500

# Largest sample or step count of a sweep (uniform_travels, and the config's
# sweep.n_samples and fe.n_steps).  At the cap a force_curve takes 0.2 s and
# 55 MB, a frame-solver sweep about 13 minutes.
SAMPLE_CAP = 1_000_000


class Branch(Enum):
    """Which load-deflection branch produced a state."""

    BISTABLE = "Bistable"
    MONOSTABLE = "Monostable"

    @classmethod
    def tags(cls, bistable: np.ndarray) -> Tuple["Branch", ...]:
        """Branch per sample of a boolean bistability mask."""
        return tuple(map((cls.MONOSTABLE, cls.BISTABLE).__getitem__,
                         bistable.tolist()))


@dataclass(frozen=True)
class VBeamGeometry:
    """Tilted flexure dimensions.  Angle stored in radians."""

    length_L: float
    thickness_T: float
    width_W: float
    tilt_theta: float

    def __post_init__(self):
        for name in ("length_L", "thickness_T", "width_W"):
            check_positive(name, getattr(self, name))
        if not (0 <= self.tilt_theta < math.pi / 2):
            raise ValidationError("tilt_theta must lie in [0, pi/2)")
        if not self.thickness_T < self.length_L:
            raise ValidationError(
                "thickness_T must be smaller than length_L (slender beam)")
        # the model's per-geometry scales, L^2 and the second moment W T^3
        L, T = float(self.length_L), float(self.thickness_T)
        if not (L * L < math.inf and T * T * T * float(self.width_W) < math.inf):
            raise ValidationError(
                "beam dimensions overflow the model: L^2 and W T^3 must be "
                "finite")

    @classmethod
    def from_degrees(cls, length_L, thickness_T, width_W, tilt_deg):
        return cls(length_L, thickness_T, width_W, math.radians(tilt_deg))

    @property
    def second_moment(self) -> float:
        """In-plane bending second moment of area, W T^3 / 12 [mm^4]."""
        return self.width_W * self.thickness_T ** 3 / 12.0

    @property
    def area(self) -> float:
        """Cross-section area W T [mm^2]."""
        return self.width_W * self.thickness_T


@dataclass(frozen=True)
class MaterialModel:
    """Linear elastic material; every model reads E alone, not poisson_ratio."""

    youngs_modulus_E: float
    poisson_ratio: float = 0.3

    def __post_init__(self):
        check_positive("youngs_modulus_E", self.youngs_modulus_E)
        if not (0 <= self.poisson_ratio < 0.5):
            raise ValidationError("poisson_ratio must lie in [0, 0.5)")


@dataclass(frozen=True)
class NormalizedDeflection:
    """Non-dimensional guided-end deflections for a travel delta_y."""

    x_o: float
    y_o: float
    t: float
    delta_y: float


@dataclass(frozen=True)
class MonostableIntermediates:
    """Cubic coefficients and closed-form root data for the d1 < 0 branch.

    k1..k4 are the cubic coefficients in p; c1, c2 the nested radicals of the
    closed-form (Cardano) solution; p1 the closed-form real root, a second
    form of the root the kernel takes (_monostable_root).  c2 and p1 are
    NaN when the cubic has three distinct real roots (the casus
    irreducibilis), which solve_monostable_cubic refuses; a discriminant
    zero to rounding, as near rest, does not count as one.  The generating
    state (t, x_o, y_o) is kept for reference; x_o = y_o = k4 = 0 marks the
    undeformed state.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    c1: float
    c2: float
    p1: float
    t: float = 0.0
    x_o: float = 0.0
    y_o: float = 0.0

    def __post_init__(self):
        check_positive("k1", self.k1)

    def cubic(self, p: float) -> float:
        return ((self.k1 * p + self.k2) * p + self.k3) * p + self.k4


@dataclass(frozen=True)
class BeamLoadState:
    """Normalized guided-end loads at one travel (the model gives no m_o)."""

    f_o: float
    p_o: float
    branch: Branch
    d1_value: float


@dataclass(frozen=True, eq=False)
class ForceDisplacementCurve:
    """Sampled (travel, force) path with branch annotations.

    Forces are the symmetric double V-beam values of the closed-form model;
    per-beam and ring-level aggregation live in the mechanism layer.  Arrays
    are read-only; delta_y is strictly increasing and starts above zero.
    """

    delta_y: np.ndarray
    force: np.ndarray
    f_o: np.ndarray
    p_o: np.ndarray
    branches: Tuple[Branch, ...]

    def __post_init__(self):
        for name in ("delta_y", "force", "f_o", "p_o"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.delta_y.size == 0:
            raise ValidationError("curve must contain at least one sample")
        if not np.all(np.diff(self.delta_y) > 0):
            raise ValidationError("delta_y samples must be strictly increasing")
        if not self.delta_y[0] > 0:
            raise ValidationError("first sample must be at delta_y > 0")
        n = self.delta_y.size
        if not (self.force.size == self.f_o.size == self.p_o.size ==
                len(self.branches) == n):
            raise ValidationError("curve arrays must share one length")

    def __len__(self):
        return int(self.delta_y.size)

    def with_force(self, force: np.ndarray) -> "ForceDisplacementCurve":
        """The curve with a replaced force array, sharing its read-only grid."""
        return replace(self, force=force)


def normalize_deflection(geom: VBeamGeometry, delta_y: float) -> NormalizedDeflection:
    """Convert a shuttle travel into the non-dimensional deflection state."""
    check_non_negative("delta_y", delta_y)
    return NormalizedDeflection(
        x_o=-2.0 * delta_y * math.sin(geom.tilt_theta) / geom.length_L,
        y_o=-2.0 * delta_y * math.cos(geom.tilt_theta) / geom.length_L,
        t=2.0 * geom.thickness_T / geom.length_L,
        delta_y=delta_y,
    )


def bistability_margin(geom: VBeamGeometry, delta_y: float) -> Tuple[float, bool]:
    """Evaluate the necessary bistability criterion d1 at a travel.

    Returns (d1, satisfied) with satisfied <=> d1 >= 0.  d1 is affine in
    delta_y with a strictly negative value at delta_y = 0.  delta_y may be an
    array, in which case d1 and satisfied are arrays of its shape.
    """
    check_non_negative("delta_y", delta_y)
    a, b, c = _d1_terms(geom)
    d1 = a * delta_y + b * delta_y - c
    return d1, d1 >= 0.0


def _d1_terms(geom: VBeamGeometry) -> Tuple[float, float, float]:
    """Scalars (a, b, c) of d1 = a dy + b dy - c for a geometry."""
    L = geom.length_L
    th = geom.tilt_theta
    return (-4.652 * math.cos(th) ** 2 / L ** 2, 6.514 * math.sin(th) / L,
            21.46 * geom.thickness_T ** 2 / L ** 2)


def bistable_crossover(geom: VBeamGeometry) -> float:
    """Travel at which d1 changes sign; inf when d1 stays negative.

    d1(dy) = (a + b) dy - c with c > 0, so the crossover is c / (a + b) when
    the slope a + b is positive and never occurs otherwise.
    """
    a, b, c = _d1_terms(geom)
    slope = a + b
    return c / slope if slope > 0 else math.inf


def _t_terms(t: float) -> Tuple[float, float, float]:
    """The thickness terms of k1, k2 and k3."""
    return 4.0 * t ** 2 / 675.0, 16.0 * t ** 2 / 45.0, 16.0 * t ** 2 / 3.0


def _k_coefficients(t_terms, x_o, y_o):
    """Cubic coefficients k1..k4 from the _t_terms and the state."""
    t1, t2, t3 = t_terms
    k1 = t1 + y_o ** 2 / 42000.0
    k2 = t2 - 17.0 * y_o ** 2 / 2100.0 - 8.0 * x_o / 225.0
    k3 = t3 - 96.0 * y_o ** 2 / 175.0 - 32.0 * x_o / 15.0
    k4 = -48.0 * y_o ** 2 / 5.0 - 32.0 * x_o
    return k1, k2, k3, k4


def _cube(x):
    """x^3 of an array, as the sign of x times |x|^3.

    numpy's array power x ** 3 runs a vector loop only while every x is
    positive; a negative x drops it to a scalar path (numpy 2.4 on AVX-512,
    614 samples: about 90 us against 3 us), and the monostable branch has
    negative pp / 3 and c1 at every sample.  |x| ** 3 stays on the vector
    loop and copysign restores the sign, so a positive x gives the bits of
    x ** 3 and a negative one differs from it by at most one ulp; -0.0, NaN
    and +-inf keep their values.  x * x * x would round twice.
    """
    return np.copysign(np.abs(x) ** 3, x)


# A cubic discriminant above -_DISC_ROUNDING times its square term is zero
# to rounding.  Near rest the cubic tends to t1 p (p + 30)^2, whose double
# root makes the discriminant cancel: below about 1e-6 mm of travel it comes
# out within 1.2e-14 of that term, of either sign.
_DISC_ROUNDING = 1e-12


def _radicand(disc, term):
    """disc, to take the square root of: 0 where it is zero to rounding of
    its square term term^2 but not positive, NaN where it is negative beyond
    that."""
    return np.where(disc > -_DISC_ROUNDING * term ** 2, np.maximum(disc, 0.0),
                    np.nan)


def _unique_root(k1, k2, k3, k4):
    """The real root of k1 p^3 + k2 p^2 + k3 p + k4 continuous with p = 0
    at rest, k1 > 0.

    Coefficients are scalars or arrays of one shape.  With p = q - b/3 the
    cubic becomes q^3 + pp q + qq, whose real root is the Cardano sum of two
    real cube roots wherever the discriminant (qq/2)^2 + (pp/3)^3 is
    positive.  Where it is zero to rounding (_radicand), as near rest, the
    sum with a zero square root is the simple root, the one away from the
    double root near -30.  A discriminant negative beyond rounding means
    three distinct real roots, which the monostable branch never reaches;
    it raises.  The cubes b^3 and (pp/3)^3 go through _cube.
    """
    b, c, d = k2 / k1, k3 / k1, k4 / k1
    pp = c - b * b / 3.0
    qq = 2.0 * _cube(b) / 27.0 - b * c / 3.0 + d
    disc = (qq / 2.0) ** 2 + _cube(pp / 3.0)
    s = np.sqrt(_radicand(disc, qq / 2.0))
    if np.isnan(s).any():
        raise NumericalError(
            f"cubic discriminant {np.min(disc):.3e} is negative beyond "
            f"rounding: the cubic has more than one real root")
    return np.cbrt(-qq / 2.0 + s) + np.cbrt(-qq / 2.0 - s) - b / 3.0


def _cardano_root(k1, k2, k3, k4):
    """Closed-form real root of the cubic, plus the nested radicals (c1, c2).

    Uses the resolvent c1 = -k2^2 + 3 k1 k3 and the cube-root term
    c2 = cbrt(-2 k2^3 + 9 k1 k2 k3 - 27 k1^2 k4 + sqrt(4 c1^3 + (...)^2));
    the root is -k2/(3 k1) - cbrt(2) c1 / (3 k1 c2) + c2 / (3 cbrt(2) k1).
    The radicand equals 2916 k1^6 times the discriminant of _unique_root,
    and inner^2 2916 k1^6 times its square term, so both go through
    _radicand: where that kernel returns, the radicand is positive or zero
    to rounding; elsewhere c2 and the root are NaN.  Coefficients are scalars
    or arrays of one shape; the cubes k2^3 and c1^3 go through _cube.  No
    evaluation path calls it: it gives monostable_intermediates its c1, c2
    and p1.
    """
    c1 = -k2 ** 2 + 3.0 * k1 * k3
    inner = -2.0 * _cube(k2) + 9.0 * k1 * k2 * k3 - 27.0 * k1 ** 2 * k4
    c2 = np.cbrt(inner + np.sqrt(_radicand(4.0 * _cube(c1) + inner ** 2,
                                           inner)))
    cbrt2 = 2.0 ** (1.0 / 3.0)
    root = -k2 / (3.0 * k1) - cbrt2 * c1 / (3.0 * k1 * c2) \
        + c2 / (3.0 * cbrt2 * k1)
    return root, c1, c2


def monostable_intermediates(nd: NormalizedDeflection) -> MonostableIntermediates:
    """Build the cubic coefficients and closed-form root data for a state."""
    k1, k2, k3, k4 = _k_coefficients(_t_terms(nd.t), nd.x_o, nd.y_o)
    p1, c1, c2 = _cardano_root(k1, k2, k3, k4)
    return MonostableIntermediates(
        k1=k1, k2=k2, k3=k3, k4=k4, c1=c1, c2=float(c2), p1=float(p1),
        t=nd.t, x_o=nd.x_o, y_o=nd.y_o)


def solve_monostable_cubic(inter: MonostableIntermediates) -> float:
    """Real root of the cubic on the d1 < 0 branch.

    The scalar reference for the load kernel (_loads), which no evaluation
    path calls.  On that branch the cubic has exactly one real root,
    continuous with p = 0 at rest.  It is the root the kernel takes for the
    same state: _monostable_root on one-element arrays, whose numpy powers
    can differ from Python's in the last ulp.  A cubic with more than one
    real root, or a root whose residual misses the bound 1e-9 max(1, |k4|),
    raises NumericalError.
    """
    if inter.x_o == 0.0 and inter.y_o == 0.0 and inter.k4 == 0.0:
        return 0.0
    ks = np.array([[inter.k1], [inter.k2], [inter.k3], [inter.k4]])
    return _monostable_root(ks).item()


def _monostable_root(ks):
    """The unique real root of the cubics ks (_unique_root, no polish).

    A residual at or above 1e-9 max(1, |k4|) raises.  The residual, not a
    distance to another root, is bounded: at small travel the root is tiny
    and fixed by the cubic only to about its rounding error.
    """
    p = _unique_root(*ks)
    k1, k2, k3, k4 = ks
    residual = np.abs(((k1 * p + k2) * p + k3) * p + k4)
    if not np.all(residual < 1e-9 * np.maximum(1.0, np.abs(k4))):
        raise NumericalError(f"cubic residual {np.max(residual):.3e} exceeds "
                             f"its bound 1e-9 max(1, |k4|)")
    return p


def _rational_fo(y_o, p1):
    """Transverse load from the axial root on the cubic branch.

    y_o and p1 are scalars or arrays of one shape.
    """
    den = 4.0 + 2.0 * p1 / 15.0 - 11.0 * p1 ** 2 / 6300.0
    if np.less(np.abs(den), 1e-9).any():
        raise SingularityError(
            f"force expression denominator {np.min(np.abs(den)):.3e} is "
            f"numerically singular")
    num = (-6.0 - p1 / 10.0 + p1 ** 2 / 1400.0) ** 2
    return y_o / 2.0 * ((12.0 + 6.0 * p1 / 5.0 + p1 ** 2 / 700.0) - num / den)


class _Columns(NamedTuple):
    """Per-geometry scalars of the load kernel, each a (G, 1) column.

    Every entry is the model's Python scalar expression for its geometry, so
    a row of a batched pass equals the one-geometry pass bit for bit (numpy's
    array power can differ from Python's in the last ulp).
    """

    L: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    d1_a: np.ndarray
    d1_b: np.ndarray
    d1_c: np.ndarray
    k1_t: np.ndarray
    k2_t: np.ndarray
    k3_t: np.ndarray


def _columns(geoms: Sequence[VBeamGeometry]) -> _Columns:
    rows = [(g.length_L, math.cos(g.tilt_theta), math.sin(g.tilt_theta),
             *_d1_terms(g), *_t_terms(2.0 * g.thickness_T / g.length_L))
            for g in geoms]
    return _Columns(*np.array(rows, dtype=float).T[:, :, None])


def _loads(cols: _Columns, dys: np.ndarray):
    """Normalized loads (f_o, p_o) and the bistable mask, shape (G, n).

    The one evaluator of the model: G geometries (columns from _columns) at
    travels dys >= 0 of shape (n,), in one pass.  Bistable samples take the
    constant axial-load branch and zero travel the unloaded state; every
    other sample takes the unique real cubic root (_monostable_root).  A
    sample that fails a check raises for the whole pass, and so does a
    travel so large that the cubic's coefficients overflow.
    """
    check_non_negative("delta_y", dys)
    bistable = cols.d1_a * dys + cols.d1_b * dys - cols.d1_c >= 0.0
    x_o = -2.0 * dys * cols.sin / cols.L
    y_o = -2.0 * dys * cols.cos / cols.L
    mono = ~bistable & (dys != 0.0)

    rows = mono.nonzero()[0]
    t_terms = [c[rows, 0] for c in (cols.k1_t, cols.k2_t, cols.k3_t)]
    try:
        with np.errstate(over="raise"):
            ks = _k_coefficients(t_terms, x_o[mono], y_o[mono])
    except FloatingPointError as exc:
        raise ValidationError(
            f"the cubic's coefficients overflow at travels up to "
            f"{np.max(dys):g}: the travel is too large for the beam's "
            f"length") from exc
    p_mono = _monostable_root(ks)
    f_o = BISTABLE_FO_SLOPE * y_o
    f_o[mono] = _rational_fo(y_o[mono], p_mono)
    p_o = np.where(bistable, BISTABLE_PO, 0.0)
    p_o[mono] = p_mono
    return f_o, p_o, bistable


def _load_scale(geom: VBeamGeometry, mat: MaterialModel) -> float:
    """4 E I / L^2 [N], the scale of the normalized loads f_o and p_o."""
    return 4.0 * mat.youngs_modulus_E * geom.second_moment / geom.length_L ** 2


def _load_column(geoms: Sequence[VBeamGeometry], mat: MaterialModel):
    """The (G, 1) column of the geometries' _load_scale; a scale that
    overflows, or underflows to 0, is refused, once per kernel pass."""
    load = np.array([[_load_scale(g, mat)] for g in geoms])
    if not np.isfinite(load).all():
        raise ValidationError(
            "the load scale 4 E I / L^2 overflows: the beam's width, "
            "thickness or Young's modulus is too large for its length")
    if not load.all():
        raise ValidationError(
            "the load scale 4 E I / L^2 underflows to 0: the beam's width, "
            "thickness or Young's modulus is too small for its length")
    return load


def _force(load, f_o, p_o, cos, sin):
    """The one force expression: the shuttle-direction force
    -(load f_o cos(theta) + load p_o sin(theta)) of normalized loads at the
    load scale load, elementwise over broadcast arrays.  A force that
    overflows a finite load scale is refused for the whole call: numpy
    raises at the first overflowing or invalid operation, so one errstate
    checks every sample and no RuntimeWarning is emitted."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return -(load * f_o * cos + load * p_o * sin)
    except FloatingPointError as exc:
        raise ValidationError(
            "the force overflows at the load scale 4 E I / L^2: the beam's "
            "width, thickness or Young's modulus is too large for its "
            "length") from exc


def _kernel_pass(geoms: Sequence[VBeamGeometry], dys: np.ndarray):
    """One load-kernel pass: the geometries' _columns and their _loads
    (f_o, p_o, bistable) at travels dys, one row per geometry."""
    cols = _columns(geoms)
    return (cols, *_loads(cols, dys))


def _force_rows(geoms: Sequence[VBeamGeometry], mat: MaterialModel,
                dys: np.ndarray):
    """The force entry of force_curve and actuation_force: (force, f_o, p_o,
    bistable) of geometries at travels dys in one pass, one row per
    geometry."""
    cols, f_o, p_o, bistable = _kernel_pass(geoms, dys)
    force = _force(_load_column(geoms, mat), f_o, p_o, cols.cos, cols.sin)
    return force, f_o, p_o, bistable


def _slope_rows(geoms: Sequence[VBeamGeometry], mat: MaterialModel,
                dys: np.ndarray):
    """The one slope entry: dF/ds [N/mm] of geometries at travels dys in one
    _loads pass, one row per geometry, the exact slope of _force_rows' force
    on each sample's branch.

    On the bistable branch f_o = -4.8618 y_o and p_o is constant.  On the
    monostable branch, zero travel included, the pass's root p of the cubic
    C moves by dp/ds = -(dC/ds at fixed p) / (dC/dp), and f_o follows
    through _rational_fo.  The travel derivatives evaluate the kernel's own
    expressions (_k_coefficients, _rational_fo) at the complex travel
    s + i h, whose imaginary part over h is the derivative to rounding
    (complex-step differentiation; Squire & Trapp, SIAM Rev. 40(1), 1998).
    The force expression is linear in (f_o, p_o), so _force of their
    derivatives is the slope.
    """
    cols, _, p, bistable = _kernel_pass(geoms, dys)
    x_s, y_s = -2.0 * cols.sin / cols.L, -2.0 * cols.cos / cols.L
    h = 2.0 ** -100  # scales exactly; its O(h^2) error is nil in doubles
    s = dys + 1j * h
    y_o = s * y_s
    # every sample is differentiated and np.where keeps the monostable
    # ones; a bistable sample's cubic terms may divide by 0 or overflow
    with np.errstate(all="ignore"):
        k1, k2, k3, k4 = _k_coefficients((cols.k1_t, cols.k2_t, cols.k3_t),
                                         s * x_s, y_o)
        dp_ds = (-(((k1 * p + k2) * p + k3) * p + k4).imag / h
                 / ((3.0 * k1.real * p + 2.0 * k2.real) * p + k3.real))
        df_o = np.where(bistable, BISTABLE_FO_SLOPE * y_s,
                        _rational_fo(y_o, p + 1j * h * dp_ds).imag / h)
    return _force(_load_column(geoms, mat), df_o,
                  np.where(bistable, 0.0, dp_ds), cols.cos, cols.sin)


def branch_loads(geom: VBeamGeometry, delta_y: float) -> BeamLoadState:
    """Guided-end normalized loads at a travel, with branch selection."""
    d1, _ = bistability_margin(geom, delta_y)
    _, f_o, p_o, bistable = _kernel_pass([geom],
                                         np.array([delta_y], dtype=float))
    return BeamLoadState(f_o=f_o.item(), p_o=p_o.item(),
                         branch=Branch.tags(bistable[0])[0], d1_value=d1)


def actuation_force(geom: VBeamGeometry, mat: MaterialModel, delta_y):
    """Shuttle-direction force of the symmetric double V-beam at a travel [N].

    delta_y may be an array, in which case the force is an array of its
    shape.
    """
    check_non_negative("delta_y", delta_y)
    dys = np.array(delta_y, dtype=float, ndmin=1)
    force = _force_rows([geom], mat, dys.ravel())[0].reshape(dys.shape)
    return force if np.ndim(delta_y) else force.item()


def uniform_travels(travel_max: float, n: int) -> np.ndarray:
    """The n uniform travels travel_max * k / n, k = 1..n, over (0, travel_max].

    The last is travel_max itself, which travel_max * n / n can miss by an
    ulp either way.  An n that is not an integer of at least 1 (a
    non-integer n would step past travel_max), an n above SAMPLE_CAP, a
    travel_max or travel_max * n beyond the float range and a positive
    travel_max below n * 5e-324 (math.ulp(0.0)), whose travels would not
    rise strictly from above 0, are refused before numpy allocates.
    """
    check_count("sample count", n, 1, SAMPLE_CAP)
    if not (abs(travel_max) <= FLOAT_MAX
            and abs(float(travel_max) * int(n)) <= FLOAT_MAX):
        raise ValidationError(f"travel_max {_shown(travel_max)} times {n} "
                              "samples is not finite")
    if 0.0 < travel_max < n * math.ulp(0.0):
        raise ValidationError(
            f"travel_max {float(travel_max)!r} is below {n} * 5e-324: its "
            f"{n} travels would not rise strictly from above 0")
    travels = travel_max * np.arange(1, n + 1) / n
    travels[-1] = travel_max
    return travels


def force_curve(geom: VBeamGeometry, mat: MaterialModel, travel_max: float,
                n_samples: int = DEFAULT_CURVE_SAMPLES) -> ForceDisplacementCurve:
    """Uniformly sampled force-displacement curve over (0, travel_max]."""
    check_positive("travel_max", travel_max)
    check_count("n_samples", n_samples, 2)
    dys = uniform_travels(travel_max, n_samples)
    force, f_o, p_o, bistable = _force_rows([geom], mat, dys)
    return ForceDisplacementCurve(
        delta_y=dys, force=force[0], f_o=f_o[0], p_o=p_o[0],
        branches=Branch.tags(bistable[0]))


def peak_force(curve: ForceDisplacementCurve) -> Tuple[float, float]:
    """(delta_y, force) of the maximal-force sample; equal forces take the smaller travel."""
    i = int(np.argmax(curve.force))
    return float(curve.delta_y[i]), float(curve.force[i])
