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
unique real root of a cubic in p with coefficients k1..k4 built from
(t, x_o, y_o), cross-checked against the closed-form Cardano expression, and
f_o follows from a rational expression in that root.  On reachable d1 < 0
states the cubic has exactly one real root; a cubic with more is refused.
The shuttle-direction actuation force is

    F = -(4 E I f_o / L^2 cos(theta) + 4 E I p_o / L^2 sin(theta)).

force_curve, branch_loads and actuation_force wrap one array kernel, _loads,
which evaluates a block of geometries (rows) at one set of travels (columns)
in a single pass; a single geometry is the one-row case.
solve_monostable_cubic and the scalar chain before it are its reference.

All lengths are mm, forces N, moduli MPa (= N/mm^2); angles are radians
internally and degrees only at interface boundaries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, SingularityError, ValidationError

log = logging.getLogger(__name__)

BISTABLE_FO_SLOPE = -4.8618
BISTABLE_PO = -9.8837

# Default number of sweep samples; resolves the ~1.1 mm branch crossover of
# Table-scale geometry at 0.01 mm resolution over a 5 mm travel.
DEFAULT_CURVE_SAMPLES = 500


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
        if not self.length_L > 0:
            raise ValidationError("length_L must be positive")
        if not self.thickness_T > 0:
            raise ValidationError("thickness_T must be positive")
        if not self.width_W > 0:
            raise ValidationError("width_W must be positive")
        if not (0 <= self.tilt_theta < math.pi / 2):
            raise ValidationError("tilt_theta must lie in [0, pi/2)")
        if not self.thickness_T < self.length_L:
            raise ValidationError(
                "thickness_T must be smaller than length_L (slender beam)")

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
        if not self.youngs_modulus_E > 0:
            raise ValidationError("youngs_modulus_E must be positive")
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
    closed-form (Cardano) solution; p1 the closed-form real root, against
    which solve_monostable_cubic checks its root.  c2 and p1 are NaN when the
    cubic has three real roots (the casus irreducibilis), which
    solve_monostable_cubic refuses.  The generating state (t, x_o, y_o) is
    kept for reference; x_o = y_o = k4 = 0 marks the undeformed state.
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
        if not self.k1 > 0:
            raise ValidationError("k1 must be positive")

    def cubic(self, p: float) -> float:
        return ((self.k1 * p + self.k2) * p + self.k3) * p + self.k4


@dataclass(frozen=True)
class BeamLoadState:
    """Normalized guided-end loads at one travel.

    m_o is never produced by the load model and stays None rather than being
    given an invented value.
    """

    f_o: float
    p_o: float
    branch: Branch
    d1_value: float
    m_o: Optional[float] = None


class CurveSample(NamedTuple):
    delta_y: float
    force: float
    branch: Branch
    f_o: float
    p_o: float


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
    geometry: VBeamGeometry
    material: MaterialModel

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

    @property
    def samples(self) -> Tuple[CurveSample, ...]:
        return tuple(
            CurveSample(float(d), float(f), b, float(fo), float(po))
            for d, f, b, fo, po in zip(
                self.delta_y, self.force, self.branches, self.f_o, self.p_o))

    def with_force(self, force: np.ndarray) -> "ForceDisplacementCurve":
        """Copy of the curve with a replaced force array (same grid)."""
        return ForceDisplacementCurve(
            self.delta_y.copy(), np.asarray(force, dtype=float),
            self.f_o.copy(), self.p_o.copy(), self.branches,
            self.geometry, self.material)


def normalize_deflection(geom: VBeamGeometry, delta_y: float) -> NormalizedDeflection:
    """Convert a shuttle travel into the non-dimensional deflection state."""
    if delta_y < 0:
        raise ValidationError("delta_y must be non-negative")
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
    if np.less(delta_y, 0).any():
        raise ValidationError("delta_y must be non-negative")
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


def _unique_root(k1, k2, k3, k4):
    """The single real root of k1 p^3 + k2 p^2 + k3 p + k4, k1 > 0.

    Coefficients are scalars or arrays of one shape.  With p = q - b/3 the
    cubic becomes q^3 + pp q + qq, whose real root is the Cardano sum of two
    real cube roots wherever the discriminant (qq/2)^2 + (pp/3)^3 is
    positive.  A discriminant <= 0 means three real roots (or a repeated
    one), which the monostable branch never reaches; it raises.
    """
    b, c, d = k2 / k1, k3 / k1, k4 / k1
    pp = c - b * b / 3.0
    qq = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = (qq / 2.0) ** 2 + (pp / 3.0) ** 3
    if not np.greater(disc, 0.0).all():
        raise NumericalError(
            f"cubic discriminant {np.min(disc):.3e} is not positive: the "
            f"cubic has more than one real root")
    s = np.sqrt(disc)
    return np.cbrt(-qq / 2.0 + s) + np.cbrt(-qq / 2.0 - s) - b / 3.0


def _cardano_root(k1, k2, k3, k4):
    """Closed-form real root of the cubic, plus the nested radicals (c1, c2).

    Uses the resolvent c1 = -k2^2 + 3 k1 k3 and the cube-root term
    c2 = cbrt(-2 k2^3 + 9 k1 k2 k3 - 27 k1^2 k4 + sqrt(4 c1^3 + (...)^2));
    the root is -k2/(3 k1) - cbrt(2) c1 / (3 k1 c2) + c2 / (3 cbrt(2) k1).
    The radicand equals 2916 k1^6 times the discriminant of _unique_root, so
    it is positive wherever that kernel returns; elsewhere c2 and the root
    are NaN.  Coefficients are scalars or arrays of one shape.
    """
    c1 = -k2 ** 2 + 3.0 * k1 * k3
    inner = -2.0 * k2 ** 3 + 9.0 * k1 * k2 * k3 - 27.0 * k1 ** 2 * k4
    c2 = np.cbrt(inner + np.sqrt(4.0 * c1 ** 3 + inner ** 2))
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
    continuous with p = 0 at rest.  It is taken from _unique_root, polished
    by one Newton step on the exact coefficients, then held, with the
    closed-form root p1, to the residual bound (_check_roots).  A cubic
    with more than one real root raises NumericalError.
    """
    if inter.x_o == 0.0 and inter.y_o == 0.0 and inter.k4 == 0.0:
        return 0.0

    p = float(_unique_root(inter.k1, inter.k2, inter.k3, inter.k4))

    # one Newton polish on the exact coefficients
    deriv = (3.0 * inter.k1 * p + 2.0 * inter.k2) * p + inter.k3
    if deriv != 0.0:
        p -= inter.cubic(p) / deriv

    _check_roots((inter.k1, inter.k2, inter.k3, inter.k4), np.array([p]),
                 np.array([inter.p1]))
    return p


def _check_roots(ks, p, closed):
    """Hold real cubic roots p and their closed forms to the residual bound.

    A residual of the cubics ks at or above 1e-9 max(1, |k4|) raises for p
    and is logged for the closed-form roots.  Residuals, not distances
    between the two roots, are compared: at small travel the root is tiny
    and fixed by the cubic only to about its rounding error, so two correct
    roots may differ in their leading digits.
    """
    k1, k2, k3, k4 = ks
    residual = np.abs(((k1 * p + k2) * p + k3) * p + k4)
    bound = 1e-9 * np.maximum(1.0, np.abs(k4))
    if not np.all(residual < bound):
        raise NumericalError(f"cubic residual {np.max(residual):.3e} exceeds "
                             f"its bound 1e-9 max(1, |k4|)")
    missed = np.abs(((k1 * closed + k2) * closed + k3) * closed + k4) / bound
    if not np.all(missed < 1.0):
        log.warning("closed-form cubic roots deviate from their cubic: "
                    "residual up to %.3g times the bound 1e-9 max(1, |k4|)",
                    np.max(missed))


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
    other sample takes the unique real cubic root (no polish), held with the
    closed-form Cardano root to the residual bound by _check_roots.  A
    sample that fails a check raises for the whole pass.
    """
    if np.less(dys, 0).any():
        raise ValidationError("delta_y must be non-negative")
    bistable = cols.d1_a * dys + cols.d1_b * dys - cols.d1_c >= 0.0
    x_o = -2.0 * dys * cols.sin / cols.L
    y_o = -2.0 * dys * cols.cos / cols.L
    mono = ~bistable & (dys != 0.0)

    t_terms = [np.broadcast_to(c, mono.shape)[mono]
               for c in (cols.k1_t, cols.k2_t, cols.k3_t)]
    ks = _k_coefficients(t_terms, x_o[mono], y_o[mono])
    p_mono = _unique_root(*ks)
    _check_roots(ks, p_mono, _cardano_root(*ks)[0])
    f_o = BISTABLE_FO_SLOPE * y_o
    f_o[mono] = _rational_fo(y_o[mono], p_mono)
    p_o = np.where(bistable, BISTABLE_PO, 0.0)
    p_o[mono] = p_mono
    return f_o, p_o, bistable


def _shuttle_force(geoms: Sequence[VBeamGeometry], cols: _Columns,
                   mat: MaterialModel, f_o, p_o):
    stiff = np.array([[4.0 * mat.youngs_modulus_E * g.second_moment
                       / g.length_L ** 2] for g in geoms])
    return -(stiff * f_o * cols.cos + stiff * p_o * cols.sin)


def branch_loads(geom: VBeamGeometry, delta_y: float) -> BeamLoadState:
    """Guided-end normalized loads at a travel, with branch selection."""
    d1, _ = bistability_margin(geom, delta_y)
    f_o, p_o, bistable = _loads(_columns([geom]),
                                np.array([delta_y], dtype=float))
    return BeamLoadState(f_o=f_o.item(), p_o=p_o.item(),
                         branch=Branch.tags(bistable[0])[0], d1_value=d1)


def actuation_force(geom: VBeamGeometry, mat: MaterialModel, delta_y):
    """Shuttle-direction force of the symmetric double V-beam at a travel [N].

    delta_y may be an array, in which case the force is an array of its
    shape.
    """
    dys = np.array(delta_y, dtype=float, ndmin=1)
    cols = _columns([geom])
    f_o, p_o, _ = _loads(cols, dys.ravel())
    force = _shuttle_force([geom], cols, mat, f_o, p_o).reshape(dys.shape)
    return force if np.ndim(delta_y) else force.item()


def uniform_travels(travel_max: float, n: int) -> np.ndarray:
    """The n uniform travels travel_max * k / n, k = 1..n, over (0, travel_max].

    A travel_max * n that overflows is refused before the array product.
    """
    if not math.isfinite(float(travel_max) * int(n)):
        raise ValidationError(f"travel_max {float(travel_max)!r} times {n} "
                              "samples is not finite")
    return travel_max * np.arange(1, n + 1) / n


def _force_rows(geoms: Sequence[VBeamGeometry], mat: MaterialModel,
                travel_max: float, n_samples: int):
    """Sampled force-displacement rows of several geometries in one pass.

    Returns (delta_y, force, f_o, p_o, bistable): the n_samples uniform
    travels over (0, travel_max], then (len(geoms), n_samples) arrays with
    one row per geometry.  force_curve is the one-geometry case.
    """
    if not travel_max > 0:
        raise ValidationError("travel_max must be positive")
    if n_samples < 2:
        raise ValidationError("n_samples must be at least 2")
    dys = uniform_travels(travel_max, n_samples)
    cols = _columns(geoms)
    f_o, p_o, bistable = _loads(cols, dys)
    return dys, _shuttle_force(geoms, cols, mat, f_o, p_o), f_o, p_o, bistable


def force_curve(geom: VBeamGeometry, mat: MaterialModel, travel_max: float,
                n_samples: int = DEFAULT_CURVE_SAMPLES) -> ForceDisplacementCurve:
    """Uniformly sampled force-displacement curve over (0, travel_max]."""
    dys, force, f_o, p_o, bistable = _force_rows([geom], mat, travel_max,
                                                 n_samples)
    return ForceDisplacementCurve(
        delta_y=dys, force=force[0], f_o=f_o[0], p_o=p_o[0],
        branches=Branch.tags(bistable[0]), geometry=geom, material=mat)


def peak_force(curve: ForceDisplacementCurve) -> Tuple[float, float]:
    """(delta_y, force) of the maximal-force sample; equal forces take the smaller travel."""
    if len(curve) == 0:
        raise ValidationError("curve is empty")
    i = int(np.argmax(curve.force))
    return float(curve.delta_y[i]), float(curve.force[i])
