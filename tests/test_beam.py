"""Tests for the closed-form V-beam load-deflection model.

Expected values marked "hand" were computed by direct evaluation of the
defining expressions with independent arithmetic (see the oracle helpers
at the top); geometry throughout is the reference flexure
L=40, T=1.2, W=5, theta=7 deg with E=1800 MPa unless stated.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graspsynth.beam
from graspsynth import (BeamLoadState, Branch, ForceDisplacementCurve,
                        MaterialModel, MonostableIntermediates,
                        NumericalError, ValidationError, VBeamGeometry,
                        actuation_force, bistability_margin,
                        bistable_crossover, branch_loads, force_curve,
                        monostable_intermediates, normalize_deflection,
                        peak_force, solve_monostable_cubic)
from graspsynth.beam import SAMPLE_CAP, _slope_rows, uniform_travels

from common import (GEOM, MAT, cardano_residuals, count_force_checks,
                    count_travel_checks)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_k(t, x_o, y_o):
    """Cubic coefficients rewritten from scratch (kept apart on purpose)."""
    return (t * t * 4 / 675 + y_o * y_o / 42000,
            t * t * 16 / 45 - y_o * y_o * 17 / 2100 - x_o * 8 / 225,
            t * t * 16 / 3 - y_o * y_o * 96 / 175 - x_o * 32 / 15,
            -y_o * y_o * 48 / 5 - x_o * 32)


def oracle_cubic_root(t, x_o, y_o):
    """Bisection plus Newton polish on the cubic; no closed-form algebra.

    Valid in the monostable domain, where the cubic has a single real root:
    any sign-changing bracket contains it.
    """
    k1, k2, k3, k4 = oracle_k(t, x_o, y_o)

    def f(p):
        return ((k1 * p + k2) * p + k3) * p + k4

    lo, hi = -1.0, 1.0
    while f(lo) > 0:
        lo *= 2.0
        assert lo > -1e9, "no bracket on the negative side"
    while f(hi) < 0:
        hi *= 2.0
        assert hi < 1e9, "no bracket on the positive side"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    for _ in range(3):
        dfdp = (3 * k1 * p + 2 * k2) * p + k3
        if dfdp == 0:
            break
        p -= f(p) / dfdp
    return p


def random_monostable_states(n, seed):
    """Random (geometry, delta_y) pairs below the bistability crossover."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < n:
        L = rng.uniform(20.0, 80.0)
        T = rng.uniform(0.01, 0.06) * L  # t = 2T/L in [0.02, 0.12]
        W = rng.uniform(2.0, 10.0)
        theta = math.radians(rng.uniform(0.0, 20.0))
        geom = VBeamGeometry(L, T, W, theta)
        dy_hi = min(0.15 * L, 0.999 * bistable_crossover(geom))
        dy = rng.uniform(1e-4 * L, dy_hi)
        if not bistability_margin(geom, dy)[1]:
            states.append((geom, dy))
    return states


# ---------------------------------------------------------------------------
# geometry and normalization
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ValidationError, match="length_L"):
        VBeamGeometry(-1, 1.2, 5, 0.1)
    with pytest.raises(ValidationError, match="thickness_T"):
        VBeamGeometry(40, 0, 5, 0.1)
    with pytest.raises(ValidationError, match="width_W"):
        VBeamGeometry(40, 1.2, -5, 0.1)
    with pytest.raises(ValidationError, match="tilt_theta"):
        VBeamGeometry(40, 1.2, 5, math.pi / 2)
    with pytest.raises(ValidationError, match="slender"):
        VBeamGeometry(1.0, 1.2, 5, 0.1)
    # infinite dimensions used to pass, and force_curve then returned NaN
    with pytest.raises(ValidationError, match="length_L"):
        VBeamGeometry(math.inf, 1.2, 5, 0.1)
    with pytest.raises(ValidationError, match="width_W"):
        VBeamGeometry(40, 1.2, math.inf, 0.1)
    # an int too large for a float raised OverflowError
    with pytest.raises(ValidationError, match="length_L"):
        VBeamGeometry(10 ** 400, 1.2, 5, 0.1)
    with pytest.raises(ValidationError, match="width_W"):
        VBeamGeometry(40, 1.2, 10 ** 400, 0.1)


def test_normalize_reference_travel():
    nd = normalize_deflection(GEOM, 5.0)
    assert nd.x_o == pytest.approx(-0.030467, abs=5e-7)   # hand
    assert nd.y_o == pytest.approx(-0.248137, abs=5e-7)   # hand
    assert nd.t == pytest.approx(0.06, rel=1e-15)
    assert nd.delta_y == 5.0


def test_normalize_zero_travel():
    nd = normalize_deflection(GEOM, 0.0)
    assert nd.x_o == 0.0
    assert nd.y_o == 0.0


def test_normalize_untilted_kills_axial_term():
    g0 = VBeamGeometry.from_degrees(40, 1.2, 5, 0)
    nd = normalize_deflection(g0, 5.0)
    assert nd.x_o == 0.0
    assert nd.y_o == pytest.approx(-0.25, rel=1e-15)


def test_normalize_rejects_negative_travel():
    with pytest.raises(ValidationError):
        normalize_deflection(GEOM, -0.1)


def test_normalization_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        L = rng.uniform(5.0, 200.0)
        T = rng.uniform(0.001, 0.4) * L
        W = rng.uniform(0.5, 20.0)
        th = rng.uniform(0.0, 1.4)
        dy = rng.uniform(0.0, 0.3 * L)
        nd = normalize_deflection(VBeamGeometry(L, T, W, th), dy)
        assert abs(nd.x_o + 2 * dy * math.sin(th) / L) <= 1e-12 * max(1, abs(nd.x_o))
        assert abs(nd.y_o + 2 * dy * math.cos(th) / L) <= 1e-12 * max(1, abs(nd.y_o))
        assert abs(nd.t - 2 * T / L) <= 1e-12 * nd.t


# ---------------------------------------------------------------------------
# bistability margin
# ---------------------------------------------------------------------------

def test_margin_reference_values():
    d1, ok = bistability_margin(GEOM, 5.0)
    assert d1 == pytest.approx(0.0656, abs=5e-5)          # hand
    assert ok is True
    d1, ok = bistability_margin(GEOM, 1.0)
    assert d1 == pytest.approx(-0.00233, abs=5e-6)        # hand
    assert ok is False


@pytest.mark.parametrize("travels", [[1.0, 5.0], (1.0, 5.0), [1, 5],
                                     [[0.0, 1.0], [5.0, 2.0]],
                                     ((0.0, 1.0), (5.0, 2.0))],
                         ids=["list", "tuple", "int-list", "nested",
                              "nested-tuple"])
def test_margin_takes_any_array_like(travels):
    # a list used to raise a bare TypeError ("can't multiply sequence by
    # non-int of type 'float'"); it gives the arrays of np.array of it
    d1, ok = bistability_margin(GEOM, travels)
    want_d1, want_ok = bistability_margin(GEOM, np.array(travels))
    assert d1.shape == ok.shape == np.shape(travels)
    assert d1.tobytes() == want_d1.tobytes()
    assert np.array_equal(ok, want_ok)


def test_margin_of_a_float_is_a_float_and_a_bool():
    d1, ok = bistability_margin(GEOM, 5.0)
    assert type(d1) is float and type(ok) is bool


def test_margin_zero_travel_is_negative_constant():
    d1, ok = bistability_margin(GEOM, 0.0)
    assert d1 == pytest.approx(-21.46 * 1.2 ** 2 / 40 ** 2, rel=1e-12)
    assert ok is False


def test_margin_untilted_never_satisfied():
    rng = np.random.default_rng(11)
    for _ in range(200):
        L = rng.uniform(5.0, 200.0)
        T = rng.uniform(0.005, 0.2) * L
        geom = VBeamGeometry(L, T, 1.0, 0.0)
        dy = rng.uniform(0.0, 10.0 * L)
        d1, ok = bistability_margin(geom, dy)
        assert d1 < 0 and not ok


def test_crossover_matches_affine_root():
    dy_star = bistable_crossover(GEOM)
    assert dy_star == pytest.approx(1.137315, abs=1e-6)   # hand
    below, _ = bistability_margin(GEOM, dy_star * (1 - 1e-9))
    above, _ = bistability_margin(GEOM, dy_star * (1 + 1e-9))
    assert below < 0 <= above


def test_crossover_infinite_for_untilted_beam():
    g0 = VBeamGeometry.from_degrees(40, 1.2, 5, 0)
    assert bistable_crossover(g0) == math.inf


# ---------------------------------------------------------------------------
# monostable cubic
# ---------------------------------------------------------------------------

def test_intermediates_match_defining_expressions():
    nd = normalize_deflection(GEOM, 1.0)
    inter = monostable_intermediates(nd)
    k1, k2, k3, k4 = oracle_k(nd.t, nd.x_o, nd.y_o)
    assert inter.k1 == pytest.approx(k1, rel=1e-14)
    assert inter.k2 == pytest.approx(k2, rel=1e-14)
    assert inter.k3 == pytest.approx(k3, rel=1e-14)
    assert inter.k4 == pytest.approx(k4, rel=1e-14)
    assert inter.c1 == pytest.approx(-k2 ** 2 + 3 * k1 * k3, rel=1e-14)
    assert inter.k1 > 0


def test_cubic_root_reference_travel():
    nd = normalize_deflection(GEOM, 1.0)
    p = solve_monostable_cubic(monostable_intermediates(nd))
    assert p == pytest.approx(-8.8, rel=0.02)             # hand, 2 percent
    assert p == pytest.approx(oracle_cubic_root(nd.t, nd.x_o, nd.y_o), rel=1e-10)


def test_cubic_trivial_root_at_origin():
    inter = MonostableIntermediates(k1=1.0, k2=0.0, k3=0.0, k4=0.0,
                                    c1=0.0, c2=0.0, p1=0.0)
    assert solve_monostable_cubic(inter) == 0.0


def test_cubic_with_three_real_roots_is_refused():
    # p^3 - 3p + 1 has three real roots; x_o = y_o = 0 with k4 != 0 keeps
    # the undeformed-state early return out of play
    inter = MonostableIntermediates(k1=1.0, k2=0.0, k3=-3.0, k4=1.0,
                                    c1=9.0, c2=0.0, p1=0.0)
    with pytest.raises(NumericalError, match="more than one real root"):
        solve_monostable_cubic(inter)


def test_cubic_root_approaches_bistable_constant_at_crossover():
    dy = bistable_crossover(GEOM) * 0.999
    nd = normalize_deflection(GEOM, dy)
    p = solve_monostable_cubic(monostable_intermediates(nd))
    assert abs(p - (-9.8837)) / 9.8837 < 0.15


def test_cubic_residual_bound_random():
    for geom, dy in random_monostable_states(200, seed=3):
        nd = normalize_deflection(geom, dy)
        inter = monostable_intermediates(nd)
        p = solve_monostable_cubic(inter)
        assert abs(inter.cubic(p)) < 1e-9 * max(1.0, abs(inter.k4))


def test_cubic_vs_independent_rootfinder_random():
    for geom, dy in random_monostable_states(1000, seed=17):
        nd = normalize_deflection(geom, dy)
        p = solve_monostable_cubic(monostable_intermediates(nd))
        ref = oracle_cubic_root(nd.t, nd.x_o, nd.y_o)
        assert abs(p - ref) <= 1e-8 * max(abs(ref), 1e-12)


def test_reference_root_is_the_kernel_root():
    # the root criterion 4 measures is the one every force is built from
    for geom, dy in random_monostable_states(1000, seed=101):
        inter = monostable_intermediates(normalize_deflection(geom, dy))
        assert solve_monostable_cubic(inter) == branch_loads(geom, dy).p_o


def test_closed_form_root_matches_continuation():
    # the closed-form expression stored in the intermediates is the same
    # root the solver returns, and meets the kernel's residual bound
    for geom, dy in random_monostable_states(100, seed=23):
        nd = normalize_deflection(geom, dy)
        inter = monostable_intermediates(nd)
        p = solve_monostable_cubic(inter)
        assert inter.p1 == pytest.approx(p, rel=1e-9, abs=1e-12)
        assert abs(inter.cubic(inter.p1)) < 1e-9 * max(1.0, abs(inter.k4))


# ---------------------------------------------------------------------------
# branch loads
# ---------------------------------------------------------------------------

def test_branch_loads_bistable_reference():
    st = branch_loads(GEOM, 5.0)
    assert st.branch is Branch.BISTABLE
    assert st.p_o == -9.8837
    assert st.f_o == pytest.approx(1.2064, abs=5e-5)      # hand: -4.8618 y_o
    assert st.d1_value == pytest.approx(0.0656, abs=5e-5)


def test_branch_loads_monostable_reference():
    st = branch_loads(GEOM, 1.0)
    assert st.branch is Branch.MONOSTABLE
    assert st.f_o == pytest.approx(0.20, rel=0.05)        # hand
    assert st.p_o == pytest.approx(-8.8, rel=0.02)        # hand


def test_branch_loads_zero_travel():
    st = branch_loads(GEOM, 0.0)
    assert st.f_o == 0.0
    assert st.p_o == 0.0
    assert st.branch is Branch.MONOSTABLE


def test_branch_loads_checks_its_travel_once(monkeypatch):
    # where it enters; it used to check it again through the public
    # bistability_margin
    checks = count_travel_checks(monkeypatch)
    branch_loads(GEOM, 1.0)
    assert len(checks) == 1


# ---------------------------------------------------------------------------
# actuation force
# ---------------------------------------------------------------------------

def test_force_reference_values():
    assert actuation_force(GEOM, MAT, 2.0) == pytest.approx(2.35, abs=0.01)  # hand
    assert actuation_force(GEOM, MAT, 5.0) == pytest.approx(0.02, abs=0.005) # hand
    assert actuation_force(GEOM, MAT, 0.0) == 0.0


def test_force_scales_linearly_with_modulus():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = rng.uniform(0.1, 10.0)
        dy = rng.uniform(0.1, 5.0)
        base = actuation_force(GEOM, MAT, dy)
        scaled = actuation_force(GEOM, MaterialModel(1800 * alpha), dy)
        assert scaled == pytest.approx(alpha * base, rel=1e-12)


def test_bistable_branch_force_is_affine():
    curve = force_curve(GEOM, MAT, 5.0, 500)
    mask = np.array([b is Branch.BISTABLE for b in curve.branches])
    dy = curve.delta_y[mask]
    f = curve.force[mask]
    slope, intercept = np.polyfit(dy, f, 1)
    residual = np.max(np.abs(f - (slope * dy + intercept)))
    assert residual < 1e-9
    assert intercept == pytest.approx(3.9026, abs=1e-3)   # hand
    assert slope == pytest.approx(-0.7760, abs=1e-3)      # hand


def test_untilted_small_travel_slope_is_guided_stiffness():
    # the model linearizes to the classical fixed-guided transverse
    # stiffness 12 E I / L^3 when the tilt vanishes
    g0 = VBeamGeometry.from_degrees(40, 1.2, 5, 0)
    k = actuation_force(g0, MAT, 1e-6) / 1e-6
    assert k == pytest.approx(12 * 1800 * g0.second_moment / 40 ** 3, rel=1e-4)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_curve_grid_and_crossover_tag():
    curve = force_curve(GEOM, MAT, 5.0, 500)
    assert len(curve) == 500
    assert curve.delta_y[0] == pytest.approx(0.01, rel=1e-12)
    assert curve.delta_y[-1] == pytest.approx(5.0, rel=1e-12)
    flips = [i for i in range(1, 500)
             if curve.branches[i] is not curve.branches[i - 1]]
    assert len(flips) == 1
    dy_flip = curve.delta_y[flips[0]]
    assert abs(dy_flip - bistable_crossover(GEOM)) <= 5.0 / 500
    assert curve.branches[0] is Branch.MONOSTABLE
    assert curve.branches[-1] is Branch.BISTABLE


def test_curve_two_samples():
    curve = force_curve(GEOM, MAT, 5.0, 2)
    assert np.allclose(curve.delta_y, [2.5, 5.0])


def test_curve_determinism():
    a = force_curve(GEOM, MAT, 5.0, 200)
    b = force_curve(GEOM, MAT, 5.0, 200)
    assert np.array_equal(a.delta_y, b.delta_y)
    assert np.array_equal(a.force, b.force)
    assert np.array_equal(a.f_o, b.f_o)
    assert np.array_equal(a.p_o, b.p_o)
    assert a.branches == b.branches


def reference_loads(geom, dy):
    """(branch, f_o, p_o) from the public scalar reference chain.

    normalize_deflection -> monostable_intermediates -> solve_monostable_cubic
    (the kernel's own root), then the rational f_o relation written out
    here; the bistable branch takes its two constants.
    """
    nd = normalize_deflection(geom, dy)
    if bistability_margin(geom, dy)[1]:
        return Branch.BISTABLE, -4.8618 * nd.y_o, -9.8837
    p = solve_monostable_cubic(monostable_intermediates(nd))
    num = (-6.0 - p / 10.0 + p * p / 1400.0) ** 2
    den = 4.0 + 2.0 * p / 15.0 - 11.0 * p * p / 6300.0
    f_o = nd.y_o / 2.0 * ((12.0 + 6.0 * p / 5.0 + p * p / 700.0) - num / den)
    return Branch.MONOSTABLE, f_o, p


def reference_rows(geom, travels):
    """(branch, f_o, p_o, force) of the scalar reference chain per travel."""
    stiff = 4 * MAT.youngs_modulus_E * geom.second_moment / geom.length_L ** 2
    rows = []
    for dy in travels:
        branch, f_o, p_o = reference_loads(geom, float(dy))
        rows.append((branch, f_o, p_o,
                     -stiff * (f_o * math.cos(geom.tilt_theta)
                               + p_o * math.sin(geom.tilt_theta))))
    return rows


def assert_curve_rows_match(curve, indices, rows):
    for i, (branch, f_o, p_o, force) in zip(indices, rows):
        assert curve.branches[i] is branch
        assert curve.p_o[i] == pytest.approx(p_o, rel=1e-9, abs=1e-12)
        assert curve.f_o[i] == pytest.approx(f_o, rel=1e-9, abs=1e-12)
        assert curve.force[i] == pytest.approx(force, rel=1e-9, abs=1e-12)


def test_curve_matches_pointwise_chain():
    # the array kernel behind force_curve against the scalar reference chain:
    # the tilted reference beam crosses both branches, the untilted beam and
    # the random states stay on the monostable branch
    cases = [(GEOM, 5.0), (VBeamGeometry.from_degrees(40, 1.2, 5, 0), 5.0)]
    cases += random_monostable_states(20, seed=29)
    indices = (0, 10, 25, 49)
    for geom, travel in cases:
        curve = force_curve(geom, MAT, travel, 50)
        rows = reference_rows(geom, curve.delta_y[list(indices)])
        assert_curve_rows_match(curve, indices, rows)


CHAIN_GEOMETRIES = st.builds(
    VBeamGeometry.from_degrees, st.floats(30.0, 60.0), st.floats(0.6, 2.0),
    st.just(5.0), st.one_of(st.just(0.0), st.floats(0.0, 15.0)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.tuples(CHAIN_GEOMETRIES, st.floats(1e-9, 5.0),
                          st.integers(2, 50)), min_size=1, max_size=3))
def test_batched_kernel_equals_the_scalar_chain(batch):
    # every row of force_curve against the chain at its travel, on tilted
    # and untilted beams; a side that raises NumericalError must have its
    # counterpart raise too
    for geom, travel, n in batch:
        try:
            curve = force_curve(geom, MAT, travel, n)
        except NumericalError:
            curve = None
        try:
            rows = reference_rows(geom, uniform_travels(travel, n))
        except NumericalError:
            rows = None
        assert (curve is None) == (rows is None)
        if curve is not None:
            assert_curve_rows_match(curve, range(n), rows)


def test_actuation_force_accepts_arrays():
    curve = force_curve(GEOM, MAT, 5.0, 200)
    forces = actuation_force(GEOM, MAT, curve.delta_y)
    assert isinstance(forces, np.ndarray) and forces.shape == (200,)
    assert np.array_equal(forces, curve.force)            # bit-identical
    for dy, f in zip(curve.delta_y[::20], forces[::20]):
        assert actuation_force(GEOM, MAT, float(dy)) == f
    with_rest = actuation_force(GEOM, MAT, np.array([0.0, 1.0, 5.0]))
    assert with_rest[0] == 0.0
    assert with_rest[1] == actuation_force(GEOM, MAT, 1.0)
    with pytest.raises(ValidationError):
        actuation_force(GEOM, MAT, np.array([1.0, -0.1]))


def test_kernel_checks_its_roots(monkeypatch):
    # a root off its cubic is refused
    unique_root = graspsynth.beam._unique_root
    monkeypatch.setattr(graspsynth.beam, "_unique_root",
                        lambda *ks: unique_root(*ks) * (1 + 1e-6))
    with pytest.raises(NumericalError, match="cubic residual"):
        actuation_force(GEOM, MAT, 1.0)


def test_closed_form_at_small_travel_is_not_flagged(monkeypatch):
    # an untilted beam at 1e-4 mm: the root is ~7e-9 and fixed by the cubic
    # only to ~1e-6 relative, yet both roots meet the residual bound
    geom = VBeamGeometry.from_degrees(48.7886, 1.5866, 5.0, 0.0)
    residuals = cardano_residuals(monkeypatch)
    actuation_force(geom, MAT, np.array([1e-5, 1e-4, 1e-3]))
    assert residuals and np.max(residuals) < 1.0


def rest_stiffness(geom, mat):
    """12 E I cos^2 / L^3 + E A sin^2 / L: the double V-beam's slope at rest."""
    E, L, th = mat.youngs_modulus_E, geom.length_L, geom.tilt_theta
    return (12.0 * E * geom.second_moment * math.cos(th) ** 2 / L ** 3
            + E * geom.area * math.sin(th) ** 2 / L)


def slope(geom, dy):
    return _slope_rows([geom], MAT, np.array([dy]))[0, 0]


def test_slope_equals_central_difference_on_monostable_states():
    h = 1e-6
    states = random_monostable_states(300, seed=43)
    for geom, dy in states:
        if abs(dy - bistable_crossover(geom)) <= h:
            continue
        fd = (actuation_force(geom, MAT, dy + h)
              - actuation_force(geom, MAT, dy - h)) / (2.0 * h)
        assert slope(geom, dy) == pytest.approx(fd, rel=1e-6)


def test_slope_rows_of_a_block_equal_one_geometry_passes():
    states = random_monostable_states(20, seed=47)
    geoms = [geom for geom, _ in states]
    dys = np.array([0.0, 0.01, 0.5, 1.0, 2.0, 4.0])
    block = _slope_rows(geoms, MAT, dys)
    assert block.shape == (20, 6)
    for row, geom in zip(block, geoms):
        assert np.array_equal(row, _slope_rows([geom], MAT, dys)[0])


@pytest.mark.parametrize("dims", [(40, 1.2, 5, 7), (40, 1.2, 5, 0),
                                  (72.19, 0.694, 5, 11.13), (20, 3.0, 8, 30)])
def test_slope_at_rest_is_the_linear_stiffness(dims):
    geom = VBeamGeometry.from_degrees(*dims)
    assert slope(geom, 0.0) == pytest.approx(rest_stiffness(geom, MAT),
                                             rel=1e-14)


def test_slope_on_each_side_of_the_crossover_is_its_branch_slope():
    xc = bistable_crossover(GEOM)
    below, above = xc * (1.0 - 1e-12), xc * (1.0 + 1e-12)
    assert branch_loads(GEOM, below).branch is Branch.MONOSTABLE
    assert branch_loads(GEOM, above).branch is Branch.BISTABLE
    # bistable: f_o = -4.8618 y_o and p_o is constant
    L, th = GEOM.length_L, GEOM.tilt_theta
    load = 4.0 * MAT.youngs_modulus_E * GEOM.second_moment / L ** 2
    assert slope(GEOM, above) == pytest.approx(
        -load * math.cos(th) * -4.8618 * -2.0 * math.cos(th) / L, rel=1e-14)
    # far out, where the cubic's terms overflow, a bistable sample keeps it
    assert slope(GEOM, 1e300) == slope(GEOM, above)
    # monostable: the one-sided difference that stays on its branch
    h = 1e-6
    left = (actuation_force(GEOM, MAT, below)
            - actuation_force(GEOM, MAT, below - h)) / h
    assert slope(GEOM, below) == pytest.approx(left, rel=1e-5)
    # per beam, the two branches' slopes of the demo beam
    assert slope(GEOM, below) / 2 == pytest.approx(0.5337, abs=1e-4)
    assert slope(GEOM, above) / 2 == pytest.approx(-0.3880, abs=1e-4)


@pytest.mark.filterwarnings("error")
def test_near_rest_travels_take_the_root_continuous_with_rest(monkeypatch):
    # 80,000 evaluations, 20 blocks of 200 random beams at 20 travels of
    # 1e-9 to 1e-1 mm: the cubic's discriminant rounds to <= 0 below about
    # 1e-7 mm, which used to raise NumericalError (or warn from the closed
    # form's square root); the closed form meets the residual bound there
    rng = np.random.default_rng(53)
    residuals = cardano_residuals(monkeypatch)
    for _ in range(20):
        geoms = [VBeamGeometry.from_degrees(L, T, 5.0, tilt) for L, T, tilt
                 in rng.uniform((10.0, 0.2, 0.0), (80.0, 4.0, 30.0),
                                (200, 3))]
        dys = 10.0 ** rng.uniform(-9.0, -1.0, 20)
        force = graspsynth.beam._force_rows(geoms, MAT, dys)[0]
        assert np.all(np.isfinite(force)) and np.all(force > 0.0)
        assert np.all(np.isfinite(_slope_rows(geoms, MAT, dys)))
    assert residuals and np.max(residuals) < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dy", [1e-9, 2.3e-9, 1e-8, 1e-7])
def test_near_rest_root_is_the_small_root(dy):
    geom = VBeamGeometry.from_degrees(72.19, 0.694, 5, 11.13)
    nd = normalize_deflection(geom, dy)
    inter = monostable_intermediates(nd)
    p = solve_monostable_cubic(inter)
    assert p == pytest.approx(oracle_cubic_root(nd.t, nd.x_o, nd.y_o),
                              rel=1e-5)
    assert math.isfinite(inter.p1) and math.isfinite(inter.c2)
    assert actuation_force(geom, MAT, dy) == pytest.approx(
        rest_stiffness(geom, MAT) * dy, rel=1e-6)


def test_kernel_accepts_every_state_of_the_domain():
    # 20,000 states, L 10-80 mm, T 0.2-4 mm, tilt 0-30 deg, travel 0-15 mm
    # with zero travel in every batch: the unpolished root holds the
    # residual bound and the discriminant stays positive throughout
    rng = np.random.default_rng(41)
    for _ in range(2000):
        geom = VBeamGeometry.from_degrees(rng.uniform(10.0, 80.0),
                                          rng.uniform(0.2, 4.0), 5.0,
                                          rng.uniform(0.0, 30.0))
        dys = np.append(rng.uniform(0.0, 15.0, 9), 0.0)
        assert np.all(np.isfinite(actuation_force(geom, MAT, dys)))


def test_cube_is_the_array_power_on_positive_values():
    # |x| ** 3 is the vector loop of x ** 3, so positive values keep its bits
    x = np.geomspace(1e-100, 1e100, 613)
    assert np.array_equal(graspsynth.beam._cube(x).view(np.int64),
                          (x ** 3).view(np.int64))


def test_cube_is_within_one_ulp_on_negative_values():
    x = -np.geomspace(1e-100, 1e100, 613)
    cube, power = graspsynth.beam._cube(x), x ** 3
    assert np.all(cube < 0.0)
    assert np.all(np.abs(cube - power) <= np.spacing(np.abs(power)))


def test_cube_keeps_signed_zeros_nan_and_infinities():
    x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
    cube = graspsynth.beam._cube(x)
    assert np.array_equal(np.signbit(cube), [True, False, False, False, True])
    assert np.array_equal(cube, x ** 3, equal_nan=True)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(30.0, 50.0), st.floats(0.8, 1.6), st.floats(0.0, 10.0),
       st.floats(1e-3, 5.0), st.integers(2, 60))
def test_force_paths_agree_over_the_bench_envelope(L, T, tilt, travel, n):
    # the bench's beam ranges: the curve and the pointwise force agree, and
    # the closed-form root never leaves its residual bound
    geom = VBeamGeometry.from_degrees(L, T, 5.0, tilt)
    with pytest.MonkeyPatch.context() as monkeypatch:
        residuals = cardano_residuals(monkeypatch)
        curve = force_curve(geom, MAT, travel, n)
        pointwise = actuation_force(geom, MAT, curve.delta_y)
        last = actuation_force(geom, MAT, float(curve.delta_y[-1]))
    np.testing.assert_allclose(pointwise, curve.force, rtol=1e-9, atol=0.0)
    assert math.isclose(last, curve.force[-1], rel_tol=1e-9)
    assert residuals and np.max(residuals) < 1.0


def test_curve_validation():
    with pytest.raises(ValidationError):
        force_curve(GEOM, MAT, -1.0, 100)
    with pytest.raises(ValidationError):
        force_curve(GEOM, MAT, 5.0, 1)


@pytest.mark.parametrize("delta_y, n, match", [
    ([], 0, "at least one sample"),
    ([1.0, 1.0], 2, "strictly increasing"),
    ([0.0, 1.0], 2, "first sample must be at delta_y > 0"),
    ([1.0, 2.0], 3, "share one length"),
], ids=["empty", "repeated", "at-zero", "lengths"])
def test_curve_record_refuses_bad_samples(delta_y, n, match):
    with pytest.raises(ValidationError, match=match):
        ForceDisplacementCurve(delta_y=delta_y, force=np.ones(n),
                               f_o=np.ones(n), p_o=np.ones(n),
                               branches=(Branch.MONOSTABLE,) * n)


def test_curve_immutable():
    curve = force_curve(GEOM, MAT, 5.0, 10)
    with pytest.raises(ValueError):
        curve.force[0] = 99.0


def test_records_hold_only_what_is_read():
    assert [f.name for f in fields(ForceDisplacementCurve)] == [
        "delta_y", "force", "f_o", "p_o", "branches"]
    assert [f.name for f in fields(BeamLoadState)] == [
        "f_o", "p_o", "branch", "d1_value"]
    assert not hasattr(graspsynth.beam, "CurveSample")


def test_with_force_shares_the_read_only_grid():
    curve = force_curve(GEOM, MAT, 5.0, 10)
    halved = curve.with_force(curve.force / 2.0)
    for name in ("delta_y", "f_o", "p_o", "branches"):
        assert getattr(halved, name) is getattr(curve, name)
    assert halved.force.tolist() == (curve.force / 2.0).tolist()
    assert not halved.force.flags.writeable


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0)])
def test_non_integer_sample_count_is_refused(count):
    # a count of 2.5 used to sample [0.4, 0.8, 1.2], past travel_max = 1
    with pytest.raises(ValidationError, match="not an integer"):
        force_curve(GEOM, MAT, 1.0, count)
    assert force_curve(GEOM, MAT, 1.0, np.int64(3)).delta_y[-1] == 1.0


# ---------------------------------------------------------------------------
# peak extraction
# ---------------------------------------------------------------------------

def test_peak_near_crossover():
    dy_pk, f_pk = peak_force(force_curve(GEOM, MAT, 5.0, 2000))
    assert f_pk == pytest.approx(3.0, abs=0.1)            # hand: dense sweep
    assert dy_pk == pytest.approx(1.1, abs=0.1)


def test_peak_single_sample_and_ties():
    curve = force_curve(GEOM, MAT, 5.0, 2)
    sub = curve.with_force(np.array([1.5, 1.5]))
    dy_pk, f_pk = peak_force(sub)
    assert dy_pk == 2.5 and f_pk == 1.5                   # tie takes smaller travel


def test_material_validation():
    with pytest.raises(ValidationError):
        MaterialModel(-1.0)
    with pytest.raises(ValidationError):
        MaterialModel(1800.0, poisson_ratio=0.5)
    with pytest.raises(ValidationError, match="youngs_modulus_E"):
        MaterialModel(math.inf)
    with pytest.raises(ValidationError, match="youngs_modulus_E"):
        MaterialModel(10 ** 400)  # used to be accepted


@pytest.mark.parametrize("count", [10 ** 30, SAMPLE_CAP + 1])
def test_count_above_the_cap_is_refused_before_allocation(count):
    with pytest.raises(ValidationError, match=f"exceeds the cap {SAMPLE_CAP}"):
        uniform_travels(1.0, count)
    with pytest.raises(ValidationError, match=f"exceeds the cap {SAMPLE_CAP}"):
        force_curve(GEOM, MAT, 1.0, count)


@pytest.mark.parametrize("travel_max", [0.1, 0.173])
def test_grid_ends_at_travel_max(travel_max):
    # travel_max * 3 / 3 reads 0.10000000000000002 and 0.17299999999999996,
    # so the last travel used to step past 0.1 and stop short of 0.173
    grid = uniform_travels(travel_max, 3)
    assert grid.tolist() == [travel_max / 3, travel_max * 2 / 3, travel_max]
    assert force_curve(GEOM, MAT, travel_max, 3).delta_y[-1] == travel_max


def test_travels_that_underflow_are_refused():
    # a positive travel_max is refused exactly where its grid would not rise
    # strictly from above 0: below n samples of the smallest subnormal
    tiny = math.ulp(0.0)
    for n in range(1, 40):
        for m in range(1, 3 * n + 3):
            if m < n:
                with pytest.raises(ValidationError, match="would not rise"):
                    uniform_travels(m * tiny, n)
                continue
            grid = uniform_travels(m * tiny, n)
            assert grid[0] > 0.0 and np.all(np.diff(grid) > 0.0)
    assert not uniform_travels(0.0, 3).any()
    with pytest.raises(ValidationError, match="below 500 \\* 5e-324"):
        force_curve(GEOM, MAT, 1e-321, 500)


@pytest.mark.parametrize("travel_max", [2 ** 62, 10 ** 19])
def test_an_int_travel_max_steps_in_floats(travel_max):
    # an int used to step in int64: 2 ** 62 wrapped to negative travels,
    # which the kernel's second check refused, and 10 ** 19 raised a bare
    # OverflowError
    grid = uniform_travels(travel_max, 4)
    assert grid.tolist() == [float(travel_max) * k / 4 for k in range(1, 5)]
    curve = force_curve(GEOM, MAT, travel_max, 4)
    assert curve.force.tobytes() == force_curve(
        GEOM, MAT, float(travel_max), 4).force.tobytes()


@pytest.mark.parametrize("travel_max", [-1.0, -1, -math.ulp(0.0)])
def test_negative_travel_max_is_refused(travel_max):
    # uniform_travels(-1.0, 3) used to return [-0.333, -0.667, -1.0],
    # outside its documented (0, travel_max]
    with pytest.raises(ValidationError, match="^travel_max -.* is negative$"):
        uniform_travels(travel_max, 3)


@pytest.mark.filterwarnings("error")
def test_overflowing_travel_is_refused_before_the_array_product():
    # 1e308 is finite, but five samples of it are not
    for travel in (1e308, np.float64(1e308)):
        with pytest.raises(ValidationError, match="1e\\+308 times 5 samples"):
            force_curve(GEOM, MAT, travel, 5)
    assert len(force_curve(GEOM, MAT, 1e300, 5)) == 5


@pytest.mark.filterwarnings("error")
def test_overflowing_dimensions_are_refused():
    # L = 1e308 used to raise OverflowError from L ** 2 in the d1 terms
    for dims in [(1e308, 1.2, 5.0, 0.1), (np.float64(1e200), 1.2, 5.0, 0.1),
                 (1e150, 1e110, 5.0, 0.1), (1e150, 1e100, 1e10, 0.1),
                 (1e150, 1e110, 1e-300, 0.1)]:
        with pytest.raises(ValidationError, match="L\\^2 and W T\\^3"):
            VBeamGeometry(*dims)
    VBeamGeometry(1e150, 1e100, 1e7, 0.1)


SHORT = VBeamGeometry.from_degrees(2.0, 1.2, 5.0, 7.0)


@pytest.mark.filterwarnings("error")
def test_forces_that_overflow_a_finite_load_scale_are_refused(monkeypatch):
    # the load scale of the 2 mm beam at E 4e307 is finite, its forces are
    # not: force_curve used to return inf and NaN after a RuntimeWarning
    mat = MaterialModel(4e307)
    checks = count_force_checks(monkeypatch)
    for evaluate in (lambda: force_curve(SHORT, mat, 5.0, 500),
                     lambda: actuation_force(SHORT, mat, np.linspace(0, 5, 50)),
                     lambda: _slope_rows([SHORT], mat, np.linspace(0, 5, 50))):
        with pytest.raises(ValidationError, match="force overflows"):
            evaluate()
    assert len(checks) == 3  # one per kernel pass, not one per sample
    curve = force_curve(SHORT, MaterialModel(1e307), 1.5, 500)
    assert np.isfinite(curve.force).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geom, mat, named", [
    (VBeamGeometry(40.0, 1.2, 1e308, 0.12), MAT, "overflows"),
    (GEOM, MaterialModel(1e308), "overflows"),
    (GEOM, MaterialModel(5e-324), "underflows to 0"),
], ids=["width", "modulus", "underflow"])
def test_overflowing_load_scale_is_refused_once_per_pass(geom, mat, named):
    # these used to give NaN forces under an "invalid value" RuntimeWarning,
    # and the underflow -0 forces
    for evaluate in (lambda: force_curve(geom, mat, 5.0, 50),
                     lambda: actuation_force(geom, mat, 1.0),
                     lambda: _slope_rows([geom], mat, np.array([1.0]))):
        with pytest.raises(ValidationError, match=f"load scale .* {named}"):
            evaluate()
