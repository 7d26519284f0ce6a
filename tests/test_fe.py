"""Tests for the nonlinear planar frame solver and curve comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

from graspsynth import (ConvergenceError, FrameModel, MaterialModel,
                        ValidationError, VBeamGeometry,
                        build_multibeam_assembly,
                        build_vbeam_mesh, compare_curves, force_curve,
                        peak_force, solve_guided_sweep,
                        solve_multibeam_assembly, solve_vbeam_sweep,
                        sweep_to_curve, write_path_csv)
from graspsynth.beam import uniform_travels
from graspsynth.fe import solver
from graspsynth.fe.model import ELEMENT_CAP, ROT, UX, UY
from graspsynth.fe.solver import (EquilibriumPath, PathStep,
                                   _element_energy, _newton, _System)

from common import GEOM, MAT, make_config


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

def test_mesh_counts_and_span():
    model = build_vbeam_mesh(GEOM, 16)
    assert model.n_nodes == 17
    assert model.elements.shape == (16, 2)
    assert model.elements.dtype.kind == "i"
    span = np.linalg.norm(model.nodes[-1] - model.nodes[0])
    assert span == pytest.approx(40.0, rel=1e-12)


def test_mesh_minimal_element_count():
    assert build_vbeam_mesh(GEOM, 4).n_nodes == 5
    with pytest.raises(ValidationError):
        build_vbeam_mesh(GEOM, 3)


@pytest.mark.parametrize("count", [ELEMENT_CAP + 1, 10 ** 30])
def test_mesh_above_the_element_cap_is_refused(count):
    # refused before any node is placed; the cap itself builds (no assembly)
    assert build_vbeam_mesh(GEOM, ELEMENT_CAP).elements.shape[0] == ELEMENT_CAP
    for build, source in ((build_vbeam_mesh, GEOM),
                          (build_multibeam_assembly, make_config())):
        with pytest.raises(ValidationError,
                           match=f"n_elements {count} exceeds the cap "
                                 f"{ELEMENT_CAP}"):
            build(source, count)


def test_mesh_untilted_is_collinear():
    model = build_vbeam_mesh(VBeamGeometry.from_degrees(40, 1.2, 5, 0), 8)
    assert np.allclose(model.nodes[:, 1], 0.0)


def test_mesh_section_properties():
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    E, A, I = model.section
    assert A == pytest.approx(5 * 1.2)
    assert I == pytest.approx(5 * 1.2 ** 3 / 12)
    assert E == 1800.0


def test_mesh_boundary_conditions():
    model = build_vbeam_mesh(GEOM, 8)
    assert model.fixed[0].all()
    guided = model.n_nodes - 1
    assert model.fixed[guided, 0] and model.fixed[guided, 2]
    assert not model.fixed[guided, 1]
    assert model.drive == (guided, UY, -1.0)


def test_model_validation():
    model = build_vbeam_mesh(GEOM, 8)
    bad = replace(model)
    bad.fixed = model.fixed.copy()
    bad.fixed[0] = False
    with pytest.raises(ValidationError, match="constrained"):
        bad.__post_init__()


# ---------------------------------------------------------------------------
# element formulation
# ---------------------------------------------------------------------------

def reference_element(xi, xj, d, E, A, I):
    """One corotational element, written out per element (Crisfield 1991).

    The scalar form of the solver's batched kernel: internal force,
    tangent and strain energy for d = (u_i, v_i, r_i, u_j, v_j, r_j).
    """
    dx0 = xj[0] - xi[0]
    dy0 = xj[1] - xi[1]
    L0 = math.hypot(dx0, dy0)
    beta0 = math.atan2(dy0, dx0)

    dx = dx0 + d[3] - d[0]
    dy = dy0 + d[4] - d[1]
    Ln = math.hypot(dx, dy)
    c = dx / Ln
    s = dy / Ln

    rigid = math.atan2(dy, dx) - beta0
    rigid = math.atan2(math.sin(rigid), math.cos(rigid))
    t1 = d[2] - rigid
    t2 = d[5] - rigid
    stretch = Ln - L0

    N = E * A * stretch / L0
    M1 = E * I / L0 * (4.0 * t1 + 2.0 * t2)
    M2 = E * I / L0 * (2.0 * t1 + 4.0 * t2)

    r = np.array([-c, -s, 0.0, c, s, 0.0])
    z = np.array([s, -c, 0.0, -s, c, 0.0])
    B = np.empty((3, 6))
    B[0] = r
    B[1] = np.array([-s / Ln, c / Ln, 1.0, s / Ln, -c / Ln, 0.0])
    B[2] = np.array([-s / Ln, c / Ln, 0.0, s / Ln, -c / Ln, 1.0])

    f_int = B.T @ np.array([N, M1, M2])
    C = np.array([[E * A / L0, 0.0, 0.0],
                  [0.0, 4.0 * E * I / L0, 2.0 * E * I / L0],
                  [0.0, 2.0 * E * I / L0, 4.0 * E * I / L0]])
    K = B.T @ C @ B
    K += N / Ln * np.outer(z, z)
    K += (M1 + M2) / Ln ** 2 * (np.outer(r, z) + np.outer(z, r))

    energy = (0.5 * E * A / L0 * stretch ** 2
              + E * I / L0 * (2.0 * t1 ** 2 + 2.0 * t1 * t2 + 2.0 * t2 ** 2))
    return f_int, K, energy


def reference_assemble(system, u):
    """_System.assemble as a loop over reference_element and the springs."""
    model = system.model
    full = u.reshape(-1, 3)
    n = system.unknowns.size
    unknown = -np.ones(3 * model.n_nodes, dtype=int)
    unknown[system.unknowns] = np.arange(n)
    unknown = unknown.reshape(-1, 3)
    f_raw = np.zeros((model.n_nodes, 3))
    K = np.zeros((n, n))
    energy = 0.0
    for i, j in model.elements:
        d = np.concatenate([full[i], full[j]])
        fe, Ke, ee = reference_element(model.nodes[i], model.nodes[j], d,
                                       *model.section)
        energy += ee
        f_raw[i] += fe[:3]
        f_raw[j] += fe[3:]
        el = np.concatenate([unknown[i], unknown[j]])
        live = el >= 0
        K[np.ix_(el[live], el[live])] += Ke[np.ix_(live, live)]
    for (na, da, nb, db, k) in model.point_springs:
        stretch = full[na, da] - full[nb, db]
        energy += 0.5 * k * stretch ** 2
        f_raw[na, da] += k * stretch
        f_raw[nb, db] -= k * stretch
        ends = ((unknown[na, da], 1.0), (unknown[nb, db], -1.0))
        for ei, si in ends:
            for ej, sj in ends:
                if ei >= 0 and ej >= 0:
                    K[ei, ej] += k * si * sj
    r = np.zeros(n)
    mask = unknown >= 0
    np.add.at(r, unknown[mask], f_raw[mask])
    return f_raw, r, K, energy


def batched_element(xi, xj, d, E, A, I):
    """The solver's batched kernel on a one-element model."""
    model = FrameModel(nodes=[xi, xj], elements=[(0, 1)], section=(E, A, I),
                       fixed=[[True, True, True], [False, False, False]],
                       drive=(1, UY, -1.0))
    f, K, local = _System(model)._elements(np.asarray(d)[None, :])
    return f[0], K[0], _element_energy(*local)[0]


def test_rigid_rotation_patch_test():
    xi = np.array([0.0, 0.0])
    xj = np.array([10.0, 0.0])
    for alpha in (0.05, 0.4, 1.2, -0.8):
        c, s = math.cos(alpha), math.sin(alpha)
        R = np.array([[c, -s], [s, c]])
        trans = np.array([3.0, -2.0])
        ui = R @ xi - xi + trans
        uj = R @ xj - xj + trans
        d = np.array([ui[0], ui[1], alpha, uj[0], uj[1], alpha])
        f, _, energy = batched_element(xi, xj, d, 1800.0, 6.0, 0.72)
        assert np.max(np.abs(f)) < 1e-10
        assert abs(energy) < 1e-10


def test_element_linear_limit_matches_hermitian_stiffness():
    # tiny transverse tip displacement of a horizontal element: the force
    # must match the linear 12EI/L^3, 6EI/L^2 column
    E, A, I, L = 1800.0, 6.0, 0.72, 10.0
    xi = np.array([0.0, 0.0])
    xj = np.array([L, 0.0])
    w = 1e-8
    d = np.array([0.0, 0.0, 0.0, 0.0, w, 0.0])
    f, _, _ = batched_element(xi, xj, d, E, A, I)
    assert f[4] == pytest.approx(12 * E * I / L ** 3 * w, rel=1e-4)
    assert f[5] == pytest.approx(-6 * E * I / L ** 2 * w, rel=1e-4)


@pytest.mark.parametrize("model", [
    build_vbeam_mesh(GEOM, 16, youngs_modulus_E=1800.0),
    build_multibeam_assembly(make_config(), 8),
], ids=["vbeam", "multibeam"])
def test_batched_assembly_matches_per_element_reference(model):
    # seeded states from small to large rotations, point spring included;
    # the strain energy is evaluated from the assembly by path_step
    system = _System(model)
    free = np.flatnonzero(~model.fixed.ravel())
    assert system.driven in free
    assert system.unknowns.tolist() == [i for i in free if i != system.driven]
    rng = np.random.default_rng(17)
    for scale in (1e-6, 1e-2, 0.3, 2.0):
        # random values at the unknowns and the drive; fixed freedoms stay 0
        u = np.zeros(3 * model.n_nodes)
        u[system.unknowns] = scale * rng.standard_normal(system.unknowns.size)
        u[system.driven] = scale * rng.standard_normal()
        got = system.assemble(u)
        want = reference_assemble(system, u)
        for a, b in zip(got[:3], want[:3]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        energy = system.path_step(0.0, u, got, 0, 0.0).strain_energy
        assert energy == pytest.approx(want[3], rel=1e-12)


def reversed_vbeam_mesh(model):
    """The V-beam mesh with its node order reversed: clamped at the last
    node and driven at node 0, so the drive is the first free freedom."""
    last = model.n_nodes - 1
    return FrameModel(nodes=model.nodes[::-1], elements=last - model.elements,
                      section=model.section, fixed=model.fixed[::-1],
                      drive=(last - model.drive[0], *model.drive[1:]))


def test_reversed_node_order_gives_the_same_path():
    model = build_vbeam_mesh(GEOM, 16, youngs_modulus_E=1800.0)
    flipped = reversed_vbeam_mesh(model)
    assert flipped.drive[0] == 0 and flipped.fixed[-1].all()
    a = solve_guided_sweep(model, 5.0, n_steps=50)
    b = solve_guided_sweep(flipped, 5.0, n_steps=50)
    assert [s.iterations for s in b.steps] == [s.iterations for s in a.steps]
    assert [s.stable for s in b.steps] == [s.stable for s in a.steps]
    assert np.allclose(b.reactions, a.reactions, rtol=1e-9, atol=0.0)
    for sa, sb in zip(a.steps, b.steps):
        assert sorted(sb.reactions) == [(0, UX), (0, UY), (0, ROT)]
        for dof in (UX, UY, ROT):
            assert sb.reactions[0, dof] == pytest.approx(
                sa.reactions[16, dof], rel=1e-9,
                abs=1e-9 * abs(sa.reaction))
        assert np.allclose(sb.displacements[::-1], sa.displacements,
                           rtol=1e-9, atol=1e-9 * np.abs(sa.displacements).max())
        assert sb.strain_energy == pytest.approx(sa.strain_energy, rel=1e-9)


# ---------------------------------------------------------------------------
# guided sweep
# ---------------------------------------------------------------------------

def test_linear_regime_guided_stiffness():
    g0 = VBeamGeometry.from_degrees(40, 1.2, 5, 0)
    path = solve_vbeam_sweep(g0, MAT, 1e-4 * 40, n_steps=1)
    step = path.steps[-1]
    k = step.reaction / step.control
    assert k == pytest.approx(12 * 1800 * g0.second_moment / 40 ** 3, rel=0.01)


def test_zero_travel_trivial_path():
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    path = solve_guided_sweep(model, 0.0)
    assert len(path.steps) == 1
    assert path.steps[0].reaction == 0.0
    assert np.all(path.steps[0].displacements == 0.0)
    assert path.steps[0].reactions == {(8, UX): 0.0, (8, UY): 0.0,
                                       (8, ROT): 0.0}
    assert path.steps[0].stable and path.steps[0].iterations == 0


def test_sweep_shape_single_peak_decline():
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=100)
    r = path.reactions
    peaks = np.flatnonzero((np.diff(r[:-1]) > 0) & (np.diff(r[1:]) <= 0)) + 1
    assert len(peaks) == 1
    assert abs(r[-1]) < 0.05 * np.max(r)


def test_sweep_residuals_below_tolerance():
    path = solve_vbeam_sweep(GEOM, MAT, 3.0, n_steps=30, tol=1e-8)
    assert all(s.residual < 1e-8 for s in path.steps)
    assert all(s.iterations <= 25 for s in path.steps)


def test_sweep_determinism():
    a = solve_vbeam_sweep(GEOM, MAT, 2.0, n_steps=20)
    b = solve_vbeam_sweep(GEOM, MAT, 2.0, n_steps=20)
    assert np.array_equal(a.reactions, b.reactions)
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.displacements, sb.displacements)


def test_energy_consistency():
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=100)
    r, c = path.reactions, path.controls
    work = float(np.sum(0.5 * (r[1:] + r[:-1]) * np.diff(c))) + 0.5 * r[0] * c[0]
    stored = path.steps[-1].strain_energy
    assert work == pytest.approx(stored, rel=0.02)


def test_mesh_convergence_on_peak():
    p16 = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=50, n_elements=16)
    p32 = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=50, n_elements=32)
    pk16 = float(np.max(p16.reactions))
    pk32 = float(np.max(p32.reactions))
    assert abs(pk32 - pk16) / pk32 < 0.01


def test_modulus_scaling():
    a = solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=5)
    b = solve_vbeam_sweep(GEOM, MaterialModel(3600.0), 1.0, n_steps=5)
    assert np.allclose(b.reactions, 2.0 * a.reactions, rtol=1e-6)


def test_convergence_error_carries_path():
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ConvergenceError) as info:
        solve_guided_sweep(model, 5.0, n_steps=5, tol=1e-300, max_iters=2)
    err = info.value
    assert err.path is not None
    assert err.last_step is err.path.last


@pytest.mark.parametrize("model", [
    build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0),
    build_multibeam_assembly(make_config(), 8),
], ids=["vbeam", "multibeam"])
def test_step_displacements_are_their_own_tables(monkeypatch, model):
    # each step holds 0 at every fixed freedom and -control at the drive
    # (amplitude -1), and no later step of the sweep moves an earlier array
    made = []
    path_step = _System.path_step

    def recorded(self, *args):
        step = path_step(self, *args)
        made.append((step, step.displacements.copy()))
        return step

    monkeypatch.setattr(_System, "path_step", recorded)
    path = solve_guided_sweep(model, 3.0, n_steps=10)
    node, dof, amp = model.drive
    assert amp == -1.0 and len(made) == len(path.steps)
    for step, snapshot in made:
        assert step.displacements.shape == (model.n_nodes, 3)
        assert np.array_equal(step.displacements, snapshot)
        assert np.all(step.displacements[model.fixed] == 0.0)
        assert step.displacements[node, dof] == -step.control
    arrays = [step.displacements for step, _ in made]
    assert not any(np.shares_memory(a, b)
                   for k, a in enumerate(arrays) for b in arrays[k + 1:])


def test_sweep_assembles_each_newton_iteration_once(monkeypatch):
    # a converged state is recorded from its last Newton assembly, so a
    # sweep without bisection assembles exactly once per iteration
    count = [0]
    assemble = _System.assemble

    def counted(self, *args, **kwargs):
        count[0] += 1
        return assemble(self, *args, **kwargs)

    monkeypatch.setattr(_System, "assemble", counted)
    path = solve_vbeam_sweep(GEOM, MAT, 2.0, n_steps=20, n_elements=8)
    assert len(path.steps) == 20
    assert count[0] == sum(s.iterations for s in path.steps)


# verify seed-301 beam: its 800-step path leaves the stable branch after
# the d1 crossover (0.527 mm) and follows an unstable one
SEED301_GEOM = VBeamGeometry.from_degrees(45.6372, 1.0602, 4.3125, 9.7371)


def test_steps_report_stability_of_the_converged_tangent():
    for n_steps in (20, 100):
        path = solve_vbeam_sweep(SEED301_GEOM, MAT, 5.0, n_steps=n_steps)
        assert all(s.stable for s in path.steps)
    path = solve_vbeam_sweep(SEED301_GEOM, MAT, 5.0, n_steps=800)
    first = next(s for s in path.steps if not s.stable)
    assert first.control == pytest.approx(0.5125, abs=0.02)
    assert all(s.stable for s in path.steps if s.control < first.control)


def _step_fields(s):
    return (s.control, s.displacements.tobytes(), s.reactions, s.reaction,
            s.iterations, s.residual, s.strain_energy, s.stable)


def test_sweep_raises_after_one_bisection_ladder(monkeypatch):
    # Newton fails at every control from the step after 1.2 mm on.  The
    # 0.3 mm step to 1.5 mm is tried at 0.3 / 2**k mm for k = 0..8, since
    # 0.3 / 2**9 is below the 3 / 4096 mm floor, and then the sweep raises
    # with no other attempt and no assembly outside Newton.
    converged, failed, inside, outside = [], [], [False], [0]

    def flaky(system, u, control, tol, max_iters):
        if failed or control > 1.25:
            failed.append(control)
            return None
        inside[0] = True
        result = _newton(system, u, control, tol, max_iters)
        inside[0] = False
        converged.append(result[1])
        return result

    assemble = _System.assemble

    def counted(self, u):
        if not inside[0]:
            outside[0] += 1
        return assemble(self, u)

    monkeypatch.setattr(solver, "_newton", flaky)
    monkeypatch.setattr(_System, "assemble", counted)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ConvergenceError, match="bisection floor") as info:
        solve_guided_sweep(model, 3.0, n_steps=10)
    assert len(failed) == 9
    assert failed[0] == pytest.approx(1.5)
    assert failed[-1] == pytest.approx(1.2 + 0.3 / 2 ** 8)
    assert outside[0] == 0
    err = info.value
    last = err.path.last
    assert err.last_step is last
    assert last.control == uniform_travels(3.0, 10)[3]
    assert (_step_fields(replace(converged[-1], control=last.control))
            == _step_fields(last))


@pytest.mark.parametrize("max_iters", [25, 6], ids=["plain", "bisecting"])
def test_sweep_records_newton_steps_on_the_curve_grid(monkeypatch, max_iters):
    # each step is the PathStep _newton converged to at its target, and the
    # targets are force_curve's travel grid bit for bit
    converged = []

    def recorded(*args):
        result = _newton(*args)
        if result is not None:
            converged.append(result[1])
        return result

    monkeypatch.setattr(solver, "_newton", recorded)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    path = solve_guided_sweep(model, 3.0, n_steps=10, max_iters=max_iters)
    assert path.controls.tobytes() == uniform_travels(3.0, 10).tobytes()
    assert (len(converged) > len(path.steps)) == (max_iters == 6)
    for s in path.steps:
        at_target = [c for c in converged
                     if c.control == pytest.approx(s.control, rel=1e-12)]
        assert at_target
        assert (_step_fields(replace(at_target[-1], control=s.control))
                == _step_fields(s))


@pytest.mark.parametrize("travel", [math.nan, math.inf])
def test_sweeps_refuse_non_finite_travel(travel):
    with pytest.raises(ValidationError, match="not finite"):
        solve_vbeam_sweep(GEOM, MAT, travel, n_steps=5)
    with pytest.raises(ValidationError, match="not finite"):
        solve_multibeam_assembly(make_config(), travel)


def test_sweep_refuses_non_integer_step_count():
    # a count of 2.5 used to step to [0.4, 0.8, 1.2], past travel_max = 1
    with pytest.raises(ValidationError, match="not an integer"):
        solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=2.5)


def _no_assembly(monkeypatch):
    def refuse(*_):
        raise AssertionError("assembled before the settings were checked")
    monkeypatch.setattr(_System, "assemble", refuse)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_sweeps_refuse_bad_tolerance(tol, monkeypatch):
    # a NaN, zero or negative tolerance used to fail every Newton solve
    # and end in ConvergenceError; an infinite one accepted any state
    _no_assembly(monkeypatch)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match="tol"):
        solve_guided_sweep(model, 1.0, n_steps=5, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=5, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        solve_multibeam_assembly(make_config(), 1.0, n_steps=5, tol=tol)


@pytest.mark.parametrize("max_iters", [0, -1, 1.5, 2.0])
def test_sweep_refuses_bad_iteration_limit(max_iters, monkeypatch):
    # 0 used to end in ConvergenceError, 1.5 in a TypeError from range()
    _no_assembly(monkeypatch)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match="max_iters"):
        solve_guided_sweep(model, 1.0, n_steps=5, max_iters=max_iters)


@pytest.mark.parametrize("n_elements", [8.5, 8.0])
def test_meshes_refuse_non_integer_element_count(n_elements):
    # both used to raise numpy's TypeError from np.linspace
    with pytest.raises(ValidationError, match="not an integer"):
        build_vbeam_mesh(GEOM, n_elements)
    with pytest.raises(ValidationError, match="not an integer"):
        solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=5, n_elements=n_elements)
    with pytest.raises(ValidationError, match="not an integer"):
        solve_multibeam_assembly(make_config(), 1.0, n_elements=n_elements)


def test_sweeps_refuse_zero_steps():
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match="n_steps"):
        solve_guided_sweep(model, 1.0, n_steps=0)
    with pytest.raises(ValidationError, match="n_steps"):
        solve_multibeam_assembly(make_config(), 1.0, n_steps=0)


@pytest.mark.parametrize("drive, match", [
    ((8, UY, 0.0), "non-zero"),
    ((8, UY, math.nan), "finite"),
    ((8, UX, -1.0), "fixed and driven"),
    ((9, UY, -1.0), "invalid"),
    ((8, 3, -1.0), "invalid"),
], ids=["zero-amplitude", "nan-amplitude", "fixed-freedom", "missing-node",
        "unknown-dof"])
def test_model_refuses_bad_drive(drive, match):
    # a zero drive would sweep to all-zero reactions and a NaN one ends in
    # ConvergenceError; the others name no free freedom to move
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match=match):
        replace(model, drive=drive)


@pytest.mark.parametrize("change, match", [
    ({"elements": [(0, 1), (1, 9)]}, "missing node"),
    ({"elements": [(0, 1), (-1, 1)]}, "missing node"),
    ({"elements": [(0, 1), (1, 1)]}, "zero length"),
    ({"elements": [0, 1]}, "elements must be"),
    ({"section": (0.0, 6.0, 0.72)}, "section"),
    ({"section": (-1800.0, 6.0, 0.72)}, "section"),
    ({"section": (math.nan, 6.0, 0.72)}, "section"),
    ({"section": (math.inf, 6.0, 0.72)}, "section"),
    ({"section": (1800.0, 0.0, 0.72)}, "section"),
    ({"section": (1800.0, 6.0, -0.72)}, "section"),
    ({"section": (1800.0, 6.0)}, "section"),
    ({"point_springs": [(99, UY, 8, UY, 10.0)]}, "invalid freedom"),
    ({"point_springs": [(3, UY, -1, UY, 10.0)]}, "invalid freedom"),
    ({"point_springs": [(3, 5, 8, UY, 10.0)]}, "invalid freedom"),
    ({"point_springs": [(3, UY, 8, 3, 10.0)]}, "invalid freedom"),
    ({"point_springs": [(3, UY, 8, UY, 0.0)]}, "stiffness"),
    ({"point_springs": [(3, UY, 8, UY, -10.0)]}, "stiffness"),
    ({"point_springs": [(3, UY, 8, UY, math.nan)]}, "stiffness"),
    ({"point_springs": [(3, UY, 8, UY, math.inf)]}, "stiffness"),
], ids=["element-missing-node", "element-negative-node", "zero-length",
        "flat-elements", "zero-modulus", "negative-modulus", "nan-modulus",
        "inf-modulus", "zero-area", "negative-inertia", "two-values",
        "spring-missing-node", "spring-negative-node", "spring-dof-5",
        "spring-dof-3", "spring-zero-k", "spring-negative-k", "spring-nan-k",
        "spring-inf-k"])
def test_model_refuses_bad_mesh(change, match):
    # a spring on node 99 used to end in numpy's IndexError, and dof 5 on
    # node 3 silently tied node 4's rotation; a zero or negative modulus
    # swept to a zero or sign-flipped reaction
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match=match):
        replace(model, **change)


@pytest.mark.parametrize("modulus", [0.0, -1800.0, math.nan, math.inf])
def test_mesh_refuses_bad_modulus(modulus):
    with pytest.raises(ValidationError, match="section"):
        build_vbeam_mesh(GEOM, 8, youngs_modulus_E=modulus)


@pytest.mark.filterwarnings("error")
def test_model_refuses_element_stiffness_that_overflows():
    # the 16 elements of a 2 mm beam are 0.125 mm long: at E 1e307 its
    # E A / L0 overflows, which the solver's set-up met as a divide warning
    # and a sweep as a bisection-floor failure
    short = VBeamGeometry.from_degrees(2, 1.2, 5, 7)
    with pytest.raises(ValidationError, match="E A / L0 or E I / L0"):
        build_vbeam_mesh(short, youngs_modulus_E=1e307)
    model = build_vbeam_mesh(short, youngs_modulus_E=1e306)
    with pytest.raises(ValidationError, match="E A / L0 or E I / L0"):
        replace(model, section=(1e307, 1e-300, 6.0))  # E I / L0 alone


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("modulus", [1e150, 1e160])
def test_newton_overflow_fails_the_attempt_down_to_the_floor(modulus):
    # at E 1e160 the 2 mm beam's residual overflowed in r @ r with a
    # RuntimeWarning; an overflow now fails the attempt like a singular
    # tangent, so the sweep bisects and stops at the floor, as at E 1e150
    model = build_vbeam_mesh(VBeamGeometry.from_degrees(2, 1.2, 5, 7),
                             youngs_modulus_E=modulus)
    with pytest.raises(ConvergenceError, match="bisection floor"):
        solve_guided_sweep(model, 1.5)


# ---------------------------------------------------------------------------
# curve packaging and closed-form comparison
# ---------------------------------------------------------------------------

def test_sweep_to_curve_branches_and_loads():
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=50)
    curve = sweep_to_curve(path, GEOM, MAT)
    assert len(curve) == 50
    assert curve.branches[0].value == "Monostable"
    assert curve.branches[-1].value == "Bistable"
    # the frame solver independently lands near the constant axial-load branch
    assert curve.p_o[-1] == pytest.approx(-9.8837, rel=0.02)


def test_frame_solver_agrees_with_unhalved_closed_form():
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=100)
    fe_curve = sweep_to_curve(path, GEOM, MAT)
    tebc = force_curve(GEOM, MAT, 5.0, 100)
    cmp_ = compare_curves(tebc, fe_curve)
    assert cmp_.rms_rel < 0.05
    assert cmp_.peak_location_diff <= 0.1


def test_compare_identical_curves():
    curve = force_curve(GEOM, MAT, 5.0, 50)
    cmp_ = compare_curves(curve, curve)
    assert cmp_.rms_rel == 0.0
    assert cmp_.max_rel == 0.0
    assert cmp_.peak_force_rel_diff == 0.0
    assert cmp_.peak_location_diff == 0.0


def test_compare_scaled_curve():
    curve = force_curve(GEOM, MAT, 5.0, 50)
    scaled = curve.with_force(1.1 * curve.force)
    cmp_ = compare_curves(curve, scaled)
    assert cmp_.rms_rel == pytest.approx(0.1, rel=1e-9)
    assert cmp_.max_rel == pytest.approx(0.1, rel=1e-9)
    assert cmp_.peak_force_rel_diff == pytest.approx(0.1, rel=1e-9)
    assert cmp_.peak_location_diff == 0.0


def test_compare_single_sample_overlap():
    a = force_curve(GEOM, MAT, 5.0, 5)      # samples at 1,2,3,4,5
    b_src = force_curve(GEOM, MAT, 10.0, 2)  # samples at 5,10
    cmp_ = compare_curves(a, b_src)
    assert cmp_.peak_location_diff == 0.0


def test_compare_disjoint_domains():
    a = force_curve(GEOM, MAT, 1.0, 4)
    full = force_curve(GEOM, MAT, 10.0, 10)
    # samples of b start at 2.0, beyond a's last sample at 1.0
    mask = full.delta_y >= 2.0
    from graspsynth import ForceDisplacementCurve
    b = ForceDisplacementCurve(full.delta_y[mask], full.force[mask],
                               full.f_o[mask], full.p_o[mask],
                               full.branches[-int(mask.sum()):])
    with pytest.raises(ValidationError, match="disjoint"):
        compare_curves(a, b)


def test_compare_overlap_without_reference_samples():
    # a sampled at 1 and 2 mm, b at 1.2 and 1.8 mm: the domains overlap on
    # [1.2, 1.8], which holds no sample of a
    from graspsynth import ForceDisplacementCurve

    def samples(curve, lo):
        mask = curve.delta_y >= lo
        return ForceDisplacementCurve(
            curve.delta_y[mask], curve.force[mask], curve.f_o[mask],
            curve.p_o[mask], curve.branches[-int(mask.sum()):])

    a = samples(force_curve(GEOM, MAT, 2.0, 2), 1.0)
    b = samples(force_curve(GEOM, MAT, 1.8, 3), 1.2)
    assert list(a.delta_y) == [1.0, 2.0]
    assert list(b.delta_y) == pytest.approx([1.2, 1.8])
    with pytest.raises(ValidationError, match="disjoint travel domains"):
        compare_curves(a, b)
    # the other way round both samples of the reference lie in the overlap
    assert compare_curves(b, a).peak_location_diff >= 0.0


# ---------------------------------------------------------------------------
# multibeam assembly
# ---------------------------------------------------------------------------

def test_multibeam_zero_input():
    assert solve_multibeam_assembly(make_config(), 0.0) == (0.0, 0.0)


def test_multibeam_beam_count_ordering():
    s12, _ = solve_multibeam_assembly(make_config(n_beams=12), 1.5, n_steps=8)
    s10, _ = solve_multibeam_assembly(make_config(n_beams=10), 1.5, n_steps=8)
    assert s10 > s12 > 0.0


def test_multibeam_rigid_link_limit():
    config = make_config(n_beams=3, series_stiffness_ks=1e6)
    shuttle, _ = solve_multibeam_assembly(config, 0.5, n_steps=8)
    assert shuttle == pytest.approx(0.5, rel=1e-3)


def test_multibeam_assembly_structure():
    model = build_multibeam_assembly(make_config(n_beams=3), n_elements=8)
    # one beam of 9 nodes standing for all 3, plus the ring node
    assert model.n_nodes == 8 + 2
    assert len(model.elements) == 8
    assert model.section[0] == 3 * 1800.0
    assert len(model.point_springs) == 1
    assert model.drive == (model.n_nodes - 1, UY, -1.0)


# (config, ring mm, n_steps, shuttle, reaction) from the assembly that meshed
# and tied all N beams; the 2-beam case stays on its branch only if the
# condensed model follows the same ring-controlled path.
TIED_REFERENCE = [
    (make_config(), 1.5, 8, 0.2661153609026359, 12.338846390973641),
    (make_config(beam_geometry=VBeamGeometry.from_degrees(
        45.6372, 1.0602, 4.3125, 9.7371), n_beams=2),
     2.9835, 20, 2.544198070520147, 4.39301929479853),
]


@pytest.mark.parametrize("config,ring,n_steps,shuttle,reaction", TIED_REFERENCE)
def test_multibeam_matches_tied_reference(config, ring, n_steps, shuttle,
                                          reaction):
    s, r = solve_multibeam_assembly(config, ring, n_steps=n_steps)
    assert s == pytest.approx(shuttle, rel=1e-9)
    assert r == pytest.approx(reaction, rel=1e-9)
    assert r == pytest.approx(config.series_stiffness_ks * (ring - s), rel=1e-9)


# ---------------------------------------------------------------------------
# path CSV
# ---------------------------------------------------------------------------

def test_path_csv_format(tmp_path):
    path = solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=4)
    dest = tmp_path / "path.csv"
    write_path_csv(path, dest)
    text = dest.read_text()
    lines = text.split("\n")
    assert lines[0] == "step,control_mm,reaction_N,iters,residual"
    assert len(lines) == 1 + 4 + 1  # header, rows, trailing newline
    assert "\r" not in text
    write_path_csv(path, dest)
    assert dest.read_text() == text


def test_path_csv_bytes_on_a_hand_built_path(tmp_path):
    def step(control, reaction, iterations, residual):
        return PathStep(control, np.zeros(3), {}, reaction, iterations,
                        residual, 0.0, True)

    path = EquilibriumPath(build_vbeam_mesh(GEOM, 4), [
        step(0.0, 0.0, 0, 0.0),
        step(0.25, -1.0 / 3.0, 4, 1.5e-11),
        step(1.0, 123456.789012345, 12, 2.0 ** -40)])
    dest = tmp_path / "path.csv"
    write_path_csv(path, dest)
    assert dest.read_bytes() == (
        b"step,control_mm,reaction_N,iters,residual\n"
        b"0,0,0,0,0\n"
        b"1,0.25,-0.333333333,4,1.5e-11\n"
        b"2,1,123456.789,12,9.09494702e-13\n")
