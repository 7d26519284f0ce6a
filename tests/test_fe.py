"""Tests for the nonlinear planar frame solver and curve comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspsynth import (ConvergenceError, FrameModel, MaterialModel,
                        NumericalError, ValidationError, VBeamGeometry,
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
    with pytest.raises(ValidationError, match=f"n_elements {count} exceeds "
                                              f"the cap {ELEMENT_CAP}"):
        build_vbeam_mesh(GEOM, count)


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
    assert model.drive == (guided, UY)


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
    tangent and strain energy for d = (u_i, v_i, r_i, u_j, v_j, r_j).  It
    takes angles with numpy's arctan2, as the kernel does: math.atan2 can
    round a chord angle an ulp apart, and an end rotation, a difference of
    chord angles, carries that ulp into the moments (4e-11 of a moment at
    rotations of 1e-6 on angles near 0.12 rad).
    """
    dx0 = xj[0] - xi[0]
    dy0 = xj[1] - xi[1]
    L0 = math.hypot(dx0, dy0)
    beta0 = np.arctan2(dy0, dx0)

    dx = dx0 + d[3] - d[0]
    dy = dy0 + d[4] - d[1]
    Ln = math.hypot(dx, dy)
    c = dx / Ln
    s = dy / Ln

    rigid = np.arctan2(dy, dx) - beta0
    rigid = np.arctan2(math.sin(rigid), math.cos(rigid))
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
    """_System.assemble as a loop over reference_element, then the sums of
    the magnitudes of the element contributions to each entry of the force
    table, residual and tangent."""
    model = system.model
    full = u.reshape(-1, 3)
    n = system.unknowns.size
    unknown = -np.ones(3 * model.n_nodes, dtype=int)
    unknown[system.unknowns] = np.arange(n)
    unknown = unknown.reshape(-1, 3)
    f_raw, f_size = np.zeros((2, model.n_nodes, 3))
    K, K_size = np.zeros((2, n, n))
    energy = 0.0
    for i, j in model.elements:
        d = np.concatenate([full[i], full[j]])
        fe, Ke, ee = reference_element(model.nodes[i], model.nodes[j], d,
                                       *model.section)
        energy += ee
        for table, part in ((f_raw, fe), (f_size, np.abs(fe))):
            table[i] += part[:3]
            table[j] += part[3:]
        el = np.concatenate([unknown[i], unknown[j]])
        live = el >= 0
        K[np.ix_(el[live], el[live])] += Ke[np.ix_(live, live)]
        K_size[np.ix_(el[live], el[live])] += np.abs(Ke[np.ix_(live, live)])
    mask = unknown >= 0
    r, r_size = np.zeros((2, n))
    np.add.at(r, unknown[mask], f_raw[mask])
    np.add.at(r_size, unknown[mask], f_size[mask])
    return f_raw, r, K, energy, (f_size, r_size, K_size)


def batched_element(xi, xj, d, E, A, I):
    """The solver's batched kernel on a one-element model."""
    model = FrameModel(nodes=[xi, xj], elements=[(0, 1)], section=(E, A, I),
                       fixed=[[True, True, True], [False, False, False]],
                       drive=(1, UY))
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


def interior_fixed(model):
    """The model with node 4's rotation fixed too: its unknowns skip an
    interior freedom, so they are no contiguous run of the full table."""
    fixed = model.fixed.copy()
    fixed[4, ROT] = True
    return replace(model, fixed=fixed)


@pytest.mark.parametrize("model, per_entry", [
    (build_vbeam_mesh(GEOM, 16, youngs_modulus_E=1800.0), False),
    # the 12-beam assembly's condensed beam (12 E) on 8 elements
    (interior_fixed(build_vbeam_mesh(GEOM, 8, youngs_modulus_E=12 * 1800.0)),
     False),
    # the mesh solve_multibeam_assembly runs: at the 1e-6 scale the nodal
    # sums of element forces cancel, so each entry is bounded by the
    # magnitudes of the element contributions summed into it
    (interior_fixed(build_multibeam_assembly(make_config())), True),
], ids=["vbeam", "multibeam", "assembly"])
def test_batched_assembly_matches_per_element_reference(model, per_entry):
    # seeded states from small to large rotations; the strain energy is
    # evaluated from the assembly by path_step
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
        for a, b, size in zip(got[:3], want[:3], want[4]):
            assert a.shape == b.shape
            if per_entry:
                assert np.all(np.abs(a - b) <= 1e-12 * size)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        energy = system.path_step(0.0, u, got, 0, 0.0).strain_energy
        assert energy == pytest.approx(want[3], rel=1e-12)


def full_table_assemble(system, u):
    """_System.assemble through the full (3 nodes)^2 tangent table.

    Element entries are bincounted in the solver's order at their flat
    freedoms and flat (row, column) positions; the residual and the tangent
    are then gathered at the unknowns.
    """
    model = system.model
    n = u.size
    el_dofs = (3 * np.repeat(model.elements, 3, axis=1)
               + np.tile([UX, UY, ROT], 2))
    f_el, K_el, _ = system._elements(u[el_dofs])
    f = np.bincount(el_dofs.ravel(), f_el.ravel(), n)
    K = np.bincount((el_dofs[:, :, None] * n + el_dofs[:, None, :]).ravel(),
                    K_el.ravel(), n * n).reshape(n, n)
    unknowns = system.unknowns
    return f.reshape(-1, 3), f[unknowns], K[np.ix_(unknowns, unknowns)]


@pytest.mark.parametrize("model", [
    build_vbeam_mesh(GEOM, 16, youngs_modulus_E=1800.0),
    interior_fixed(build_multibeam_assembly(make_config())),
], ids=["vbeam", "multibeam"])
def test_assembly_equals_the_full_table_bit_for_bit(model):
    # the second mesh's unknowns skip node 4's rotation, so its block is no
    # contiguous run of the full table
    system = _System(model)
    n_u = system.unknowns.size
    assert np.any(np.diff(system.unknowns) > 1) == model.fixed[4, ROT]
    rng = np.random.default_rng(23)
    for scale in (1e-3, 0.3):
        u = np.zeros(3 * model.n_nodes)
        u[system.unknowns] = scale * rng.standard_normal(n_u)
        u[system.driven] = scale * rng.standard_normal()
        got = system.assemble(u)[:3]
        want = full_table_assemble(system, u)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        K = got[2]
        assert (K if K.base is None else K.base).size <= n_u * n_u + 1


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
        solve_guided_sweep(model, 5.0, n_steps=5, tol=1e-300)
    err = info.value
    assert err.path is not None
    assert err.last_step is err.path.last


@pytest.mark.parametrize("model", [
    build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0),
    build_multibeam_assembly(make_config()),
], ids=["vbeam", "multibeam"])
def test_step_displacements_are_their_own_tables(monkeypatch, model):
    # each converged state holds 0 at every fixed freedom and -control at
    # the drive, and no later state of the sweep moves an earlier array; the
    # path keeps every state but the predicted ones refused as unstable
    made = []
    path_step = _System.path_step

    def recorded(self, *args):
        step = path_step(self, *args)
        made.append((step, step.displacements.copy()))
        return step

    monkeypatch.setattr(_System, "path_step", recorded)
    path = solve_guided_sweep(model, 3.0, n_steps=10)
    node, dof = model.drive
    refused = [step for step, _ in made
               if not any(step is s for s in path.steps)]
    assert all(not step.stable for step in refused)
    assert len(made) == len(path.steps) + len(refused)
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
    # sweep without bisection assembles exactly once per iteration of its
    # steps and of the predicted states it refuses as unstable
    count, attempts = [0], []
    assemble = _System.assemble

    def counted(self, *args, **kwargs):
        count[0] += 1
        return assemble(self, *args, **kwargs)

    def attempt(system, u, control, tol):
        before = count[0]
        result = _newton(system, u, control, tol)
        attempts.append((result, count[0] - before))
        return result

    monkeypatch.setattr(_System, "assemble", counted)
    monkeypatch.setattr(solver, "_newton", attempt)
    path = solve_vbeam_sweep(GEOM, MAT, 2.0, n_steps=20, n_elements=8)
    assert len(path.steps) == 20
    assert all(result is not None and made == result.iterations
               for result, made in attempts)
    refused = [result for result, _ in attempts
               if not any(result is s for s in path.steps)]
    assert all(not result.stable for result in refused)
    assert count[0] == sum(s.iterations for s in path.steps + refused)


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


def drive_only_advance(system, path, target, scale, tol):
    """The reference step rule: every attempt runs Newton from the last
    converged state with only the drive moved, halving a failing one."""
    state = path.last
    u, control = ((state.displacements, state.control) if state else
                  (np.zeros(3 * system.model.n_nodes), 0.0))
    while control < target - 1e-12 * scale:
        attempt = target - control
        while (state := _newton(system, u, control + attempt, tol)) is None:
            attempt /= 2.0
            assert attempt >= scale / solver.BISECTION_FLOOR_DIV
        u, control = state.displacements, state.control
    path.steps.append(replace(state, control=target))


def drive_only_sweep(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_advance", drive_only_advance)
        return solve_vbeam_sweep(*args, **kwargs)


def test_secant_prediction_saves_newton_iterations():
    # table1's 16-element, 100-step sweep to 5 mm: the same path as the
    # drive-only steps, in about two thirds of the iterations
    path = solve_vbeam_sweep(GEOM, MAT, 5.0, n_steps=100)
    reference = drive_only_sweep(GEOM, MAT, 5.0, n_steps=100)
    peak = np.max(reference.reactions)
    assert np.max(np.abs(path.reactions - reference.reactions)) <= 1e-9 * peak
    assert [s.stable for s in path.steps] == [s.stable for s in reference.steps]
    assert sum(s.iterations for s in path.steps) == 330
    assert sum(s.iterations for s in reference.steps) == 506


def test_secant_prediction_stays_on_the_stable_branch():
    # verify seed-301 input 20: from the drive-only start the step to
    # 3.1111 mm converges to an unstable state (-0.031286 N); the predicted
    # start reaches a stable one of lower strain energy (-0.020486 N)
    geom = VBeamGeometry.from_degrees(35.5064, 0.801, 4.6408, 4.9236)
    path = solve_vbeam_sweep(geom, MAT, 5.0, n_steps=45)
    reference = drive_only_sweep(geom, MAT, 5.0, n_steps=45)
    assert all(s.stable for s in path.steps)
    step, unstable = path.steps[27], reference.steps[27]
    assert step.control == unstable.control == pytest.approx(28 / 9)
    assert not unstable.stable
    assert step.strain_energy < unstable.strain_energy


def _step_fields(s):
    return (s.control, s.displacements.tobytes(), s.reactions, s.reaction,
            s.iterations, s.residual, s.strain_energy, s.stable)


def _starts_predicted(system, u, control):
    """Whether a Newton attempt starts from _advance's secant prediction:
    only that start already holds the drive at -control, where a drive-only
    start holds it at the last converged control."""
    return math.isclose(u.flat[system.driven], -control, rel_tol=1e-9)


def test_sweep_raises_after_one_bisection_ladder(monkeypatch):
    # Newton fails at every control from the step after 1.2 mm on.  The
    # 0.3 mm step to 1.5 mm is tried from the secant prediction, then from
    # the drive-only start at 0.3 / 2**k mm for k = 0..8, since 0.3 / 2**9
    # is below the 3 / 4096 mm floor, and then the sweep raises with no
    # other attempt and no assembly outside Newton.
    converged, failed, inside, outside = [], [], [False], [0]
    predicted = []

    def flaky(system, u, control, tol):
        if failed or control > 1.25:
            failed.append(control)
            predicted.append(_starts_predicted(system, u, control))
            return None
        inside[0] = True
        result = _newton(system, u, control, tol)
        inside[0] = False
        converged.append(result)
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
    assert predicted == [True] + 9 * [False]
    assert len(failed) == 1 + 9
    assert failed[0] == failed[1] == pytest.approx(1.5)
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
    # targets are force_curve's travel grid bit for bit; only bisection
    # adds states besides the predicted ones refused as unstable
    converged, refused = [], []

    def recorded(system, u, control, tol):
        result = _newton(system, u, control, tol)
        if result is not None:
            converged.append(result)
            if _starts_predicted(system, u, control) and not result.stable:
                refused.append(result)
        return result

    monkeypatch.setattr(solver, "_newton", recorded)
    monkeypatch.setattr(solver, "MAX_ITERS", max_iters)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    path = solve_guided_sweep(model, 3.0, n_steps=10)
    assert path.controls.tobytes() == uniform_travels(3.0, 10).tobytes()
    assert not any(r is s for r in refused for s in path.steps)
    assert ((len(converged) - len(refused) > len(path.steps))
            == (max_iters == 6))
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0,
                                 pytest.param(10 ** 400, id="1e400")])
def test_sweeps_refuse_bad_tolerance(tol, monkeypatch):
    # a NaN, zero or negative tolerance used to fail every Newton solve
    # and end in ConvergenceError; an infinite one, or an int too large
    # for a float, accepted any state
    _no_assembly(monkeypatch)
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match="tol"):
        solve_guided_sweep(model, 1.0, n_steps=5, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=5, tol=tol)


@pytest.mark.parametrize("n_elements", [8.5, 8.0])
def test_meshes_refuse_non_integer_element_count(n_elements):
    # both used to raise numpy's TypeError from np.linspace
    with pytest.raises(ValidationError, match="not an integer"):
        build_vbeam_mesh(GEOM, n_elements)
    with pytest.raises(ValidationError, match="not an integer"):
        solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=5, n_elements=n_elements)


def test_sweeps_refuse_zero_steps():
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match="n_steps"):
        solve_guided_sweep(model, 1.0, n_steps=0)


@pytest.mark.parametrize("drive, match", [
    ((8, UX), "fixed and driven"),
    ((9, UY), "invalid"),
    ((8, 3), "invalid"),
    ((8, UY, -1.0),
     r"drive \(8, 1, -1\.0\) is invalid: it must be a \(node, dof\) pair"),
    ((8,), r"drive \(8,\) is invalid"),
    (8, "drive 8 is invalid"),
    ((7.5, UY), r"drive \(7\.5, 1\) is invalid"),
    ((8, 1.0), r"drive \(8, 1\.0\) is invalid"),
], ids=["fixed-freedom", "missing-node", "unknown-dof", "three-entries",
        "one-entry", "no-pair", "fractional-node", "float-dof"])
def test_model_refuses_bad_drive(drive, match):
    # none names a free freedom to move; a drive of the wrong length used
    # to end in Python's bare ValueError from unpacking it, and one on node
    # 7.5 in numpy's IndexError
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
    ({"section": (10 ** 400, 6.0, 0.72)}, "section"),
    ({"nodes": [(0.0, 0.0)] * 8 + [(10 ** 400, 0.0)]}, "node coordinates"),
], ids=["element-missing-node", "element-negative-node", "zero-length",
        "flat-elements", "zero-modulus", "negative-modulus", "nan-modulus",
        "inf-modulus", "zero-area", "negative-inertia", "two-values",
        "beyond-float-modulus", "beyond-float-node"])
def test_model_refuses_bad_mesh(change, match):
    # a zero or negative modulus swept to a zero or sign-flipped reaction;
    # an int too large for a float raised OverflowError
    model = build_vbeam_mesh(GEOM, 8, youngs_modulus_E=1800.0)
    with pytest.raises(ValidationError, match=match):
        replace(model, **change)


@pytest.mark.parametrize("modulus", [0.0, -1800.0, math.nan, math.inf,
                                     pytest.param(10 ** 400, id="1e400")])
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
    s12, _ = solve_multibeam_assembly(make_config(n_beams=12), 1.5)
    s10, _ = solve_multibeam_assembly(make_config(n_beams=10), 1.5)
    assert s10 > s12 > 0.0


def test_multibeam_rigid_link_limit():
    config = make_config(n_beams=3, series_stiffness_ks=1e6)
    shuttle, _ = solve_multibeam_assembly(config, 0.5)
    assert shuttle == pytest.approx(0.5, rel=1e-3)


def test_multibeam_refuses_a_negative_ring_travel():
    with pytest.raises(ValidationError, match="ring_disp"):
        solve_multibeam_assembly(make_config(), -1.0)


def test_multibeam_assembly_structure():
    model = build_multibeam_assembly(make_config(n_beams=3))
    # one beam of 17 nodes standing for all 3, driven at its guided end
    assert model.n_nodes == 17
    assert len(model.elements) == 16
    assert model.section[0] == 3 * 1800.0
    assert model.drive == (16, UY)
    assert not hasattr(model, "point_springs")


# (config, ring mm, n_steps, shuttle, reaction), n_steps being the steps of
# the shuttle sweep that checks the answer's stability.  The first row is the
# answer of an assembly that meshed and tied all N beams.  The second is
# the stable answer on the seed-301 verify beam, where a ring-driven sweep
# through a spring converged on unstable states from 1.04 mm on.  With
# ks = 1 N/mm the beam pushes back (F < 0) at the ring travel, so the
# shuttle steps past it; 12 beams behind ks = 5 N/mm snap past the fold of
# r(s) (test_ring_travel_folds_below_the_far_branch); a soft spring pulls
# one beam far along its travel.  On the verify seed-8 beam (input 54)
# drive-only shuttle steps ended on an unstable state (1.64617 mm,
# 1.30926 N).
ASSEMBLY_REFERENCE = [
    (make_config(), 1.5, 8, 0.2661153609026359, 12.338846390973641),
    (make_config(beam_geometry=VBeamGeometry.from_degrees(
        45.6372, 1.0602, 4.3125, 9.7371), n_beams=2),
     2.9835, 20, 2.6504072669629797, 3.3309273291668884),
    (make_config(n_beams=1, series_stiffness_ks=1.0), 6.0, 20,
     6.356820532347238, -0.35682053239263833),
    (make_config(n_beams=12, series_stiffness_ks=5.0), 8.8, 20,
     7.421947565271325, 6.890262172965234),
    (make_config(n_beams=1, series_stiffness_ks=0.2), 17.0, 20,
     8.065209231049167, 1.7869581537552233),
    (make_config(beam_geometry=VBeamGeometry.from_degrees(
        44.5267, 1.0153, 5.1379, 4.381), n_beams=2),
     1.7771, 20, 1.6484889320697405, 1.2861106792679375),
]


@pytest.mark.parametrize(
    "config,ring,n_steps,shuttle,reaction", ASSEMBLY_REFERENCE,
    ids=["table-12-beams", "seed-301-2-beams", "shuttle-past-ring",
         "far-branch-past-fold", "soft-spring-long-travel",
         "seed-8-2-beams"])
def test_multibeam_matches_reference(config, ring, n_steps, shuttle,
                                     reaction):
    s, r = solve_multibeam_assembly(config, ring)
    assert s == pytest.approx(shuttle, rel=1e-9)
    assert r == pytest.approx(reaction, rel=1e-9)
    assert r == pytest.approx(config.series_stiffness_ks * (ring - s),
                              abs=solver.DEFAULT_TOLERANCE)
    # a shuttle sweep to the answer ends stable, at the returned reaction
    last = solve_guided_sweep(build_multibeam_assembly(config), s,
                              n_steps).last
    assert last.stable
    assert last.reaction == pytest.approx(r, abs=1e-7)


@pytest.mark.parametrize("ring,n_steps", [(3.0, 1), (5.0, 1), (5.0, 3)])
def test_coarse_step_secant_stays_inside_its_bracket(ring, n_steps,
                                                     monkeypatch):
    # each coarse bracket holds a root; a secant point outside it (at a
    # negative shuttle travel for 3 mm in one step) must not replace an end
    config = make_config(n_beams=12)
    fine, _ = solve_multibeam_assembly(config, ring)
    monkeypatch.setattr(solver, "ASSEMBLY_STEPS", n_steps)
    s, r = solve_multibeam_assembly(config, ring)
    assert r == pytest.approx(config.series_stiffness_ks * (ring - s),
                              abs=solver.DEFAULT_TOLERANCE)
    assert s == pytest.approx(fine, abs=1e-8)


@pytest.mark.parametrize("call", [
    lambda: solve_vbeam_sweep(GEOM, MAT, 5e-324, n_steps=2),
    lambda: solve_vbeam_sweep(GEOM, MAT, 1e-323, n_steps=3),
    lambda: solve_multibeam_assembly(make_config(), 5e-324),
    lambda: solve_multibeam_assembly(make_config(), 1e-323),
], ids=["sweep-5e-324", "sweep-1e-323", "assembly-5e-324",
        "assembly-1e-323"])
def test_travel_grid_that_underflows_is_refused(call):
    # grids [0, 5e-324], [0, 5e-324, 1e-323] and the assembly's 20 steps do
    # not rise strictly from above 0
    with pytest.raises(ValidationError, match="would not rise strictly"):
        call()


TRAVELS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-323, 1e-310]),
                    st.floats(0.0, 10.0, exclude_min=True))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(TRAVELS, TRAVELS, st.integers(1, 25))
def test_oracle_entry_points_refuse_or_answer(travel, ring, n_steps):
    # each call raises ValidationError or NumericalError, or returns a sweep
    # rising strictly to its travel or a balanced assembly; nothing else
    try:
        controls = solve_vbeam_sweep(GEOM, MAT, travel, n_steps).controls
    except (ValidationError, NumericalError):
        pass
    else:
        assert controls[-1] == travel
        assert controls[0] > 0.0 or travel == 0.0
        assert np.all(np.diff(controls) > 0.0)
    config = make_config()
    try:
        s, r = solve_multibeam_assembly(config, ring)
    except (ValidationError, NumericalError):
        return
    assert abs(r - config.series_stiffness_ks * (ring - s)) < (
        solver.DEFAULT_TOLERANCE)


def test_ring_travel_folds_below_the_far_branch():
    # r(s) = s + F(s) / ks of 12 beams behind ks = 5 N/mm peaks near
    # s = 1.2 mm below 8.8 mm, then falls, so the 8.8 mm reference answer
    # lies on the far branch
    path = solve_guided_sweep(
        build_multibeam_assembly(make_config(series_stiffness_ks=5.0)),
        8.0, 40)
    ring = path.controls + path.reactions / 5.0
    fold = int(np.argmax(ring[:10]))
    assert path.controls[fold] == pytest.approx(1.2)
    assert ring[fold + 1] < ring[fold] < 8.8


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
