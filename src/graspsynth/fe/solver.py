"""Geometrically nonlinear planar frame solver.

Corotational kinematics: each element separates the rigid motion of its
chord from small local deformations (axial stretch and two end rotations
relative to the rotated chord).  Local elastic behavior is the cubic
Hermitian bending stiffness plus a linear axial bar; shear deformation is
neglected, which is appropriate for the slender flexures this solver
verifies (T/L of order 0.03).

Assembly is one array pass over all elements: chord geometry, the
strain-displacement rows, local forces, internal forces, tangents and
energies are (n_el, ...) arrays, and np.bincount scatters them and the
point springs into the force table and the equation tangent over flat
indices computed once per model.

Equilibrium paths are traversed under displacement control with Newton
iteration, on force_curve's uniform travel grid (beam.uniform_travels).  A
step that fails to converge is bisected down to a floor and, failing that,
handed to a spherical arc-length corrector, which gives up after a fixed
number of increments; if everything fails a diagnostic error carries the
partial path.  Newton returns each converged state as the PathStep of its
last assembly, whose stable flag says whether the free-free tangent is
positive definite (one Cholesky attempt); a step that is not lies on an
unstable branch, which the sweep reports but does not correct.

A solver run mutates only local state; independent solves may run
concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._csv import write_csv
from ..beam import (Branch, ForceDisplacementCurve, MaterialModel,
                    VBeamGeometry, bistability_margin, uniform_travels)
from ..errors import ConvergenceError, ValidationError
from ..mechanism import MechanismConfig
from .model import (DEFAULT_ELEMENTS_PER_BEAM, ROT, UX, UY, FrameModel,
                    build_multibeam_assembly, build_vbeam_mesh)

PATH_CSV_HEADER = "step,control_mm,reaction_N,iters,residual"

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITERS = 25
DEFAULT_STEPS = 100
DEFAULT_ASSEMBLY_STEPS = 20
BISECTION_FLOOR_DIV = 4096
# Nominal increments of the arc-length fallback, and the most it takes
# before giving up.  Ranges that converge take up to ~60 increments.
ARC_SUBSTEPS = 8
ARC_MAX_SUBSTEPS = 128
# turns a chord direction (c, s), reversed to (s, c), into its normal (-s, c)
_TURN = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class PathStep:
    """One converged equilibrium state along a control sweep.

    stable is True when the converged free-free tangent is positive
    definite (stability index 0); False marks a state on an unstable
    branch.
    """

    control: float
    displacements: np.ndarray
    reactions: Dict[Tuple[int, int], float]
    reaction: float
    iterations: int
    residual: float
    strain_energy: float
    stable: bool


@dataclass
class EquilibriumPath:
    model: FrameModel
    steps: List[PathStep] = field(default_factory=list)

    @property
    def controls(self) -> np.ndarray:
        return np.array([s.control for s in self.steps])

    @property
    def reactions(self) -> np.ndarray:
        return np.array([s.reaction for s in self.steps])

    @property
    def last(self) -> Optional[PathStep]:
        return self.steps[-1] if self.steps else None


def _live_pairs(eqs: np.ndarray, n_eq: int):
    """Live entries of per-member equation numbers eqs (m, k); -1 is fixed.

    Returns the flat positions of the live entries in an (m, k, k) stack
    and their flat (row, column) positions in the n_eq x n_eq matrix.
    """
    live = (eqs[:, :, None] >= 0) & (eqs[:, None, :] >= 0)
    return (np.flatnonzero(live),
            (eqs[:, :, None] * n_eq + eqs[:, None, :])[live])


class _System:
    """Equation numbering, assembly and residual bookkeeping for one model.

    Everything that depends only on the model is computed once here: the
    per-element section and chord arrays and the flat scatter indices of
    the element and spring contributions into the raw force table and the
    equation tangent, with constrained entries already dropped.  The
    element work arrays are reused by every assembly, so one instance
    serves one solve at a time.
    """

    def __init__(self, model: FrameModel):
        self.model = model
        n = model.n_nodes
        eq = -np.ones((n, 3), dtype=int)
        count = int(np.count_nonzero(~model.fixed))
        eq[~model.fixed] = np.arange(count)
        self.eq = eq
        self.n_eq = count
        node, dof, self.amp = model.drive
        self.drive_eq = int(eq[node, dof])
        self.free_idx = np.delete(np.arange(count), self.drive_eq)
        self.free_free = np.ix_(self.free_idx, self.free_idx)
        # a step reports the driven node's constrained freedoms and the drive
        self._reported = [(node, d) for d in range(3)
                          if model.fixed[node, d] or d == dof]
        # flat freedom (3 * node + dof) of each equation, in equation order
        self._eq_dofs = np.flatnonzero(~model.fixed.ravel())

        els = model.elements
        ends = np.array([(e.node_i, e.node_j) for e in els],
                        dtype=int).reshape(-1, 2)
        E, A, I = np.array([(e.E, e.A, e.I) for e in els],
                           dtype=float).reshape(-1, 3).T
        self._EA = E * A
        self._EI = E * I
        self._dxy0 = model.nodes[ends[:, 1]] - model.nodes[ends[:, 0]]
        self._L0 = np.hypot(self._dxy0[:, 0], self._dxy0[:, 1])
        self._beta0 = np.arctan2(self._dxy0[:, 1], self._dxy0[:, 0])
        self._el_dofs = (3 * np.repeat(ends, 3, axis=1)
                         + np.tile([UX, UY, ROT], 2))
        # Element work arrays.  The rows of G are r (chord stretch), b1 and
        # b2 (end rotations), which make up B, and the chord normal z; only
        # their translational entries change between assemblies.  D holds
        # the local constitutive matrix C (axial bar, cubic Hermitian
        # bending) on the B rows and the geometric coefficients on the z row
        # and column, so that G^T D G = B^T C B + N/Ln z z^T
        # + (M1 + M2)/Ln^2 (r z^T + z r^T).
        n_el = len(els)
        k_b = self._EI / self._L0
        self._G = np.zeros((n_el, 4, 6))
        self._G[:, 1, ROT] = self._G[:, 2, 3 + ROT] = 1.0
        self._D = np.zeros((n_el, 4, 4))
        self._D[:, 0, 0] = self._EA / self._L0
        self._D[:, 1, 1] = self._D[:, 2, 2] = 4.0 * k_b
        self._D[:, 1, 2] = self._D[:, 2, 1] = 2.0 * k_b
        self._f_local = np.zeros((n_el, 1, 3))

        # point springs: freedoms, stiffnesses and their constant tangent
        springs = model.point_springs
        self._spring_a = np.array([3 * na + da for na, da, _, _, _ in springs],
                                  dtype=int)
        self._spring_b = np.array([3 * nb + db for _, _, nb, db, _ in springs],
                                  dtype=int)
        self._spring_k = np.array([k for *_, k in springs], dtype=float)

        # scatter targets: raw forces by flat freedom; tangent entries by
        # flat (row, column) of the equation matrix, constrained ones dropped
        self._f_pos = np.concatenate(
            [self._el_dofs.ravel(), self._spring_a, self._spring_b])
        self._k_live, k_pos = _live_pairs(eq.ravel()[self._el_dofs], count)
        spring_live, spring_pos = _live_pairs(eq.ravel()[np.stack(
            [self._spring_a, self._spring_b], axis=1)], count)
        self._spring_tangent = (
            self._spring_k[:, None, None] * [[1.0, -1.0], [-1.0, 1.0]]
        ).ravel()[spring_live]
        self._k_pos = np.concatenate([k_pos, spring_pos])

    def expand(self, u_eq: np.ndarray) -> np.ndarray:
        """Full (n, 3) displacement table from the equation vector."""
        full = np.zeros(3 * self.model.n_nodes)
        full[self._eq_dofs] = u_eq
        return full.reshape(-1, 3)

    def _elements(self, d: np.ndarray):
        """Internal forces (n_el, 6), tangents (n_el, 6, 6) and energies.

        d holds each element's (u_i, v_i, r_i, u_j, v_j, r_j).  The local
        state is the chord stretch and the end rotations measured from the
        rotated chord; rigid motion therefore produces an exactly zero
        local state.
        """
        dxy = self._dxy0 + d[:, 3:5] - d[:, 0:2]
        Ln = np.hypot(dxy[:, 0], dxy[:, 1])
        cs = dxy / Ln[:, None]
        normal = cs[:, ::-1] * _TURN

        rigid = np.arctan2(dxy[:, 1], dxy[:, 0]) - self._beta0
        rigid = np.arctan2(np.sin(rigid), np.cos(rigid))
        t1 = d[:, 2] - rigid
        t2 = d[:, 5] - rigid
        stretch = Ln - self._L0

        N = self._EA * stretch / self._L0
        M1 = self._EI / self._L0 * (4.0 * t1 + 2.0 * t2)
        M2 = self._EI / self._L0 * (2.0 * t1 + 4.0 * t2)

        G, D, f_local = self._G, self._D, self._f_local
        G[:, 0, 0:2] = -cs
        G[:, 1:3, 0:2] = (normal / Ln[:, None])[:, None, :]
        G[:, 3, 0:2] = -normal
        G[:, :, 3:5] = -G[:, :, 0:2]
        D[:, 0, 3] = D[:, 3, 0] = (M1 + M2) / Ln ** 2
        D[:, 3, 3] = N / Ln
        f_local[:, 0, 0] = N
        f_local[:, 0, 1] = M1
        f_local[:, 0, 2] = M2

        f_int = (f_local @ G[:, :3])[:, 0]
        K = G.transpose(0, 2, 1) @ (D @ G)
        # half the local forces times the local deformations
        energy = 0.5 * (N * stretch + M1 * t1 + M2 * t2)
        return f_int, K, energy

    def assemble(self, u_eq: np.ndarray):
        """Raw internal force per freedom, equation residual, tangent, energy."""
        full = self.expand(u_eq).ravel()
        f_el, K_el, e_el = self._elements(full[self._el_dofs])
        stretch = full[self._spring_a] - full[self._spring_b]
        f_spring = self._spring_k * stretch
        f_flat = np.bincount(
            self._f_pos, minlength=full.size,
            weights=np.concatenate([f_el.ravel(), f_spring, -f_spring]))
        K = np.bincount(
            self._k_pos, minlength=self.n_eq * self.n_eq,
            weights=np.concatenate([K_el.ravel()[self._k_live],
                                    self._spring_tangent]))
        energy = float(e_el.sum()) + float(
            (0.5 * self._spring_k * stretch ** 2).sum())
        return (f_flat.reshape(-1, 3), f_flat[self._eq_dofs],
                K.reshape(self.n_eq, self.n_eq), energy)

    def path_step(self, control, u_eq, assembled, iterations, residual):
        """The PathStep at control of state u_eq from its assemble() result."""
        f_raw, _, K, energy = assembled
        node, dof, amp = self.model.drive
        return PathStep(
            control=float(control), displacements=self.expand(u_eq),
            reactions={key: float(f_raw[key]) for key in self._reported},
            reaction=float(f_raw[node, dof] * amp / abs(amp)),
            iterations=iterations, residual=residual, strain_energy=energy,
            stable=_stable(K[self.free_free]))


def _stable(K_ff: np.ndarray) -> bool:
    """Whether a free-free tangent is positive definite (stability index 0)."""
    try:
        np.linalg.cholesky(K_ff)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton(system: _System, u_eq, control, tol, max_iters):
    """Newton iteration at a fixed control.

    Returns (u, PathStep) of the converged state, or None.
    """
    u = u_eq.copy()
    u[system.drive_eq] = control * system.amp
    for it in range(1, max_iters + 1):
        assembled = system.assemble(u)
        r = assembled[1][system.free_idx]
        res = float(np.linalg.norm(r))
        if res < tol:
            return u, system.path_step(control, u, assembled, it, res)
        try:
            du = np.linalg.solve(assembled[2][system.free_free], -r)
        except np.linalg.LinAlgError:
            return None
        u[system.free_idx] += du
    return None


def _arc_length(system: _System, u_eq, control_from, control_to, tol,
                max_iters):
    """Spherical arc-length continuation forward to control_to > control_from.

    The control parameter joins the unknowns; each of the nominally
    ARC_SUBSTEPS increments is constrained to a fixed generalized length and
    corrected with Newton iterations.  The control can advance by less than
    the nominal increment, or move back, so the continuation gives up after
    ARC_MAX_SUBSTEPS increments.  Returns _newton's result at control_to, or
    None.
    """
    u = u_eq.copy()
    lam = control_from
    amp = system.amp
    dlam_target = (control_to - control_from) / ARC_SUBSTEPS
    psi2 = amp ** 2

    substeps = 0
    while control_to - lam > 1e-12 * control_to:
        substeps += 1
        if substeps > ARC_MAX_SUBSTEPS:
            return None
        dlam = min(dlam_target, control_to - lam)
        # the increment length, fixed by the first predictor of the substep
        arc2 = psi2 * dlam ** 2
        du_f = np.zeros(system.free_idx.size)
        for _ in range(max_iters):
            u_cur = u.copy()
            u_cur[system.free_idx] += du_f
            u_cur[system.drive_eq] = (lam + dlam) * amp
            _, r_eq, K, _ = system.assemble(u_cur)
            r = r_eq[system.free_idx]
            a_res = float(du_f @ du_f) + psi2 * dlam ** 2 - arc2
            if (np.linalg.norm(r) < tol
                    and abs(a_res) <= 1e-10 * max(arc2, 1e-30)):
                break
            # free equations bordered by the load derivative and arc gradient
            J = np.block([[K[system.free_free],
                           K[system.free_idx, system.drive_eq][:, None] * amp],
                          [2.0 * du_f, 2.0 * psi2 * dlam]])
            rhs = np.concatenate([-r, [-a_res]])
            try:
                sol = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return None
            du_f += sol[:-1]
            dlam += sol[-1]
        else:
            return None
        lam = lam + dlam
        u[system.free_idx] += du_f
        u[system.drive_eq] = lam * amp
        if abs(lam - control_to) <= 1e-9 * max(1.0, abs(control_to)):
            break
    # land exactly on the requested control with a plain Newton polish
    return _newton(system, u, control_to, tol, max_iters)


def solve_guided_sweep(model: FrameModel, travel_max: float,
                       n_steps: int = DEFAULT_STEPS,
                       tol: float = DEFAULT_TOLERANCE,
                       max_iters: int = DEFAULT_MAX_ITERS) -> EquilibriumPath:
    """Displacement-controlled sweep of the model's drive up to travel_max.

    Steps to the n_steps travels of beam.uniform_travels and records the
    reactions per step.  Failed steps are bisected down to travel_max / 4096
    and then retried with the arc-length corrector; if that also fails a
    ConvergenceError carries the partial path and the last converged step.
    A negative or non-finite travel_max, n_steps < 1, a tol that is not
    positive and finite or a max_iters that is not an integer of at least 1
    raises ValidationError.
    """
    if travel_max < 0:
        raise ValidationError("travel_max must be non-negative")
    if n_steps < 1:
        raise ValidationError("n_steps must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol {tol!r} must be positive and finite")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise ValidationError(f"max_iters {max_iters!r} must be an integer >= 1")
    targets = uniform_travels(travel_max, n_steps).tolist()
    system = _System(model)
    path = EquilibriumPath(model=model)
    u = np.zeros(system.n_eq)

    if travel_max == 0.0:
        path.steps.append(system.path_step(0.0, u, system.assemble(u), 0, 0.0))
        return path

    floor = travel_max / BISECTION_FLOOR_DIV
    control = 0.0
    for target in targets:
        while control < target - 1e-12 * travel_max:
            step = attempt = target - control
            while True:
                converged = _newton(system, u, control + attempt, tol,
                                    max_iters)
                if converged is not None:
                    break
                attempt /= 2.0
                if attempt < floor:
                    converged = _arc_length(system, u, control,
                                            control + step, tol, max_iters)
                    if converged is None:
                        raise ConvergenceError(
                            f"no equilibrium between control {control:.6g} "
                            f"and {control + step:.6g} mm after bisection "
                            f"and arc-length fallback",
                            last_step=path.last, path=path)
                    attempt = step
                    break
            u, state = converged
            control += attempt
        path.steps.append(replace(state, control=target))
    return path


def solve_multibeam_assembly(config: MechanismConfig, ring_disp: float,
                             n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                             n_steps: int = DEFAULT_ASSEMBLY_STEPS,
                             tol: float = DEFAULT_TOLERANCE) -> Tuple[float, float]:
    """(shuttle displacement, ring reaction) at a prescribed ring displacement.

    The identical beams act in parallel on a common shuttle, condensed into
    one beam at n_beams times the modulus (build_multibeam_assembly); the
    ring couples to the shuttle through the configured series stiffness and
    is swept to ring_disp in n_steps.
    """
    if ring_disp < 0:
        raise ValidationError("ring_disp must be non-negative")
    model = build_multibeam_assembly(config, n_elements)
    last = solve_guided_sweep(model, ring_disp, n_steps=n_steps, tol=tol).last
    return -float(last.displacements[n_elements, UY]), float(last.reaction)


def sweep_to_curve(path: EquilibriumPath, geom: VBeamGeometry,
                   mat: MaterialModel) -> ForceDisplacementCurve:
    """Package a single-beam sweep as a force-displacement curve.

    The normalized end loads are recovered by rotating the guided-end
    reaction into the beam frame; branch tags come from the bistability
    margin of the matching travel.
    """
    steps = [s for s in path.steps if s.control > 0.0]
    if not steps:
        raise ValidationError("path holds no positive-travel steps")
    node = path.model.drive[0]
    th = geom.tilt_theta
    ax = np.array([math.cos(th), math.sin(th)])
    tr = np.array([-math.sin(th), math.cos(th)])
    scale = geom.length_L ** 2 / (4.0 * mat.youngs_modulus_E * geom.second_moment)

    end_loads = np.array([[s.reactions.get((node, UX), 0.0),
                           s.reactions.get((node, UY), 0.0)] for s in steps])
    dys = np.array([s.control for s in steps])
    _, bistable = bistability_margin(geom, dys)
    return ForceDisplacementCurve(
        delta_y=dys, force=np.array([s.reaction for s in steps]),
        f_o=end_loads @ tr * scale, p_o=end_loads @ ax * scale,
        branches=Branch.tags(bistable))


def solve_vbeam_sweep(geom: VBeamGeometry, mat: MaterialModel,
                      travel_max: float, n_steps: int = DEFAULT_STEPS,
                      n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                      tol: float = DEFAULT_TOLERANCE) -> EquilibriumPath:
    """Convenience: mesh one V-beam with the material and sweep it."""
    model = build_vbeam_mesh(geom, n_elements,
                             youngs_modulus_E=mat.youngs_modulus_E)
    return solve_guided_sweep(model, travel_max, n_steps=n_steps, tol=tol)


def write_path_csv(path: EquilibriumPath, destination) -> None:
    """Dump a path as CSV: step,control_mm,reaction_N,iters,residual."""
    write_csv(destination, PATH_CSV_HEADER, (
        (i, s.control, s.reaction, s.iterations, s.residual)
        for i, s in enumerate(path.steps)))
