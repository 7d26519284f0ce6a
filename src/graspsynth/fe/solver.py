"""Geometrically nonlinear planar frame solver.

Corotational kinematics: each element separates the rigid motion of its
chord from small local deformations (axial stretch and two end rotations
relative to the rotated chord).  Local elastic behavior is the cubic
Hermitian bending stiffness plus a linear axial bar; shear deformation is
neglected, which is appropriate for the slender flexures this solver
verifies (T/L of order 0.03).

Equilibrium paths are traversed under displacement control with Newton
iteration.  A step that fails to converge is bisected down to a floor and,
failing that, handed to a spherical arc-length corrector; if everything
fails a diagnostic error carries the partial path.

A solver run mutates only local state; independent solves may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..beam import (Branch, ForceDisplacementCurve, MaterialModel,
                    VBeamGeometry, bistability_margin)
from ..errors import ConvergenceError, ValidationError
from ..mechanism import MechanismConfig
from .model import (DEFAULT_ELEMENTS_PER_BEAM, UX, UY, FrameModel,
                    build_multibeam_assembly, build_vbeam_mesh)

PATH_CSV_HEADER = "step,control_mm,reaction_N,iters,residual"

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITERS = 25
BISECTION_FLOOR_DIV = 4096


@dataclass(frozen=True)
class PathStep:
    """One converged equilibrium state along a control sweep."""

    control: float
    displacements: np.ndarray
    reactions: Dict[Tuple[int, int], float]
    reaction: float
    iterations: int
    residual: float
    strain_energy: float


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


def _element_response(xi, xj, d, E, A, I):
    """Internal force, tangent and strain energy of one corotational element.

    d holds (u_i, v_i, r_i, u_j, v_j, r_j).  The local state is the chord
    stretch and the end rotations measured from the rotated chord; rigid
    motion therefore produces an exactly zero local state.
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

    f_local = np.array([N, M1, M2])
    f_int = B.T @ f_local

    C = np.array([[E * A / L0, 0.0, 0.0],
                  [0.0, 4.0 * E * I / L0, 2.0 * E * I / L0],
                  [0.0, 2.0 * E * I / L0, 4.0 * E * I / L0]])
    K = B.T @ C @ B
    K += N / Ln * np.outer(z, z)
    K += (M1 + M2) / Ln ** 2 * (np.outer(r, z) + np.outer(z, r))

    energy = (0.5 * E * A / L0 * stretch ** 2
              + E * I / L0 * (2.0 * t1 ** 2 + 2.0 * t1 * t2 + 2.0 * t2 ** 2))
    return f_int, K, energy


class _System:
    """Equation numbering, assembly and residual bookkeeping for one model."""

    def __init__(self, model: FrameModel):
        self.model = model
        n = model.n_nodes
        eq = -np.ones((n, 3), dtype=int)
        count = int(np.count_nonzero(~model.fixed))
        eq[~model.fixed] = np.arange(count)
        self.eq = eq
        self.n_eq = count
        self.prescribed_eqs = np.array(
            sorted(eq[node, dof] for (node, dof) in model.prescribed), dtype=int)
        self.prescribed_amp = np.zeros(count)
        for (node, dof), amp in model.prescribed.items():
            self.prescribed_amp[eq[node, dof]] = amp
        self.free = np.ones(count, dtype=bool)
        self.free[self.prescribed_eqs] = False
        self.free_idx = np.flatnonzero(self.free)
        # per-element gather indices into the equation vector (-1 = constrained)
        self._el_eq = [
            np.array([eq[e.node_i, 0], eq[e.node_i, 1], eq[e.node_i, 2],
                      eq[e.node_j, 0], eq[e.node_j, 1], eq[e.node_j, 2]])
            for e in model.elements]

    def expand(self, u_eq: np.ndarray) -> np.ndarray:
        """Full (n, 3) displacement table from the equation vector."""
        full = np.zeros((self.model.n_nodes, 3))
        mask = self.eq >= 0
        full[mask] = u_eq[self.eq[mask]]
        return full

    def assemble(self, u_eq: np.ndarray):
        """Raw internal force per freedom, equation residual, tangent, energy."""
        model = self.model
        full = self.expand(u_eq)
        f_raw = np.zeros((model.n_nodes, 3))
        K = np.zeros((self.n_eq, self.n_eq))
        energy = 0.0
        for e, el_eq in zip(model.elements, self._el_eq):
            d = np.concatenate([full[e.node_i], full[e.node_j]])
            fe, Ke, ee = _element_response(
                model.nodes[e.node_i], model.nodes[e.node_j], d, e.E, e.A, e.I)
            energy += ee
            f_raw[e.node_i] += fe[:3]
            f_raw[e.node_j] += fe[3:]
            live = el_eq >= 0
            idx = el_eq[live]
            K[np.ix_(idx, idx)] += Ke[np.ix_(live, live)]
        for (na, da, nb, db, k) in model.point_springs:
            ua = full[na, da]
            ub = full[nb, db]
            fs = k * (ua - ub)
            energy += 0.5 * k * (ua - ub) ** 2
            f_raw[na, da] += fs
            f_raw[nb, db] -= fs
            live = [(e, sign) for e, sign in ((self.eq[na, da], 1.0),
                                              (self.eq[nb, db], -1.0)) if e >= 0]
            for ei, si in live:
                for ej, sj in live:
                    K[ei, ej] += k * si * sj
        r_eq = np.zeros(self.n_eq)
        mask = self.eq >= 0
        np.add.at(r_eq, self.eq[mask], f_raw[mask])
        return f_raw, r_eq, K, energy

    def reactions(self, f_raw: np.ndarray) -> Dict[Tuple[int, int], float]:
        """Constraint forces at every constrained freedom of driven nodes."""
        out = {}
        for (node, _) in self.model.prescribed:
            for dof in range(3):
                if self.model.fixed[node, dof] or (node, dof) in self.model.prescribed:
                    out[(node, dof)] = float(f_raw[node, dof])
        return out

    def reaction_along_motion(self, f_raw: np.ndarray) -> float:
        """Constraint force projected on the unit drive direction."""
        amp = np.array([a for a in self.model.prescribed.values()])
        norm = math.sqrt(float(np.sum(amp ** 2)))
        total = sum(f_raw[node, dof] * a / norm
                    for (node, dof), a in self.model.prescribed.items())
        return float(total)


def _newton(system: _System, u_eq, control, tol, max_iters):
    """Newton iteration at a fixed control; (u, iters, res, f_raw, energy).

    f_raw and energy come from the converged assembly; on failure u, f_raw
    and energy are None.
    """
    u = u_eq.copy()
    u[system.prescribed_eqs] = (
        control * system.prescribed_amp[system.prescribed_eqs])
    res = math.inf
    for it in range(1, max_iters + 1):
        f_raw, r_eq, K, energy = system.assemble(u)
        r = r_eq[system.free_idx]
        res = float(np.linalg.norm(r))
        if res < tol:
            return u, it, res, f_raw, energy
        Kff = K[np.ix_(system.free_idx, system.free_idx)]
        try:
            du = np.linalg.solve(Kff, -r)
        except np.linalg.LinAlgError:
            return None, it, res, None, None
        u[system.free_idx] += du
    return None, max_iters, res, None, None


def _arc_length(system: _System, u_eq, control_from, control_to, tol,
                max_iters, n_substeps=8):
    """Spherical arc-length continuation from one control value to another.

    The control parameter joins the unknowns; each increment is constrained
    to a fixed generalized length and corrected with Newton iterations.
    Returns _newton's result at control_to, or None.
    """
    u = u_eq.copy()
    lam = control_from
    amp = system.prescribed_amp[system.prescribed_eqs]
    dlam_target = (control_to - control_from) / n_substeps
    psi2 = float(np.sum(amp ** 2))
    if psi2 == 0.0:
        return None

    # generalized increment length from a unit predictor at the first substep
    while (control_to - lam) * np.sign(dlam_target) > 1e-12 * abs(control_to or 1.0):
        dlam = np.sign(dlam_target) * min(abs(dlam_target),
                                          abs(control_to - lam))
        u_pred = u.copy()
        u_pred[system.prescribed_eqs] = (lam + dlam) * amp
        du_f = np.zeros(system.free_idx.size)
        arc2 = None
        converged = False
        for it in range(1, max_iters + 1):
            lam_cur = lam + dlam
            u_cur = u_pred.copy()
            u_cur[system.free_idx] += du_f
            u_cur[system.prescribed_eqs] = lam_cur * amp
            _, r_eq, K, _ = system.assemble(u_cur)
            r = r_eq[system.free_idx]
            if arc2 is None:
                arc2 = float(du_f @ du_f) + psi2 * dlam ** 2
                if arc2 == 0.0:
                    arc2 = psi2 * dlam ** 2
            a_res = float(du_f @ du_f) + psi2 * dlam ** 2 - arc2
            if (np.linalg.norm(r) < tol
                    and abs(a_res) <= 1e-10 * max(arc2, 1e-30)):
                converged = True
                break
            Kff = K[np.ix_(system.free_idx, system.free_idx)]
            Kfp = K[np.ix_(system.free_idx, system.prescribed_eqs)]
            dfdlam = Kfp @ amp
            n_f = system.free_idx.size
            J = np.zeros((n_f + 1, n_f + 1))
            J[:n_f, :n_f] = Kff
            J[:n_f, n_f] = dfdlam
            J[n_f, :n_f] = 2.0 * du_f
            J[n_f, n_f] = 2.0 * psi2 * dlam
            rhs = np.concatenate([-r, [-a_res]])
            try:
                sol = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                break
            du_f += sol[:n_f]
            dlam += sol[n_f]
        if not converged:
            return None
        lam = lam + dlam
        u[system.free_idx] = u_pred[system.free_idx] + du_f
        u[system.prescribed_eqs] = lam * amp
        if abs(lam - control_to) <= 1e-9 * max(1.0, abs(control_to)):
            break
    # land exactly on the requested control with a plain Newton polish
    result = _newton(system, u, control_to, tol, max_iters)
    return result if result[0] is not None else None


def _record(system: _System, path: EquilibriumPath, control, converged):
    """Append the state _newton converged to as the step at control."""
    u_eq, iters, res, f_raw, energy = converged
    path.steps.append(PathStep(
        control=float(control),
        displacements=system.expand(u_eq),
        reactions=system.reactions(f_raw),
        reaction=system.reaction_along_motion(f_raw),
        iterations=iters,
        residual=res,
        strain_energy=energy,
    ))


def solve_guided_sweep(model: FrameModel, travel_max: float,
                       n_steps: int = 100, tol: float = DEFAULT_TOLERANCE,
                       max_iters: int = DEFAULT_MAX_ITERS) -> EquilibriumPath:
    """Displacement-controlled sweep of the model's drive up to travel_max.

    Records the reaction at the driven freedoms per step.  Failed steps are
    bisected down to travel_max / 4096 and then retried with the arc-length
    corrector; if that also fails a ConvergenceError carries the partial
    path and the last converged step.
    """
    if travel_max < 0:
        raise ValidationError("travel_max must be non-negative")
    system = _System(model)
    path = EquilibriumPath(model=model)
    u = np.zeros(system.n_eq)

    if travel_max == 0.0:
        f_raw, _, _, energy = system.assemble(u)
        _record(system, path, 0.0, (u, 0, 0.0, f_raw, energy))
        return path

    floor = travel_max / BISECTION_FLOOR_DIV
    control = 0.0
    for k in range(1, n_steps + 1):
        target = travel_max * k / n_steps
        while control < target - 1e-12 * travel_max:
            step = target - control
            attempt = step
            advanced = False
            while True:
                trial = _newton(system, u, control + attempt, tol, max_iters)
                if trial[0] is not None:
                    converged, u = trial, trial[0]
                    control += attempt
                    advanced = True
                    break
                attempt /= 2.0
                if attempt < floor:
                    break
            if not advanced:
                fallback = _arc_length(system, u, control, control + step,
                                       tol, max_iters)
                if fallback is not None:
                    converged, u = fallback, fallback[0]
                    control += step
                else:
                    raise ConvergenceError(
                        f"no equilibrium between control {control:.6g} and "
                        f"{control + step:.6g} mm after bisection and "
                        f"arc-length fallback", last_step=path.last, path=path)
        _record(system, path, target, converged)
    return path


def solve_multibeam_assembly(config: MechanismConfig, ring_disp: float,
                             n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                             n_steps: int = 20,
                             tol: float = DEFAULT_TOLERANCE) -> Tuple[float, float]:
    """(shuttle displacement, ring reaction) at a prescribed ring displacement.

    The identical beams act in parallel on a common shuttle, condensed into
    one beam at n_beams times the modulus (build_multibeam_assembly); the
    ring couples to the shuttle through the configured series stiffness and
    is swept to ring_disp in n_steps.
    """
    if ring_disp < 0:
        raise ValidationError("ring_disp must be non-negative")
    if ring_disp == 0.0:
        return 0.0, 0.0
    model = build_multibeam_assembly(config, n_elements)
    path = solve_guided_sweep(model, ring_disp, n_steps=n_steps, tol=tol)
    last = path.last
    shuttle_disp = -float(last.displacements[n_elements, UY])
    return shuttle_disp, float(last.reaction)


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
    (node, dof) = next(iter(path.model.prescribed))
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
        branches=Branch.tags(bistable), geometry=geom, material=mat)


def solve_vbeam_sweep(geom: VBeamGeometry, mat: MaterialModel,
                      travel_max: float, n_steps: int = 100,
                      n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                      tol: float = DEFAULT_TOLERANCE) -> EquilibriumPath:
    """Convenience: mesh one V-beam with the material and sweep it."""
    model = build_vbeam_mesh(geom, n_elements,
                             youngs_modulus_E=mat.youngs_modulus_E)
    return solve_guided_sweep(model, travel_max, n_steps=n_steps, tol=tol)


def write_path_csv(path: EquilibriumPath, destination) -> None:
    """Dump a path as CSV: step,control_mm,reaction_N,iters,residual."""
    lines = [PATH_CSV_HEADER]
    for i, s in enumerate(path.steps):
        lines.append(f"{i},{s.control:.9g},{s.reaction:.9g},"
                     f"{s.iterations},{s.residual:.9g}")
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
