"""Geometrically nonlinear planar frame solver.

Corotational kinematics: each element separates the rigid motion of its
chord from small local deformations (axial stretch and two end rotations
relative to the rotated chord).  Local elastic behavior is the cubic
Hermitian bending stiffness plus a linear axial bar; shear deformation is
neglected, which is appropriate for the slender flexures this solver
verifies (T/L of order 0.03).

Newton iterates on the flat displacement table: fixed freedoms stay 0, the
driven one holds the prescribed value and one index array, the unknowns,
names the other free freedoms in node order (Crisfield, Non-linear Finite
Element Analysis of Solids and Structures, vol. 1, 1991).  Assembly is one
array pass over all elements: it gathers each element's freedoms from the
table, evaluates chord geometry, the strain-displacement rows, local
forces, internal forces and tangents as (n_el, ...) arrays written into
scatter weights allocated once per model, and np.bincount scatters them
into the full force table, whose entries at the unknowns are the
residual, and straight into the unknowns x unknowns tangent block, with
one dump bin past its end for every entry that touches a fixed or driven
freedom; every gather and scatter index is computed once per model.
Strain energy is evaluated once per converged step, from the local state
of its last assembly.

Equilibrium paths are traversed under displacement control on
force_curve's uniform travel grid (beam.uniform_travels).  Newton returns
each converged state as the PathStep of its last assembly, and the sweep
appends the one it reaches at each travel.  A step's stable flag says
whether the free-free tangent is positive definite (one Cholesky attempt);
one that is not lies on an unstable branch.  Once the path holds two
steps, Newton first starts from their secant, extrapolated to the next
travel (Crisfield, vol. 1, ch. 9), and that state is kept only if it
converges and is stable.  Otherwise, as on the first two steps, Newton
starts from the last state with only the drive moved; a step that fails
to converge, a singular tangent or a floating-point overflow included, is
bisected down to a floor, where a ConvergenceError carries the partial
path, and the state it reaches is kept whatever its flag.  So a predicted
start never puts a path on an unstable state, but a drive-only start
still can, and the sweep reports such a state without switching branches.

The ring-driven multi-beam assembly holds no spring: it steps the shuttle
and solves the series-spring map r = s + F / ks for the ring travel.

A solver run mutates only local state; independent solves may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._csv import write_csv
from ..beam import (Branch, ForceDisplacementCurve, MaterialModel,
                    VBeamGeometry, _load_scale, bistability_margin,
                    uniform_travels)
from ..errors import (ConvergenceError, ValidationError, check_count,
                      check_non_negative, check_positive)
from ..mechanism import MechanismConfig
from .model import (DEFAULT_ELEMENTS_PER_BEAM, ROT, UX, UY, FrameModel,
                    build_multibeam_assembly, build_vbeam_mesh)

PATH_CSV_HEADER = "step,control_mm,reaction_N,iters,residual"

DEFAULT_TOLERANCE = 1e-8
MAX_ITERS = 25
DEFAULT_STEPS = 100
ASSEMBLY_STEPS = 20
BISECTION_FLOOR_DIV = 4096
# turns a chord direction (c, s), reversed to (s, c), into its normal (-s, c)
_TURN = np.array([-1.0, 1.0])
# cubic Hermitian bending: (M1, M2) = E I / L0 (t1, t2) @ _BENDING
_BENDING = np.array([[4.0, 2.0], [2.0, 4.0]])


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


class _System:
    """Assembly and residual bookkeeping for one model.

    The Newton state is the flat displacement table u of the module
    docstring (flat freedom 3 * node + dof; the driven one holds -control);
    the unknowns x unknowns block is the only one the Newton solve and the
    stability test read.  Everything that depends only on the model is
    computed once here: the shared section's E A, the per-element chord
    arrays and E I / L0, each element's flat freedoms, the scatter indices
    of its contributions into the force table and the block, and the work
    arrays, whose element forces and tangents are the scatter weights.
    They are reused by every assembly, so one instance serves one solve at
    a time.
    """

    def __init__(self, model: FrameModel):
        self.model = model
        node, dof = model.drive
        self.driven = 3 * node + dof
        free = ~model.fixed.ravel()
        free[self.driven] = False
        self.unknowns = np.flatnonzero(free)
        # a step reports the driven node's constrained freedoms and the drive
        self._reported = [(node, d) for d in range(3)
                          if model.fixed[node, d] or d == dof]

        ends = model.elements
        E, A, I = model.section
        self._EA = E * A
        self._dxy0 = model.nodes[ends[:, 1]] - model.nodes[ends[:, 0]]
        self._L0 = np.hypot(self._dxy0[:, 0], self._dxy0[:, 1])
        self._k_b = E * I / self._L0
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
        n_el = len(ends)
        self._G = np.zeros((n_el, 4, 6))
        self._G[:, 1, ROT] = self._G[:, 2, 3 + ROT] = 1.0
        self._D = np.zeros((n_el, 4, 4))
        self._D[:, 0, 0] = self._EA / self._L0
        self._D[:, 1:3, 1:3] = self._k_b[:, None, None] * _BENDING
        self._f_local = np.zeros((n_el, 1, 3))
        self._f_el = np.empty((n_el, 1, 6))
        self._K_el = np.empty((n_el, 6, 6))

        # scatter targets: flat freedoms in the force table, and places in
        # the unknowns x unknowns block, n_u**2 (the dump bin past its end)
        # for an entry whose row or column is not an unknown
        n_u = self.unknowns.size
        number = np.full(free.size, n_u)
        number[self.unknowns] = np.arange(n_u)
        rows = number[self._el_dofs][:, :, None]
        cols = rows.transpose(0, 2, 1)
        self._f_pos = self._el_dofs.ravel()
        self._k_pos = np.where((rows < n_u) & (cols < n_u), rows * n_u + cols,
                               n_u * n_u).ravel()

    def _elements(self, d: np.ndarray):
        """Internal forces (n_el, 6), tangents (n_el, 6, 6) and local state.

        d holds each element's (u_i, v_i, r_i, u_j, v_j, r_j).  The local
        state is the chord stretch and the end rotations measured from the
        rotated chord; rigid motion therefore produces an exactly zero
        local state.  It is returned with the local forces as the arrays
        (N, stretch, M1, t1, M2, t2) that _element_energy takes.  Forces,
        tangents and local forces are views of the instance's work arrays,
        valid until the next call.
        """
        dxy = self._dxy0 + d[:, 3:5] - d[:, 0:2]
        Ln = np.hypot(dxy[:, 0], dxy[:, 1])
        cs = dxy / Ln[:, None]
        normal = cs[:, ::-1] * _TURN

        rigid = np.arctan2(dxy[:, 1], dxy[:, 0]) - self._beta0
        rigid = np.arctan2(np.sin(rigid), np.cos(rigid))
        t = d[:, 2::3] - rigid[:, None]
        t1, t2 = t.T
        stretch = Ln - self._L0

        G, D, f_local = self._G, self._D, self._f_local
        N, M1, M2 = f_local[:, 0].T
        np.divide(self._EA * stretch, self._L0, out=N)
        np.multiply(self._k_b[:, None], t @ _BENDING, out=f_local[:, 0, 1:])
        G[:, 0, 0:2] = -cs
        G[:, 1:3, 0:2] = (normal / Ln[:, None])[:, None, :]
        G[:, 3, 0:2] = -normal
        np.negative(G[:, :, 0:2], out=G[:, :, 3:5])
        D[:, 0, 3] = D[:, 3, 0] = (M1 + M2) / Ln ** 2
        D[:, 3, 3] = N / Ln

        np.matmul(f_local, G[:, :3], out=self._f_el)
        np.matmul(G.transpose(0, 2, 1), D @ G, out=self._K_el)
        return self._f_el[:, 0], self._K_el, (N, stretch, M1, t1, M2, t2)

    def assemble(self, u: np.ndarray):
        """Raw internal force table, residual, tangent and state at u.

        The residual is the force table at the unknowns and the tangent the
        unknowns x unknowns block.  The state is the elements' local state,
        from which path_step evaluates the strain energy; it is a view of
        the work arrays, so a result is valid until the next assemble() on
        the same system.
        """
        f_el, K_el, local = self._elements(u[self._el_dofs])
        f_flat = np.bincount(self._f_pos, f_el.ravel(), u.size)
        n_u = self.unknowns.size
        K = np.bincount(self._k_pos, K_el.ravel(), n_u * n_u + 1)
        return (f_flat.reshape(-1, 3), f_flat[self.unknowns],
                K[:-1].reshape(n_u, n_u), local)

    def path_step(self, control, u, assembled, iterations, residual):
        """The PathStep at control from assemble() of table u, which it keeps."""
        f_raw, _, K, local = assembled
        energy = float(_element_energy(*local).sum())
        return PathStep(
            control=float(control), displacements=u.reshape(-1, 3),
            reactions={key: float(f_raw[key]) for key in self._reported},
            reaction=-float(f_raw.flat[self.driven]),
            iterations=iterations, residual=residual, strain_energy=energy,
            stable=_stable(K))


def _element_energy(N, stretch, M1, t1, M2, t2) -> np.ndarray:
    """Strain energy per element: half the local forces times deformations."""
    return 0.5 * (N * stretch + M1 * t1 + M2 * t2)


def _stable(K_ff: np.ndarray) -> bool:
    """Whether a free-free tangent is positive definite (stability index 0)."""
    try:
        np.linalg.cholesky(K_ff)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton(system: _System, u_start, control, tol):
    """Up to MAX_ITERS Newton iterations at a fixed control from u_start.

    Returns the converged PathStep, whose table is Newton's own flat copy of
    u_start, or None.  A singular tangent fails the attempt, and so does a
    floating-point overflow, invalid value or division by zero: the oracle
    cannot tell a diverged iterate from an input too large for it, so the
    sweep bisects either.
    """
    u = u_start.flatten()
    u[system.driven] = -control
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, MAX_ITERS + 1):
                assembled = system.assemble(u)
                r = assembled[1]
                res = math.sqrt(r @ r)
                if res < tol:
                    return system.path_step(control, u, assembled, it, res)
                u[system.unknowns] -= np.linalg.solve(assembled[2], r)
    except (np.linalg.LinAlgError, FloatingPointError):
        return None
    return None


def solve_guided_sweep(model: FrameModel, travel_max: float,
                       n_steps: int = DEFAULT_STEPS,
                       tol: float = DEFAULT_TOLERANCE) -> EquilibriumPath:
    """Displacement-controlled sweep of the model's drive up to travel_max.

    Steps to the n_steps travels of beam.uniform_travels and records the
    reactions per step, each taken as _advance says.  A step whose
    drive-only Newton iteration fails within MAX_ITERS iterations is halved
    and retried, down to travel_max / 4096;
    if that also fails a ConvergenceError carries the partial path and the
    last converged step.  A negative or non-finite travel_max, a tol that is
    not positive and finite, or an n_steps that is not an integer of at
    least 1 raises ValidationError.
    """
    check_non_negative("travel_max", travel_max)
    check_count("n_steps", n_steps, 1)
    check_positive("tol", tol)
    targets = uniform_travels(travel_max, n_steps).tolist()
    system = _System(model)
    path = EquilibriumPath(model=model)
    if travel_max == 0.0:
        u = np.zeros(3 * model.n_nodes)
        path.steps.append(system.path_step(0.0, u, system.assemble(u), 0, 0.0))
        return path
    for target in targets:
        _advance(system, path, target, travel_max, tol)
    return path


def _advance(system: _System, path: EquilibriumPath, target, scale, tol):
    """Append to path the PathStep at target, stepped from path.last.

    Once path holds two steps, the first attempt runs Newton from their
    secant extrapolated to target (Crisfield 1991, ch. 9), and its state is
    kept only if it converges and is stable.  Otherwise each attempt runs
    Newton from the last converged state (rest on an empty path), only the
    drive moved, over the rest of the way; a failing one is halved down to
    scale / BISECTION_FLOOR_DIV, where a ConvergenceError carries the path.
    A state so reached is kept whatever its stable flag.
    """
    state = path.last
    if len(path.steps) >= 2:
        prev = path.steps[-2]
        u_k, u_prev = state.displacements, prev.displacements
        guess = u_k + (u_k - u_prev) * ((target - state.control)
                                        / (state.control - prev.control))
        predicted = _newton(system, guess, target, tol)
        if predicted is not None and predicted.stable:
            path.steps.append(predicted)
            return
    u, control = ((state.displacements, state.control) if state else
                  (np.zeros(3 * system.model.n_nodes), 0.0))
    floor = scale / BISECTION_FLOOR_DIV
    while control < target - 1e-12 * scale:
        attempt = target - control
        while (state := _newton(system, u, control + attempt, tol)) is None:
            attempt /= 2.0
            if attempt < floor:
                raise ConvergenceError(
                    f"no equilibrium between control {control:.6g} and "
                    f"{target:.6g} mm: Newton fails at every step down "
                    f"to the bisection floor {floor:.6g} mm",
                    last_step=path.last, path=path)
        u, control = state.displacements, state.control
    path.steps.append(state if control == target
                      else replace(state, control=target))


def solve_multibeam_assembly(config: MechanismConfig,
                             ring_disp: float) -> Tuple[float, float]:
    """(shuttle displacement, ring reaction) at a prescribed ring displacement.

    The beams, condensed into one (build_multibeam_assembly), sit behind
    the series stiffness ks: shuttle travel s with beam reaction F(s) is at
    ring travel r(s) = s + F(s) / ks.  On the default mesh and tolerance the
    shuttle steps from rest over k ring_disp / ASSEMBLY_STEPS, k = 1, 2, ...
    (past ring_disp where F < 0; the rule of beam.uniform_travels checks
    k <= ASSEMBLY_STEPS), up to the first step whose r reaches ring_disp.
    Secant Newton solves, each from the nearer end of that bracket and
    strictly inside it (else at its regula-falsi point), then meet
    ks |ring_disp - r(s)| < tolerance within MAX_ITERS solves, or raise
    ConvergenceError.  That first crossing is the state reached by pulling
    the ring from rest: past a fold of r(s) the series system snaps to the
    far branch (Bazant and Cedolin, Stability of Structures, 1991), never
    onto the unstable one between.  The reaction is F(s).
    """
    check_non_negative("ring_disp", ring_disp)
    uniform_travels(ring_disp, ASSEMBLY_STEPS)  # refuses a grid that underflows
    if ring_disp == 0.0:
        return 0.0, 0.0
    ks, tol = config.series_stiffness_ks, DEFAULT_TOLERANCE
    system = _System(build_multibeam_assembly(config))
    path = EquilibriumPath(model=system.model)

    def excess(state):
        # the beam's reaction over the spring force: ks (r(s) - ring_disp)
        return state.reaction - ks * (ring_disp - state.control)

    def secant(a, b):  # where the line through a and b has no excess
        return b.control - excess(b) * (b.control - a.control) / (
            excess(b) - excess(a))

    u = np.zeros(3 * system.model.n_nodes)
    lo = hi = system.path_step(0.0, u, system.assemble(u), 0, 0.0)
    while excess(hi) < 0.0:
        _advance(system, path,
                 (len(path.steps) + 1) * ring_disp / ASSEMBLY_STEPS,
                 ring_disp, tol)
        lo, hi = hi, path.last
    prev, state, solves = lo, hi, 0
    while abs(excess(state)) >= tol:
        s = secant(prev, state) if excess(state) != excess(prev) else math.nan
        if not lo.control < s < hi.control:
            s = secant(lo, hi)
        start = lo if s - lo.control < hi.control - s else hi
        prev, state = state, (_newton(system, start.displacements, s, tol)
                              if solves < MAX_ITERS else None)
        if state is None:
            raise ConvergenceError(
                f"no shuttle travel in [{lo.control:.6g}, {hi.control:.6g}] "
                f"mm meets the ring travel {ring_disp:.6g} mm after {solves} "
                "secant solves", last_step=path.last, path=path)
        solves += 1
        lo, hi = (state, hi) if excess(state) < 0.0 else (lo, state)
    return state.control, state.reaction


def sweep_to_curve(path: EquilibriumPath, geom: VBeamGeometry,
                   mat: MaterialModel) -> ForceDisplacementCurve:
    """Package a single-beam sweep as a force-displacement curve.

    The normalized end loads are recovered by rotating the guided-end
    reaction into the beam frame and dividing it by the load scale
    4 E I / L^2 (beam._load_scale); branch tags come from the bistability
    margin of the matching travel.
    """
    steps = [s for s in path.steps if s.control > 0.0]
    if not steps:
        raise ValidationError("path holds no positive-travel steps")
    node = path.model.drive[0]
    th = geom.tilt_theta
    ax = np.array([math.cos(th), math.sin(th)])
    tr = np.array([-math.sin(th), math.cos(th)])
    load = _load_scale(geom, mat)

    end_loads = np.array([[s.reactions.get((node, UX), 0.0),
                           s.reactions.get((node, UY), 0.0)] for s in steps])
    dys = np.array([s.control for s in steps])
    _, bistable = bistability_margin(geom, dys)
    return ForceDisplacementCurve(
        delta_y=dys, force=np.array([s.reaction for s in steps]),
        f_o=end_loads @ tr / load, p_o=end_loads @ ax / load,
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
