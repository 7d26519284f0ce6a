"""Planar frame models for the geometrically nonlinear solver.

Node coordinates are mm; each node carries (u_x, u_y, rotation) freedoms.
The shuttle travels along -Y, so the direction normal to shuttle travel is
+X and a V-beam tilted by theta runs along (cos theta, sin theta).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..beam import VBeamGeometry
from ..errors import ValidationError
from ..mechanism import MechanismConfig

UX, UY, ROT = 0, 1, 2

DEFAULT_ELEMENTS_PER_BEAM = 16


@dataclass(frozen=True)
class BeamElement:
    node_i: int
    node_j: int
    E: float
    A: float
    I: float


@dataclass
class FrameModel:
    """Mesh, constraints and drive of a planar frame.

    fixed marks constrained freedoms per node; drive (node, dof, amplitude)
    moves one free freedom by a finite, non-zero amplitude per unit of the
    control parameter; point_springs couple two freedoms through a linear
    spring.
    """

    nodes: np.ndarray
    elements: List[BeamElement]
    fixed: np.ndarray
    drive: Tuple[int, int, float]
    point_springs: List[Tuple[int, int, int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.fixed = np.asarray(self.fixed, dtype=bool)
        n = self.nodes.shape[0]
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValidationError("nodes must be an (n, 2) coordinate array")
        if self.fixed.shape != (n, 3):
            raise ValidationError("fixed flags must be an (n, 3) bool array")
        for el in self.elements:
            if not (0 <= el.node_i < n and 0 <= el.node_j < n):
                raise ValidationError(
                    f"element ({el.node_i}, {el.node_j}) references a missing node")
            length = float(np.hypot(*(self.nodes[el.node_j] - self.nodes[el.node_i])))
            if length < 1e-12:
                raise ValidationError(
                    f"element ({el.node_i}, {el.node_j}) has zero length")
        if not np.any(self.fixed.all(axis=1)):
            raise ValidationError(
                "at least one node must be fully constrained (rigid-body modes)")
        node, dof, amplitude = self.drive
        if not (0 <= node < n and dof in (UX, UY, ROT)):
            raise ValidationError(f"drive freedom ({node}, {dof}) is invalid")
        if self.fixed[node, dof]:
            raise ValidationError(
                f"freedom ({node}, {dof}) cannot be both fixed and driven")
        if not (np.isfinite(amplitude) and amplitude != 0):
            raise ValidationError("drive amplitude must be finite and non-zero")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])


def build_vbeam_mesh(geom: VBeamGeometry,
                     n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                     youngs_modulus_E: float = 1.0) -> FrameModel:
    """Mesh one V-beam: clamped at the origin, guided end driven along -Y.

    The guided end keeps rotation and cross-shuttle translation fixed and is
    the drive, moving by -1 along Y per unit of the control.  Elements get a
    unit modulus unless youngs_modulus_E is given (reactions scale linearly
    with it).  n_elements must be an integer of at least 4.
    """
    if not isinstance(n_elements, numbers.Integral):
        raise ValidationError(f"n_elements {n_elements!r} is not an integer")
    if n_elements < 4:
        raise ValidationError("n_elements must be at least 4")
    n_nodes = n_elements + 1
    s = np.linspace(0.0, geom.length_L, n_nodes)
    direction = np.array([np.cos(geom.tilt_theta), np.sin(geom.tilt_theta)])
    nodes = np.outer(s, direction)

    elements = [BeamElement(i, i + 1, youngs_modulus_E, geom.area,
                            geom.second_moment)
                for i in range(n_elements)]

    fixed = np.zeros((n_nodes, 3), dtype=bool)
    fixed[0, :] = True
    guided = n_nodes - 1
    fixed[guided, UX] = True
    fixed[guided, ROT] = True
    return FrameModel(nodes=nodes, elements=elements, fixed=fixed,
                      drive=(guided, UY, -1.0))


def build_multibeam_assembly(config: MechanismConfig,
                             n_elements: int = DEFAULT_ELEMENTS_PER_BEAM) -> FrameModel:
    """N identical beams on a common shuttle, driven through a series spring.

    The beams share the shuttle travel, so they carry equal forces, and at
    fixed geometry every reaction of the corotational model is linear in the
    modulus: one beam at N times the modulus stands for all N.  Its guided
    end (node n_elements) is the shuttle; a ring node, joined to it by the
    series stiffness at the shuttle's position, is the drive.
    """
    model = build_vbeam_mesh(
        config.beam_geometry, n_elements,
        youngs_modulus_E=config.n_beams * config.material.youngs_modulus_E)
    shuttle = n_elements
    ring = shuttle + 1
    springs = [(ring, UY, shuttle, UY, config.series_stiffness_ks)]
    return FrameModel(nodes=np.vstack([model.nodes, model.nodes[shuttle]]),
                      elements=model.elements,
                      fixed=np.vstack([model.fixed, [True, False, True]]),
                      drive=(ring, UY, -1.0), point_springs=springs)
