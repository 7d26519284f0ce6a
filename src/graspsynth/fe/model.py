"""Planar frame models for the geometrically nonlinear solver.

Node coordinates are mm; each node carries (u_x, u_y, rotation) freedoms.
The shuttle travels along -Y, so the direction normal to shuttle travel is
+X and a V-beam tilted by theta runs along (cos theta, sin theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..beam import VBeamGeometry
from ..errors import (FLOAT_MAX, ValidationError, _is_integer, _shown,
                      check_count)
from ..mechanism import MechanismConfig

UX, UY, ROT = 0, 1, 2

DEFAULT_ELEMENTS_PER_BEAM = 16

# Largest element count of a mesh (build_vbeam_mesh, the config's
# fe.n_elements).  A mesh of n elements has at most 3 n unknowns.  An
# assembly bincounts the tangent straight into the unknowns x unknowns
# block, 8 bytes per entry, ~95 MB at the cap, and the dense solve copies
# it once more: a Newton iteration there peaks near 225 MB of RSS and takes
# about 0.6 s, the solve growing as the cube of the equation count (2.6 ms
# at 128 elements); tests/oracle_rss.py measures it.
ELEMENT_CAP = 1_150


@dataclass
class FrameModel:
    """Mesh, constraints and drive of a planar frame.

    elements is the integer (m, 2) array of each element's end nodes and
    section the (E, A, I) every element shares; fixed marks constrained
    freedoms per node; drive (node, dof) names the free freedom that moves
    by -1 per unit of the control parameter (the shuttle travels along -Y).
    Every value is checked when the model is built: node coordinates must
    be finite, node and dof indices integers naming an existing freedom,
    and the section values, and each element's E A / L0 and E I / L0 at
    its chord length L0, positive and finite.
    """

    nodes: np.ndarray
    elements: np.ndarray
    section: Tuple[float, float, float]
    fixed: np.ndarray
    drive: Tuple[int, int]

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValidationError("nodes must be an (n, 2) coordinate array")
        if not np.all(np.abs(nodes) <= FLOAT_MAX):
            raise ValidationError("node coordinates must be finite")
        self.nodes = nodes.astype(float, copy=False)
        self.elements = np.asarray(self.elements, dtype=int)
        self.fixed = np.asarray(self.fixed, dtype=bool)
        n = self.nodes.shape[0]
        if self.elements.ndim != 2 or self.elements.shape[1] != 2:
            raise ValidationError("elements must be an (m, 2) node index array")
        if self.fixed.shape != (n, 3):
            raise ValidationError("fixed flags must be an (n, 3) bool array")
        if not np.all((self.elements >= 0) & (self.elements < n)):
            raise ValidationError("an element references a missing node")
        chord = self.nodes[self.elements[:, 1]] - self.nodes[self.elements[:, 0]]
        length = np.hypot(chord[:, 0], chord[:, 1])
        if np.any(length < 1e-12):
            raise ValidationError("an element has zero length")
        section = np.asarray(self.section)
        if section.shape != (3,) or not np.all((section > 0)
                                               & (section <= FLOAT_MAX)):
            raise ValidationError(
                f"section (E, A, I) {_shown(self.section, repr)} must be "
                "three positive, finite values")
        self.section = tuple(section.astype(float).tolist())
        E, A, I = self.section
        with np.errstate(over="ignore"):
            stiffness = np.array([[E * A], [E * I]]) / length
        if not np.isfinite(stiffness).all():
            raise ValidationError(
                "an element's E A / L0 or E I / L0 overflows: the section or "
                "Young's modulus is too large for the element length")
        if not np.any(self.fixed.all(axis=1)):
            raise ValidationError(
                "at least one node must be fully constrained (rigid-body modes)")
        node, dof = self.drive if np.shape(self.drive) == (2,) else (-1, -1)
        if not (_is_integer(node) and _is_integer(dof) and 0 <= node < n
                and dof in (UX, UY, ROT)):
            raise ValidationError(f"drive {_shown(self.drive, repr)} is "
                                  "invalid: it must be a (node, dof) pair "
                                  "naming a freedom")
        if self.fixed[node, dof]:
            raise ValidationError(
                f"freedom ({node}, {dof}) cannot be both fixed and driven")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])


def build_vbeam_mesh(geom: VBeamGeometry,
                     n_elements: int = DEFAULT_ELEMENTS_PER_BEAM,
                     youngs_modulus_E: float = 1.0) -> FrameModel:
    """Mesh one V-beam: clamped at the origin, guided end driven along -Y.

    The guided end keeps rotation and cross-shuttle translation fixed and is
    the drive, moving by -1 along Y per unit of the control.  Every element
    shares the section (E, W T, W T^3 / 12), with a unit modulus E unless
    youngs_modulus_E is given (reactions scale linearly with it).
    n_elements must be an integer of at least 4 and at most ELEMENT_CAP.
    """
    check_count("n_elements", n_elements, 4, ELEMENT_CAP)
    n_nodes = n_elements + 1
    s = np.linspace(0.0, geom.length_L, n_nodes)
    direction = np.array([np.cos(geom.tilt_theta), np.sin(geom.tilt_theta)])
    nodes = np.outer(s, direction)

    fixed = np.zeros((n_nodes, 3), dtype=bool)
    fixed[0, :] = True
    guided = n_nodes - 1
    fixed[guided, UX] = True
    fixed[guided, ROT] = True
    elements = np.arange(n_elements)[:, None] + [0, 1]
    return FrameModel(nodes=nodes, elements=elements,
                      section=(youngs_modulus_E, geom.area, geom.second_moment),
                      fixed=fixed, drive=(guided, UY))


def build_multibeam_assembly(config: MechanismConfig) -> FrameModel:
    """N identical beams on a common shuttle, condensed into one beam.

    The beams share the shuttle travel, so they carry equal forces, and at
    fixed geometry every reaction of the corotational model is linear in the
    modulus: one beam at N times the modulus stands for all N, on the
    default mesh.  Its guided end (node DEFAULT_ELEMENTS_PER_BEAM) is the
    shuttle and the drive; the series spring to the ring stays outside the
    model (solve_multibeam_assembly).
    """
    return build_vbeam_mesh(
        config.beam_geometry,
        youngs_modulus_E=config.n_beams * config.material.youngs_modulus_E)
