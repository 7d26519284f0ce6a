"""Planar frame models for the geometrically nonlinear solver.

Node coordinates are mm; each node carries (u_x, u_y, rotation) freedoms.
The shuttle travels along -Y, so the direction normal to shuttle travel is
+X and a V-beam tilted by theta runs along (cos theta, sin theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..beam import VBeamGeometry
from ..errors import ValidationError, check_count, check_positive
from ..mechanism import MechanismConfig

UX, UY, ROT = 0, 1, 2

DEFAULT_ELEMENTS_PER_BEAM = 16

# Largest element count of a mesh (build_vbeam_mesh, the config's
# fe.n_elements).  A mesh of n elements has at most 3 n unknowns.  The
# tangent block's flat positions, an assembly's full tangent table and the
# block hold 8 bytes per entry, ~95 MB each at the cap, where a Newton
# iteration peaks near 410 MB and takes about 2 s, the dense solve growing
# as the cube of the equation count (2.6 ms at 128 elements).
ELEMENT_CAP = 1_150


@dataclass
class FrameModel:
    """Mesh, constraints and drive of a planar frame.

    elements is the integer (m, 2) array of each element's end nodes and
    section the (E, A, I) every element shares; fixed marks constrained
    freedoms per node; drive (node, dof, amplitude) moves one free freedom
    by a finite, non-zero amplitude per unit of the control parameter;
    point_springs (node_a, dof_a, node_b, dof_b, k) couple two freedoms
    through a linear spring of stiffness k.  Every index, the section and
    each stiffness are checked when the model is built: section values and
    stiffnesses must be positive and finite, and so must each element's
    E A / L0 and E I / L0 at its chord length L0.
    """

    nodes: np.ndarray
    elements: np.ndarray
    section: Tuple[float, float, float]
    fixed: np.ndarray
    drive: Tuple[int, int, float]
    point_springs: List[Tuple[int, int, int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=int)
        self.fixed = np.asarray(self.fixed, dtype=bool)
        n = self.nodes.shape[0]
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValidationError("nodes must be an (n, 2) coordinate array")
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
        section = np.asarray(self.section, dtype=float)
        if section.shape != (3,) or not np.all(np.isfinite(section)
                                               & (section > 0)):
            raise ValidationError(
                f"section (E, A, I) {self.section!r} must be three positive, "
                "finite values")
        self.section = tuple(section.tolist())
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

        def is_freedom(node, dof):
            return 0 <= node < n and dof in (UX, UY, ROT)

        for spring in self.point_springs:
            na, da, nb, db, k = spring
            if not (is_freedom(na, da) and is_freedom(nb, db)):
                raise ValidationError(f"spring {spring} couples an invalid freedom")
            check_positive(f"spring {spring} stiffness", k)
        node, dof, amplitude = self.drive
        if not is_freedom(node, dof):
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
                      fixed=fixed, drive=(guided, UY, -1.0))


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
                      elements=model.elements, section=model.section,
                      fixed=np.vstack([model.fixed, [True, False, True]]),
                      drive=(ring, UY, -1.0), point_springs=springs)
