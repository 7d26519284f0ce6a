"""Geometrically nonlinear planar frame oracle for the closed-form model."""

from .compare import CurveComparison, compare_curves
from .model import FrameModel, build_vbeam_mesh
from .solver import (EquilibriumPath, PathStep, solve_guided_sweep,
                     solve_multibeam_assembly, solve_vbeam_sweep,
                     sweep_to_curve, write_path_csv)

__all__ = [
    "FrameModel", "build_vbeam_mesh",
    "EquilibriumPath", "PathStep", "solve_guided_sweep",
    "solve_multibeam_assembly", "solve_vbeam_sweep", "sweep_to_curve",
    "write_path_csv", "CurveComparison", "compare_curves",
]
