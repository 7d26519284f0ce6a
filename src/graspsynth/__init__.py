"""Design and verification toolkit for trigger-latched bistable V-beam graspers.

The package computes actuation forces and bistability of tilted V-beam
flexures from a closed-form load-deflection model, aggregates them into
whole-grasper force and jaw-travel predictions, searches geometry space for
force/travel targets, and cross-checks the closed-form model against an
independent geometrically nonlinear planar frame solver.

Quick start::

    from graspsynth import VBeamGeometry, MaterialModel, force_curve, peak_force

    geom = VBeamGeometry.from_degrees(40, 1.2, 5, 7)
    mat = MaterialModel(youngs_modulus_E=1800)
    curve = force_curve(geom, mat, travel_max=5.0)
    print(peak_force(curve))
"""

from .beam import (BeamLoadState, Branch, ForceDisplacementCurve,
                   MaterialModel, MonostableIntermediates,
                   NormalizedDeflection, VBeamGeometry, actuation_force,
                   bistability_margin, bistable_crossover, branch_loads,
                   force_curve, monostable_intermediates,
                   normalize_deflection, peak_force, solve_monostable_cubic)
from .config import (DesignSettings, FESettings, RunConfig, SweepSettings,
                     parse_config, serialize_config)
from .errors import (ConfigError, ConvergenceError, NumericalError,
                     SingularityError, ValidationError)
from .fe import (CurveComparison, EquilibriumPath, FrameModel,
                 build_vbeam_mesh, compare_curves, solve_guided_sweep,
                 solve_multibeam_assembly, solve_vbeam_sweep, sweep_to_curve,
                 write_path_csv)
from .mechanism import (CantileverSection, GrasperResponse, GrasperSweep,
                        LatchPhase, LatchState, MechanismConfig, PressTrigger,
                        PullRing, aggregate_ring_force, cantilever_stress,
                        grasper_response, grasper_sweep, jaw_opening,
                        latch_step, shuttle_transfer_ratio,
                        single_beam_force)
from .search import (Candidate, DesignSpec, evaluate_candidate, grid_search,
                     refine, write_candidates_csv)

__version__ = "0.1.0"

__all__ = [
    "VBeamGeometry", "MaterialModel", "NormalizedDeflection",
    "MonostableIntermediates", "BeamLoadState", "Branch",
    "ForceDisplacementCurve", "normalize_deflection", "bistability_margin",
    "bistable_crossover", "monostable_intermediates", "solve_monostable_cubic",
    "branch_loads", "actuation_force", "force_curve", "peak_force",
    "MechanismConfig", "CantileverSection", "LatchPhase", "LatchState",
    "PullRing", "PressTrigger", "GrasperResponse", "GrasperSweep",
    "aggregate_ring_force",
    "single_beam_force", "shuttle_transfer_ratio", "jaw_opening",
    "cantilever_stress", "latch_step", "grasper_response", "grasper_sweep",
    "FrameModel", "build_vbeam_mesh",
    "EquilibriumPath", "solve_guided_sweep", "solve_vbeam_sweep",
    "solve_multibeam_assembly", "sweep_to_curve", "write_path_csv",
    "CurveComparison", "compare_curves",
    "DesignSpec", "Candidate", "evaluate_candidate", "grid_search", "refine",
    "write_candidates_csv",
    "RunConfig", "SweepSettings", "FESettings", "DesignSettings",
    "parse_config", "serialize_config",
    "ValidationError", "ConfigError", "NumericalError", "SingularityError",
    "ConvergenceError",
]
