"""Command-line surface: analysis, sweeps, design search and verification.

Exit codes: 0 success, 1 usage, 2 configuration error, 3 numerical failure
(including a failed closed-form versus frame-solver verification).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .beam import (ForceDisplacementCurve, bistability_margin, force_curve,
                   uniform_travels)
from .config import RunConfig, parse_config
from .errors import ConfigError, NumericalError, ValidationError
from .fe import compare_curves, solve_vbeam_sweep, sweep_to_curve, write_path_csv
from .mechanism import aggregate_ring_force, grasper_sweep, halved_ring_force
from .search import grid_search, refine, write_candidates_csv

CURVE_CSV_HEADER = "delta_y_mm,branch,f_o,p_o,force_single_N,force_ring_N"
D1_CSV_HEADER = "delta_y_mm,d1,satisfied"
GRASPER_CSV_HEADER = ("ring_disp_mm,ring_force_N,shuttle_disp_mm,"
                      "jaw_opening_mm,latch_phase,jaw_root_stress_MPa")
VERIFY_CSV_HEADER = ("comparison,rms_rel,max_rel,peak_force_rel_diff,"
                     "peak_location_diff_mm")

# Verification gates for the closed-form versus frame-solver cross-check.
VERIFY_RMS_LIMIT = 0.20
VERIFY_PEAK_LOCATION_LIMIT = 0.5


def write_curve_csv(curve: ForceDisplacementCurve, destination,
                    n_beams: int = 1) -> None:
    """Write a curve as CSV with per-sample branch tags and ring aggregation.

    Values carry 9 significant digits; line endings are LF.
    """
    lines = [CURVE_CSV_HEADER]
    single = halved_ring_force(curve.force, 1)
    ring = halved_ring_force(curve.force, n_beams)
    for sample, single_force, ring_force in zip(curve.samples, single, ring):
        lines.append(
            f"{sample.delta_y:.9g},{sample.branch.value},{sample.f_o:.9g},"
            f"{sample.p_o:.9g},{single_force:.9g},{ring_force:.9g}")
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    config = parse_config(path.read_text(encoding="utf-8"))
    overrides = {name: value for name, value in (("travel_max", args.travel),
                                                 ("n_samples", args.samples))
                 if value is not None}
    return replace(config, sweep=replace(config.sweep, **overrides))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit(args, dest: Path, lines) -> None:
    with open(dest, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _say(args, f"wrote {dest}")


def _cmd_curve(args, config: RunConfig, out: Path) -> int:
    curve = force_curve(config.mechanism.beam_geometry, config.material,
                        config.sweep.travel_max, config.sweep.n_samples)
    dest = out / "curve.csv"
    write_curve_csv(curve, dest, config.mechanism.n_beams)
    _say(args, f"wrote {dest}")
    return 0


def _cmd_d1(args, config: RunConfig, out: Path) -> int:
    dys = uniform_travels(config.sweep.travel_max, config.sweep.n_samples)
    d1, satisfied = bistability_margin(config.mechanism.beam_geometry, dys)
    lines = [D1_CSV_HEADER] + [
        f"{dy:.9g},{d:.9g},{str(ok).lower()}"
        for dy, d, ok in zip(dys.tolist(), d1.tolist(), satisfied.tolist())]
    _emit(args, out / "d1.csv", lines)
    return 0


def _cmd_design(args, config: RunConfig, out: Path) -> int:
    if config.design is None:
        raise ConfigError("config has no 'design' block")
    ranked = grid_search(config.design.spec, config.design.grid_density)
    _say(args, f"grid search ranked {len(ranked)} candidates")
    if ranked:
        best = refine(config.design.spec, ranked[0],
                      config.design.refine_max_evals)
        ranked = sorted(set(ranked) | {best}, key=lambda c: c.sort_key())
    dest = out / "design_candidates.csv"
    write_candidates_csv(ranked, dest)
    _say(args, f"wrote {dest}")
    return 0


def _cmd_grasper(args, config: RunConfig, out: Path) -> int:
    mech = config.mechanism
    top = min(mech.latch_travel, mech.jaw_calibration[-1][0])
    ring = uniform_travels(top, config.sweep.n_samples).tolist()
    lines = [GRASPER_CSV_HEADER]
    for d, r in zip(ring, grasper_sweep(mech, ring)):
        lines.append(
            f"{d:.9g},{r.ring_force:.9g},{r.shuttle_displacement:.9g},"
            f"{r.jaw_opening:.9g},{r.latch.phase.value},{r.jaw_root_stress:.9g}")
    _emit(args, out / "grasper.csv", lines)
    return 0


def _cmd_verify(args, config: RunConfig, out: Path) -> int:
    geom = config.mechanism.beam_geometry
    mat = config.material
    travel = config.sweep.travel_max

    tebc_double = force_curve(geom, mat, travel, config.fe.n_steps)
    tebc_single = aggregate_ring_force(tebc_double, 1)
    path = solve_vbeam_sweep(geom, mat, travel, n_steps=config.fe.n_steps,
                             n_elements=config.fe.n_elements,
                             tol=config.fe.tolerance)
    fe_curve = sweep_to_curve(path, geom, mat)
    write_path_csv(path, out / "fe_path.csv")

    halved = compare_curves(tebc_single, fe_curve)
    unhalved = compare_curves(tebc_double, fe_curve)

    lines = [VERIFY_CSV_HEADER]
    for name, cmp_ in (("tebc_single_vs_fe", halved),
                       ("tebc_double_vs_fe", unhalved)):
        lines.append(f"{name},{cmp_.rms_rel:.9g},{cmp_.max_rel:.9g},"
                     f"{cmp_.peak_force_rel_diff:.9g},"
                     f"{cmp_.peak_location_diff:.9g}")
    dest = out / "verify_report.csv"
    _emit(args, dest, lines)

    ok = (halved.rms_rel <= VERIFY_RMS_LIMIT
          and halved.peak_location_diff <= VERIFY_PEAK_LOCATION_LIMIT)
    if not ok:
        print(f"verification failed: closed-form single-beam vs frame solver "
              f"rms_rel={halved.rms_rel:.4f} (limit {VERIFY_RMS_LIMIT}), "
              f"peak_location_diff={halved.peak_location_diff:.4f} mm "
              f"(limit {VERIFY_PEAK_LOCATION_LIMIT}); report at {dest}",
              file=sys.stderr)
        return 3
    _say(args, f"verification passed: rms_rel={halved.rms_rel:.4f}")
    return 0


def _cmd_report(args, config: RunConfig, out: Path) -> int:
    design = [_cmd_design] if config.design is not None else []
    return max(command(args, config, out) for command in
               [_cmd_curve, _cmd_d1, _cmd_grasper, *design, _cmd_verify])


_COMMANDS = {
    "curve": _cmd_curve,
    "d1": _cmd_d1,
    "design": _cmd_design,
    "verify": _cmd_verify,
    "grasper": _cmd_grasper,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspsynth",
        description="Bistable V-beam grasper analysis and design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("curve", "sample the force-displacement curve to CSV"),
            ("d1", "tabulate the bistability margin over the travel"),
            ("design", "grid search plus refinement to a ranked CSV"),
            ("verify", "cross-check the closed-form model against the frame solver"),
            ("grasper", "tabulate the whole-grasper response over ring travel"),
            ("report", "run every analysis into the output directory")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--samples", type=int, default=None,
                       help="override sweep sample count")
        p.add_argument("--travel", type=float, default=None,
                       help="override sweep travel [mm]")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    return parser


def run_command(argv=None) -> int:
    """Entry point returning the documented exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if exc.code == 0 else 1
    try:
        config = _load_config(args)
        out = Path(args.out or config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, config, out)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error in '{args.command}': {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure in '{args.command}': {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure in '{args.command}': {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())
