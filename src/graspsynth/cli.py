"""Command-line surface: analysis, sweeps, design search and verification.

The parser is built once per process from one table, _COMMANDS, so each
subcommand takes only the sweep overrides (--travel, --samples) it reads;
every call parses into a fresh namespace.

Exit codes: 0 success, 1 usage, 2 configuration error, 3 numerical failure
(including a failed closed-form versus frame-solver verification).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from ._csv import write_csv
from .beam import bistability_margin, force_curve, uniform_travels
from .config import RunConfig, parse_config
from .errors import ConfigError, NumericalError, ValidationError
from .fe import compare_curves, solve_vbeam_sweep, sweep_to_curve, write_path_csv
from .mechanism import (LatchPhase, aggregate_ring_force, grasper_sweep,
                        halved_ring_force)
from .search import Candidate, grid_search, refine, write_candidates_csv

CURVE_CSV_HEADER = "delta_y_mm,branch,f_o,p_o,force_single_N,force_ring_N"
D1_CSV_HEADER = "delta_y_mm,d1,satisfied"
GRASPER_CSV_HEADER = ("ring_disp_mm,ring_force_N,shuttle_disp_mm,"
                      "jaw_opening_mm,latch_phase,jaw_root_stress_MPa")
VERIFY_CSV_HEADER = ("comparison,rms_rel,max_rel,peak_force_rel_diff,"
                     "peak_location_diff_mm")

# Verification gates for the closed-form versus frame-solver cross-check.
VERIFY_RMS_LIMIT = 0.20
VERIFY_PEAK_LOCATION_LIMIT = 0.5

_OVERRIDES = {
    "--travel": ("travel_max", float, "override sweep travel [mm]"),
    "--samples": ("n_samples", int, "override sweep sample count"),
}


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = parse_config(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from exc
    overrides = {field: value for field, _, _ in _OVERRIDES.values()
                 if (value := getattr(args, field, None)) is not None}
    return replace(config, sweep=replace(config.sweep, **overrides))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write(args, dest: Path, header: str, rows) -> None:
    write_csv(dest, header, rows)
    _say(args, f"wrote {dest}")


def _cmd_curve(args, config: RunConfig, out: Path) -> int:
    curve = force_curve(config.mechanism.beam_geometry, config.material,
                        config.sweep.travel_max, config.sweep.n_samples)
    _write(args, out / "curve.csv", CURVE_CSV_HEADER, zip(
        curve.delta_y.tolist(), [b.value for b in curve.branches],
        curve.f_o.tolist(), curve.p_o.tolist(),
        halved_ring_force(curve.force, 1).tolist(),
        halved_ring_force(curve.force, config.mechanism.n_beams).tolist()))
    return 0


def _cmd_d1(args, config: RunConfig, out: Path) -> int:
    dys = uniform_travels(config.sweep.travel_max, config.sweep.n_samples)
    d1, satisfied = bistability_margin(config.mechanism.beam_geometry, dys)
    _write(args, out / "d1.csv", D1_CSV_HEADER, zip(
        dys.tolist(), d1.tolist(), [str(ok).lower() for ok in satisfied.tolist()]))
    return 0


def _cmd_grasper(args, config: RunConfig, out: Path) -> int:
    mech = config.mechanism
    top = min(mech.latch_travel, mech.jaw_calibration[-1][0])
    sweep = grasper_sweep(mech, uniform_travels(top, config.sweep.n_samples))
    latched_tag = LatchPhase.STRESSED_LATCHED.value
    free_tag = LatchPhase.UNSTRESSED.value
    phases = [latched_tag if latched else free_tag
              for latched in sweep.latched.tolist()]
    _write(args, out / "grasper.csv", GRASPER_CSV_HEADER, zip(
        sweep.ring.tolist(), sweep.ring_force.tolist(),
        sweep.shuttle.tolist(), sweep.opening.tolist(), phases,
        sweep.stress.tolist()))
    return 0


def _cmd_design(args, config: RunConfig, out: Path) -> int:
    if config.design is None:
        raise ConfigError("config has no 'design' block")
    ranked = grid_search(config.design.spec, config.design.grid_density)
    _say(args, f"grid search ranked {len(ranked)} candidates")
    if ranked:
        best = refine(config.design.spec, ranked[0],
                      config.design.refine_max_evals)
        # one row per design point: the refined candidate replaces its twin
        ranked = [c for c in ranked if c.point != best.point]
        bisect.insort(ranked, best, key=Candidate.sort_key)
    dest = out / "design_candidates.csv"
    write_candidates_csv(ranked, dest)
    _say(args, f"wrote {dest}")
    return 0


def _cmd_verify(args, config: RunConfig, out: Path) -> int:
    geom, mat = config.mechanism.beam_geometry, config.material
    travel = config.sweep.travel_max

    tebc_double = force_curve(geom, mat, travel, config.fe.n_steps)
    tebc_single = aggregate_ring_force(tebc_double, 1)
    path = solve_vbeam_sweep(geom, mat, travel, n_steps=config.fe.n_steps,
                             n_elements=config.fe.n_elements,
                             tol=config.fe.tolerance)
    fe_curve = sweep_to_curve(path, geom, mat)
    dest = out / "fe_path.csv"
    write_path_csv(path, dest)
    _say(args, f"wrote {dest}")

    halved = compare_curves(tebc_single, fe_curve)
    unhalved = compare_curves(tebc_double, fe_curve)
    dest = out / "verify_report.csv"
    _write(args, dest, VERIFY_CSV_HEADER, (
        (name, c.rms_rel, c.max_rel, c.peak_force_rel_diff,
         c.peak_location_diff)
        for name, c in (("tebc_single_vs_fe", halved),
                        ("tebc_double_vs_fe", unhalved))))

    ok = (halved.rms_rel <= VERIFY_RMS_LIMIT
          and halved.peak_location_diff <= VERIFY_PEAK_LOCATION_LIMIT)
    if not ok:
        print(f"verification failed: closed-form single-beam vs frame solver "
              f"rms_rel={halved.rms_rel:.4f} (limit {VERIFY_RMS_LIMIT}), "
              f"peak_location_diff={halved.peak_location_diff:.4f} mm "
              f"(limit {VERIFY_PEAK_LOCATION_LIMIT}); report in {dest.name}",
              file=sys.stderr)
        return 3
    _say(args, f"verification passed: rms_rel={halved.rms_rel:.4f}")
    return 0


# name: (handler, sweep overrides it reads, help), in the order report runs
_ANALYSES = {
    "curve": (_cmd_curve, ("--travel", "--samples"),
              "sample the force-displacement curve to CSV"),
    "d1": (_cmd_d1, ("--travel", "--samples"),
           "tabulate the bistability margin over the travel"),
    "grasper": (_cmd_grasper, ("--samples",),
                "tabulate the whole-grasper response over ring travel"),
    "design": (_cmd_design, (), "grid search plus refinement to a ranked CSV"),
    "verify": (_cmd_verify, ("--travel",),
               "cross-check the closed-form model against the frame solver"),
}


def _publish(args, stage: Path, out: Path) -> None:
    """Move the staged CSVs into out, naming each."""
    for staged in sorted(stage.iterdir()):
        dest = out / staged.name
        staged.replace(dest)
        _say(args, f"wrote {dest}")


def _cmd_report(args, config: RunConfig, out: Path) -> int:
    """Run every analysis, quietly, into a staging directory in out, and move
    the CSVs into out only when the run ends with exit 0 or 3: a
    configuration error (exit 2) leaves none of them."""
    quiet = argparse.Namespace(**{**vars(args), "quiet": True})
    with tempfile.TemporaryDirectory(dir=out, prefix=".report-") as name:
        stage = Path(name)
        try:
            code = max(run(quiet, config, stage)
                       for run, _, _ in _ANALYSES.values()
                       if run is not _cmd_design or config.design is not None)
        except NumericalError:
            _publish(args, stage, out)
            raise
        _publish(args, stage, out)
    return code


_COMMANDS = {**_ANALYSES, "report": (
    _cmd_report,
    tuple(dict.fromkeys(flag for _, flags, _ in _ANALYSES.values()
                        for flag in flags)),
    "run every analysis into the output directory")}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from the fixed _COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="graspsynth",
        description="Bistable V-beam grasper analysis and design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="JSON configuration path")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            field, type_, flag_help = _OVERRIDES[flag]
            p.add_argument(flag, dest=field, type=type_, help=flag_help)
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
        return args.run(args, config, out)
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
