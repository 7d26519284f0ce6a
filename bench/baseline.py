"""Layer and command timings on the demo configs, as medians of repeats.

    python3 bench/baseline.py [--out FILE]

Times the rows of the ROADMAP baseline table on ``demos/table1.json`` and
``demos/final_prototype.json``: ``force_curve`` (500 samples), the
500-sample grasper sweep, ``evaluate_candidate``, ``grid_search`` over the
243-point grid with 1 and 2 workers, the 100-step frame-solver sweep, the
assembly at the config's beam count and a 3 mm ring, and every CLI
subcommand as a cold subprocess. Rows that need a design block are skipped
for configs without one. Each row reports the raw median wall time and the
median reference-scaled time (see reference.py). These rows gate nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import reference
import run

DEMOS = ("table1", "final_prototype")
REPEATS = 5
ASSEMBLY_RING_MM = 3.0
# verify exits 3 by design (acceptance criterion 6), and so does report.
CLI_EXIT = {"curve": 0, "d1": 0, "grasper": 0, "design": 0, "verify": 3,
            "report": 3}


# Rows whose work runs threads on every CPU; the others run pinned to one
# CPU, the one the reference kernel times (see reference.timed).
ALL_CPU_ROWS = ("grid_search_2_workers", "cli_design", "cli_report")


def _grasper_sweep(gs, mech, n=500):
    top = min(mech.latch_travel, mech.jaw_calibration[-1][0])
    for i in range(1, n + 1):
        gs.grasper_response(mech, top * i / n)


def _rows(gs, cfg, demo_path, out_dir):
    mech, mat = cfg.mechanism, cfg.material
    geom = mech.beam_geometry
    rows = {
        "force_curve_500": lambda: gs.force_curve(geom, mat, 5.0, 500),
        "grasper_sweep_500": lambda: _grasper_sweep(gs, mech),
        "frame_sweep_100_steps": lambda: gs.solve_vbeam_sweep(
            geom, mat, 5.0, n_steps=100, n_elements=16),
        f"assembly_{mech.n_beams}_beams": lambda: gs.solve_multibeam_assembly(
            mech, ASSEMBLY_RING_MM),
    }
    if cfg.design is not None:
        spec, density = cfg.design.spec, cfg.design.grid_density
        rows["evaluate_candidate"] = lambda: gs.evaluate_candidate(
            spec, geom, mech.n_beams)
        for workers in (1, 2):
            rows[f"grid_search_{workers}_workers"] = (
                lambda w=workers: gs.grid_search(spec, density, n_workers=w))
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for command, code in CLI_EXIT.items():
        if command == "design" and cfg.design is None:
            continue

        def cli(command=command, code=code):
            proc = subprocess.run(
                [sys.executable, "-m", "graspsynth", command, "--config",
                 str(demo_path), "--out", str(out_dir), "--quiet"],
                env=env, capture_output=True, timeout=run.CHILD_TIMEOUT_S)
            if proc.returncode != code:
                raise RuntimeError(f"cli {command} exited {proc.returncode}")
        rows[f"cli_{command}"] = cli
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None, help="also write JSON here")
    args = parser.parse_args()
    gs = run._bootstrap()
    out_dir = run.WORK / f"baseline-{os.getpid()}"
    result, samples = {}, []
    try:
        for demo in DEMOS:
            path = run.ROOT / "demos" / f"{demo}.json"
            cfg = gs.parse_config(path.read_text(encoding="utf-8"))
            rows = _rows(gs, cfg, path, out_dir)
            for fn in rows.values():  # warm-up
                fn()
            times = {name: [] for name in rows}
            for _ in range(REPEATS):
                for name, fn in rows.items():
                    times[name].append(
                        reference.timed(fn, name in ALL_CPU_ROWS))
            for name, runs in times.items():
                result[f"{demo}.{name}"] = {
                    "raw_ms": 1000.0 * statistics.median(t.wall_s for t in runs),
                    "scaled_ms": 1000.0 * statistics.median(
                        t.scaled_s for t in runs),
                    "repeats": REPEATS,
                }
                samples.extend(t.ref_s for t in runs)
                print(f"{demo:16s} {name:26s} "
                      f"{result[f'{demo}.{name}']['raw_ms']:10.1f} ms raw "
                      f"{result[f'{demo}.{name}']['scaled_ms']:10.1f} ms scaled")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record = {"rows": result, "provenance": run.provenance(None, samples)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
