"""sha256 digests and work counts of the frame solver on the verify bench inputs.

    PYTHONPATH=src python3 tests/fe_path_digest.py [seed ...]

For every verify input of the given seeds (301, 302 and 303 by default),
generated by bench/workloads.generate, this runs the single-beam sweep and
the multi-beam assembly (its beams condensed into one) that the verify
workload runs.  The first line hashes every PathStep field of the sweeps
(control, displacements, reactions, reaction, Newton iterations,
residual, strain energy, stable) in the byte layout of common.step_bytes,
and counts the sweep steps that are not stable; the second hashes every
(shuttle, reaction) tuple of solve_multibeam_assembly.  Two trees print
the same hash only if those results are bit-identical.
A third line gives the oracle's work over every sweep and assembly it
runs: the Newton solves (fe.solver._newton calls), the assemblies
(_System.assemble calls), the linear solves (np.linalg.solve calls, which
the package makes only in _newton, one per Newton update) and the
stability tests (fe.solver._stable calls, one per converged state),
bisected attempts and secant solves included, and of the Newton solves,
those that failed (returned None) and those that converged to a state
that is not stable.
A fourth line hashes the (shuttle, reaction) answers of coarse-step
assemblies on the table1 mechanism (demos/table1.json at 6 and 12 beams,
rings COARSE_RINGS, fe.solver.ASSEMBLY_STEPS set to each of COARSE_STEPS),
an answer that raises ConvergenceError hashing as its exception name, and
counts those that raised.  The script writes no file: bytecode is not
cached, so bench/ stays untouched.  It is not a pytest module.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from common import float_bytes, step_bytes  # noqa: E402
from graspsynth import (ConvergenceError, parse_config,  # noqa: E402
                        solve_multibeam_assembly, solve_vbeam_sweep)
from graspsynth.fe import solver  # noqa: E402

SEEDS = (301, 302, 303)
TABLE1 = Path(__file__).resolve().parent.parent / "demos" / "table1.json"
COARSE_BEAMS = (6, 12)
COARSE_RINGS = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
COARSE_STEPS = (1, 2, 3, 5, 8, 20)


def _count_calls(owner, name: str, calls: dict) -> None:
    """Count every call of owner.name from now on in calls[name]."""
    function = getattr(owner, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    setattr(owner, name, counted)


def _count_attempts(calls: dict) -> None:
    """Count the failed and the unstable converged fe.solver._newton
    attempts from now on in calls["failed"] and calls["unstable"]."""
    newton = solver._newton
    calls["failed"] = calls["unstable"] = 0

    def counted(*args, **kwargs):
        state = newton(*args, **kwargs)
        calls["failed"] += state is None
        calls["unstable"] += state is not None and not state.stable
        return state

    solver._newton = counted


def main(seeds) -> None:
    digest, assembly, calls = hashlib.sha256(), hashlib.sha256(), {}
    _count_calls(solver, "_newton", calls)
    _count_attempts(calls)
    _count_calls(solver._System, "assemble", calls)
    _count_calls(np.linalg, "solve", calls)
    _count_calls(solver, "_stable", calls)
    n_inputs = n_steps = n_iters = n_unstable = 0
    for seed in seeds:
        for inp in workloads.generate("verify", seed):
            cfg = parse_config(json.dumps(inp.config))
            geom, fe = cfg.mechanism.beam_geometry, cfg.fe
            path = solve_vbeam_sweep(geom, cfg.material, cfg.sweep.travel_max,
                                     n_steps=fe.n_steps,
                                     n_elements=fe.n_elements,
                                     tol=fe.tolerance)
            for step in path.steps:
                digest.update(step_bytes(step))
                n_iters += step.iterations
                n_unstable += not step.stable
            n_steps += len(path.steps)
            assembly.update(float_bytes(*solve_multibeam_assembly(
                cfg.mechanism, inp.params["ring_disp"])))
            n_inputs += 1
    print(f"{digest.hexdigest()}  {n_inputs} inputs, {n_steps} steps, "
          f"{n_iters} Newton iterations, {n_unstable} unstable steps")
    print(f"{assembly.hexdigest()}  {n_inputs} assembly answers")
    print(f"{calls['_newton']} Newton solves, {calls['assemble']} "
          f"assemblies, {calls['solve']} linear solves and "
          f"{calls['_stable']} stability tests over every sweep and "
          f"assembly; {calls['failed']} failed and {calls['unstable']} "
          "unstable Newton attempts")
    coarse, n_coarse, n_raised = hashlib.sha256(), 0, 0
    table1 = parse_config(TABLE1.read_text()).mechanism
    for n_beams in COARSE_BEAMS:
        config = replace(table1, n_beams=n_beams)
        for ring in COARSE_RINGS:
            for n_steps in COARSE_STEPS:
                solver.ASSEMBLY_STEPS = n_steps
                n_coarse += 1
                try:
                    coarse.update(float_bytes(
                        *solve_multibeam_assembly(config, ring)))
                except ConvergenceError as exc:
                    coarse.update(type(exc).__name__.encode())
                    n_raised += 1
    print(f"{coarse.hexdigest()}  {n_coarse} coarse table1 assembly "
          f"answers, {n_raised} raised ConvergenceError")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or SEEDS)
