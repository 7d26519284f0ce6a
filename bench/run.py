"""graspsynth benchmark: the design loop's three steps as seeded workloads.

    python3 bench/run.py --workload design|grasper|verify|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs every input twice, untraced then traced, and
reports the per-layer metrics and the tracing overhead. Every operation's
output is checked outside the timed region. Human-readable lines come
first; the last line of standard output is the JSON result. Full records
(per-operation times, provenance, spans) go to ``.bench_work/results``.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("design", "grasper", "verify")

# Cold starts per run for setup_s, after one unmeasured start.
SETUP_STARTS = 11
# Operations with at least this many slower ones beyond the tail latency.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
# Reference-scaled seconds one input cycle took at the commit that defined
# the benchmark (medians over seeds, 2-core Intel Xeon); a run measures
# ceil(seconds / this) cycles. Changing these changes the benchmark.
NOMINAL_CYCLE_S = {"design": 6.0, "grasper": 1.9, "verify": 3.7}
# A run stops early, after a whole cycle, once its operations have taken
# this many times `seconds` of wall time, so that a slow phase of the
# machine cannot stretch a run without bound.
WALL_CAP = 1.5

NOISE_NOTE = (
    "On a 2-core Intel Xeon sandbox (Python 3.11, numpy 2.4), identical "
    "30-operation grasper runs took 10.4-13.1 s and CPU time tracked wall "
    "time, so the spread comes from CPU speed, not the scheduler; a fixed "
    "operation's raw run medians spread 38-50% (quartile distance over "
    "median), 2-4% after reference scaling.")


def _bootstrap():
    if not (SRC / "graspsynth" / "__init__.py").is_file():
        print(f"error: {SRC / 'graspsynth'} not found; run the benchmark "
              f"inside a graspsynth checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # The default user path: the CLI picks its own thread cap.
    os.environ.pop("GRASPSYNTH_THREADS", None)
    import graspsynth
    import graspsynth.cli  # noqa: F401  (not imported by the package)
    if Path(graspsynth.__file__).resolve().parent != SRC / "graspsynth":
        print(f"error: imported graspsynth from {graspsynth.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return graspsynth


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

def _run_design(gs, inp, out_dir):
    return gs.cli.run_command(["design", "--config", str(inp.path),
                               "--out", str(out_dir), "--quiet"])


def _run_grasper(gs, inp, out_dir):
    return gs.cli.run_command(["grasper", "--config", str(inp.path),
                               "--out", str(out_dir), "--samples",
                               str(workloads.GRASPER_SAMPLES), "--quiet"])


def _run_verify(gs, inp, out_dir):
    """The verify command's library calls, plus one small tied assembly."""
    cfg = inp.parsed
    geom, mat = cfg.mechanism.beam_geometry, cfg.material
    travel, fe = cfg.sweep.travel_max, cfg.fe
    closed = gs.force_curve(geom, mat, travel, fe.n_steps)
    single = gs.aggregate_ring_force(closed, 1)
    path = gs.solve_vbeam_sweep(geom, mat, travel, n_steps=fe.n_steps,
                                n_elements=fe.n_elements, tol=fe.tolerance)
    oracle = gs.sweep_to_curve(path, geom, mat)
    halved = gs.compare_curves(single, oracle)
    unhalved = gs.compare_curves(closed, oracle)
    ring = inp.params["ring_disp"]
    shuttle, reaction = gs.solve_multibeam_assembly(cfg.mechanism, ring)
    return {"path": path, "halved": halved, "unhalved": unhalved,
            "ring": ring, "shuttle": shuttle, "reaction": reaction}


def _exit_code(rc, expected=0):
    if rc != expected:
        raise checks.CheckFailure(f"exit code {rc}, expected {expected}")


def _check_design(gs, inp, out_dir, rc):
    _exit_code(rc)
    text = (out_dir / "design_candidates.csv").read_text(encoding="utf-8")
    doc = inp.config["design"]
    return checks.check_design(
        text, doc, inp.config["material"]["youngs_modulus_E"], gs)


def _check_grasper(gs, inp, out_dir, rc):
    _exit_code(rc)
    text = (out_dir / "grasper.csv").read_text(encoding="utf-8")
    return checks.check_grasper(text, workloads.GRASPER_SAMPLES,
                                inp.config["mechanism"]["latch_travel"])


# Frame-solver steps of solve_multibeam_assembly at its default.
ASSEMBLY_STEPS = 20


def _check_verify(gs, inp, out_dir, result):
    cfg = inp.parsed
    return checks.check_verify(result, cfg.fe.tolerance,
                               cfg.mechanism.series_stiffness_ks,
                               ASSEMBLY_STEPS)


@dataclass
class Spec:
    run: object
    check: object


SPECS = {
    "design": Spec(_run_design, _check_design),
    "grasper": Spec(_run_grasper, _check_grasper),
    "verify": Spec(_run_verify, _check_verify),
}


@dataclass
class OpRecord:
    index: int
    stratum: str
    traced: bool
    wall_s: float
    scale: float
    units: int = 0
    error: str = None
    unhalved_rms_rel: float = None

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def _attempt(gs, spec, inp, out_dir, tr=None, op_id=0):
    """One timed operation, traced if `tr` is given; checked afterwards."""
    out_dir.mkdir(parents=True)

    def call():
        try:
            if tr is not None:
                return tr.run(op_id, spec.run, gs, inp, out_dir), None
            return spec.run(gs, inp, out_dir), None
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, f"{type(exc).__name__}: {exc}"

    if tr is not None:
        tr.install()
    try:
        t = reference.timed(call)
    finally:
        if tr is not None:
            tr.remove()
    output, error = t.value
    rec = OpRecord(inp.index, inp.stratum, tr is not None, t.wall_s,
                   t.factor, error=error)
    if error is None:
        try:
            rec.units = spec.check(gs, inp, out_dir, output)
        except Exception as exc:  # a malformed output fails its check
            rec.error = f"check: {type(exc).__name__}: {exc}"
    if isinstance(output, dict) and "unhalved" in output:
        rec.unhalved_rms_rel = output["unhalved"].rms_rel
    shutil.rmtree(out_dir)
    return rec, t.ref_s


def run_ops(gs, workload, inputs, seconds, run_dir, tr=None, starts=None):
    """Closed loop over the whole input cycles that fill `seconds`.

    The cycle count comes from `seconds` and NOMINAL_CYCLE_S, not from a
    clock, so every run of one commit does the same work and its medians
    and tail percentile compare across runs; only a run slower than
    WALL_CAP stops early. With a tracer, each input runs untraced and then
    traced, in about half as many cycles. With `starts`,
    SETUP_STARTS cold starts are spread evenly between the operations.
    Returns the records and the reference kernel times.
    """
    spec = SPECS[workload]
    cycle = workloads.CYCLE_LENGTH[workload]
    # warm-up: lazy imports and first-call costs stay out of the figures
    warm = run_dir / "warm"
    warm.mkdir()
    try:
        spec.run(gs, inputs[0], warm)
    except Exception as exc:  # the measured operations count the failure
        print(f"warm-up operation failed: {exc!r}", file=sys.stderr)
    shutil.rmtree(warm)
    passes_per_input = 1 if tr is None else 2
    total = cycle * math.ceil(
        seconds / (passes_per_input * NOMINAL_CYCLE_S[workload]))
    records, refs = [], []
    begin = time.perf_counter()
    for i in range(total):
        if (i % cycle == 0 and i > 0
                and time.perf_counter() - begin >= WALL_CAP * seconds):
            break
        if starts is not None:
            starts.catch_up(i / total)
        inp = inputs[i % len(inputs)]
        passes = [(f"op{i}", None)]
        if tr is not None:
            passes.append((f"op{i}t", tr))
        for name, tracing in passes:
            rec, ref = _attempt(gs, spec, inp, run_dir / name, tracing,
                                op_id=len(records) + 1)
            records.append(rec)
            refs.append(ref)
    if starts is not None:
        starts.catch_up(1.0)
    return records, refs


class ColdStarts:
    """setup_s: cold starts spread evenly over the measured run.

    Each CPU's speed changes in phases of seconds, which the reference
    kernel tracks poorly for process start-up (exec, imports); starts made
    back to back share one phase, spread ones sample many. The first start
    compiles bytecode and is not counted. Each start runs on one CPU, the
    one the reference kernel times.
    """

    def __init__(self, workload, seed, run_dir):
        self._cmd = [sys.executable, str(BENCH / "setup_probe.py"),
                     "--workload", workload, "--seed", str(seed)]
        self._dir = run_dir
        self.scaled, self.raw = [], []
        self._start()

    def _start(self):
        out = self._dir / f"setup{len(self.raw)}"

        def start():
            begin = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(self._cmd + ["--dir", str(out)],
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
            return float(proc.stdout.strip().splitlines()[-1]) - begin

        t = reference.timed(start)
        shutil.rmtree(out)
        return t

    def catch_up(self, share):
        """Take the starts due once `share` of the operations are done."""
        due = min(SETUP_STARTS, int(share * SETUP_STARTS) + 1)
        while len(self.raw) < due:
            t = self._start()
            self.raw.append(t.value)
            self.scaled.append(t.value * t.factor)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latency_summary(seconds):
    """(p50, tail, tail percentile): tail has TAIL_BEYOND values beyond it."""
    s = sorted(seconds)
    n = len(s)
    if n <= TAIL_BEYOND:
        return statistics.median(s), s[-1], 100.0
    return (statistics.median(s), s[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n)


def end_to_end(records, starts):
    lat = [r.scaled_s for r in records]
    p50, tail, pct = latency_summary(lat)
    raw_p50, raw_tail, _ = latency_summary([r.wall_s for r in records])
    failed = sum(r.error is not None for r in records)
    units = sum(r.units for r in records)
    metrics = {
        "setup_s": (statistics.median(starts.scaled), "s"),
        "latency_p50_ms": (1000.0 * p50, "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "work_units_per_s": (units / sum(lat), "1/s"),
        "success_rate": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {
        "error_rate": failed / len(records),
        "tail_percentile": pct,
        "operations": len(records),
        "work_units": units,
        "setup_starts": len(starts.raw),
        "raw_setup_s": statistics.median(starts.raw),
        "raw_latency_p50_ms": 1000.0 * raw_p50,
        "raw_latency_tail_ms": 1000.0 * raw_tail,
        "raw_work_units_per_s": units / sum(r.wall_s for r in records),
    }
    return metrics, extra


def per_layer(records, spans):
    """Per-operation means over the traced operations (times scaled)."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    by_op = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    n = len(traced)
    busy, self_time, seen = {}, {}, {}
    distinct = 0
    for op_id, rec in enumerate(records, start=1):
        if not rec.traced or op_id not in by_op:
            continue
        b, st, obs = tracer.op_profile(by_op[op_id])
        for name, v in b.items():
            busy[name] = busy.get(name, 0.0) + v * rec.scale
        for layer, v in st.items():
            self_time[layer] = self_time.get(layer, 0.0) + v * rec.scale
        for name, infos in obs.items():
            seen.setdefault(name, []).extend(infos)
        distinct += len({i[2] for i in obs.get("beam.force_curve", [])})

    def ms(name):
        return 1000.0 * busy.get(name, 0.0) / n

    def calls(name):
        return len(seen.get(name, [])) / n

    def ratio(a, b):
        return a / b if b else 0.0

    curves = seen.get("beam.force_curve", [])
    states = seen.get("beam.branch_loads", [])
    cands = seen.get("search.evaluate_candidate", [])
    paths = seen.get("fe.solve_guided_sweep", [])
    steps = sum(p[0] for p in paths)
    iters = sum(p[1] for p in paths)
    samples = sum(c[0] for c in curves) + len(states)
    mono = sum(c[1] for c in curves) + sum(s[0] for s in states)
    overhead = (statistics.median(r.scaled_s for r in traced)
                - statistics.median(r.scaled_s for r in plain))
    return {
        "beam.force_curve_calls": (calls("beam.force_curve"), "count"),
        "beam.force_curve_ms": (ms("beam.force_curve"), "ms"),
        "beam.samples": (sum(c[0] for c in curves) / n, "count"),
        "beam.actuation_force_calls": (calls("beam.actuation_force"), "count"),
        "beam.actuation_force_ms": (ms("beam.actuation_force"), "ms"),
        "beam.cubic_solves": (calls("beam.solve_monostable_cubic"), "count"),
        "beam.cubic_solve_ms": (ms("beam.solve_monostable_cubic"), "ms"),
        "beam.monostable_share": (ratio(mono, samples), "ratio"),
        "search.grid_search_ms": (ms("search.grid_search"), "ms"),
        "search.refine_ms": (ms("search.refine"), "ms"),
        "search.candidates": (len(cands) / n, "count"),
        "search.feasible_ratio": (ratio(sum(c[0] for c in cands), len(cands)),
                                  "ratio"),
        "search.refine_exhausted": (
            sum(r[0] for r in seen.get("search.refine", [])) / n, "count"),
        "search.distinct_curve_share": (ratio(distinct, len(curves)), "ratio"),
        "mechanism.grasper_response_calls": (
            calls("mechanism.grasper_response"), "count"),
        "mechanism.grasper_response_ms": (ms("mechanism.grasper_response"),
                                          "ms"),
        "mechanism.self_ms": (1000.0 * self_time.get("mechanism", 0.0) / n,
                              "ms"),
        "fe.sweep_ms": (ms("fe.solve_vbeam_sweep"), "ms"),
        "fe.assembly_ms": (ms("fe.solve_multibeam_assembly"), "ms"),
        "fe.compare_ms": (ms("fe.compare_curves"), "ms"),
        "fe.steps": (steps / n, "count"),
        "fe.newton_iters": (iters / n, "count"),
        "fe.iters_per_step": (ratio(iters, steps), "ratio"),
        "config.parse_ms": (ms("config.parse_config"), "ms"),
        "cli.self_ms": (1000.0 * self_time.get("cli", 0.0) / n, "ms"),
        "trace.overhead_ms": (1000.0 * overhead, "ms"),
    }


def provenance(seed, speed_samples):
    files = sorted((SRC / "graspsynth").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=20)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "reference_nominal_s": reference.NOMINAL_S,
        "reference_s": {"min": min(speed_samples),
                        "median": statistics.median(speed_samples),
                        "max": max(speed_samples)},
        "noise": NOISE_NOTE,
    }


def _write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("sid,name,op,start,end,parent,thread\n")
        for s in spans:
            fh.write(f"{s.sid},{s.name},{s.op},{s.start!r},{s.end!r},"
                     f"{s.parent},{s.thread}\n")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(gs, args):
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        starts = None if args.trace else ColdStarts(args.workload, args.seed,
                                                    run_dir)
        inputs = workloads.write_inputs(args.workload, args.seed,
                                        run_dir / "inputs", gs.parse_config)
        tr = tracer.Tracer() if args.trace else None
        records, speed_samples = run_ops(gs, args.workload, inputs,
                                         args.seconds, run_dir, tr, starts)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(records, tr.spans), {}
        _write_spans(results / f"{tag}-spans.csv.gz", tr.spans)
    else:
        metrics, extra = end_to_end(records, starts)
    failed = [r for r in records if r.error is not None]
    rms = [r.unhalved_rms_rel for r in records
           if r.unhalved_rms_rel is not None]
    if rms:
        extra["unhalved_rms_rel"] = {"min": min(rms),
                                     "median": statistics.median(rms),
                                     "max": max(rms),
                                     "above_0.2": sum(v > 0.2 for v in rms)}
    prov = provenance(args.seed, speed_samples)
    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "metrics": metrics, "extra": extra,
              "operations": [vars(r) | {"scaled_s": r.scaled_s}
                             for r in records]}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} operations, {len(failed)} failed")
    print(f"  why: {workloads.WHY[args.workload]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:34s} {value}")
    for r in failed[:5]:
        print(f"  failed op {r.index} ({r.stratum}): {r.error}")
    print("provenance " + json.dumps(prov))
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process; one table and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            sys.exit(1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        _bootstrap()
        result = run_all(args)
    else:
        result = run_workload(_bootstrap(), args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
