"""Self-test of the benchmark's input generator and output checks.

    python3 bench/selftest.py

For each workload it checks that one seed gives byte-identical configs and
another seed different ones, that a real operation passes its check, and
that the check rejects each of several corrupted copies of that output.
Exits 1 if anything is not as expected.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys

import checks
import run
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def expect_reject(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailure as exc:
        expect(True, f"rejects {what} ({exc})")
    else:
        expect(False, f"rejects {what}")


def _csv(lines):
    return "\n".join(lines) + "\n"


def _generator(gs, workload, base):
    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = base / f"gen-{tag}"
        workloads.write_inputs(workload, seed, d, gs.parse_config)
        files[tag] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    expect(files["a"] == files["b"], "same seed writes byte-identical inputs")
    configs = [k for k in files["a"] if k.startswith("config_")]
    expect(any(files["a"][k] != files["c"][k] for k in configs),
           "another seed writes other configs")


def _design(gs, inp, out_dir):
    text = (out_dir / "design_candidates.csv").read_text(encoding="utf-8")
    doc = inp.config["design"]
    E = inp.config["material"]["youngs_modulus_E"]
    grid = len(checks.design_grid(doc))

    def check(t):
        return checks.check_design(t, doc, E, gs)

    expect(check(text) >= grid, "real design output passes")
    lines = text.rstrip("\n").split("\n")
    header, rows = lines[0], lines[1:]

    def renumber(rs):
        return [f"{i},{r.split(',', 1)[1]}" for i, r in enumerate(rs, start=1)]

    expect_reject("a changed header", lambda: check(
        _csv([header.replace("peak_force_N", "peak_N")] + rows)))
    swapped = rows[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    expect_reject("rows out of sort_key order",
                  lambda: check(_csv([header] + renumber(swapped))))
    expect_reject("a dropped grid row",
                  lambda: check(_csv([header] + rows[:-1])))
    expect_reject("a wrong rank",
                  lambda: check(_csv([header, "2" + rows[0][1:]] + rows[1:])))
    top = rows[0].split(",")
    top[6] = repr(float(top[6]) * (1.0 + 1e-6))
    expect_reject("a top peak force off by 1e-6",
                  lambda: check(_csv([header, ",".join(top)] + rows[1:])))


def _grasper(gs, inp, out_dir):
    text = (out_dir / "grasper.csv").read_text(encoding="utf-8")
    latch = inp.config["mechanism"]["latch_travel"]
    n = workloads.GRASPER_SAMPLES

    def check(t):
        return checks.check_grasper(t, n, latch)

    expect(check(text) == n, "real grasper output passes")
    lines = text.rstrip("\n").split("\n")
    header, rows = lines[0], lines[1:]

    def with_field(i, col, value):
        fields = rows[i].split(",")
        fields[col] = value
        return [header] + rows[:i] + [",".join(fields)] + rows[i + 1:]

    expect_reject("a changed header", lambda: check(
        _csv([header.replace("latch_phase", "phase")] + rows)))
    expect_reject("a NaN force", lambda: check(_csv(with_field(10, 1, "nan"))))
    mid = len(rows) // 2
    lower = repr(float(rows[mid - 1].split(",")[3]) * 0.5)
    expect_reject("a decreasing jaw opening",
                  lambda: check(_csv(with_field(mid, 3, lower))))
    expect_reject("a wrong latch phase",
                  lambda: check(_csv(with_field(len(rows) - 1, 4, "Unstressed"))))
    expect_reject("a dropped row", lambda: check(_csv([header] + rows[:-1])))
    expect_reject("a missing final newline", lambda: check(text.rstrip("\n")))


def _verify(gs, inp, result):
    cfg = inp.parsed
    tol, ks = cfg.fe.tolerance, cfg.mechanism.series_stiffness_ks

    def check(r):
        return checks.check_verify(r, tol, ks, run.ASSEMBLY_STEPS)

    expect(check(result) > run.ASSEMBLY_STEPS, "real verify output passes")
    path = result["path"]

    def with_steps(steps):
        return dict(result, path=dataclasses.replace(path, steps=steps))

    bad = path.steps[:]
    bad[len(bad) // 2] = dataclasses.replace(bad[len(bad) // 2], residual=tol)
    expect_reject("a residual at the tolerance", lambda: check(with_steps(bad)))
    scaled = [dataclasses.replace(s, reaction=1.05 * s.reaction)
              for s in path.steps]
    expect_reject("path work off by 5%", lambda: check(with_steps(scaled)))
    expect_reject("a NaN comparison", lambda: check(dict(
        result, halved=dataclasses.replace(result["halved"], rms_rel=math.nan))))
    expect_reject("an unbalanced assembly reaction", lambda: check(
        dict(result, reaction=result["reaction"] * 1.001)))


def main():
    gs = run._bootstrap()
    base = run.WORK / f"selftest-{os.getpid()}"
    try:
        for workload in run.WORKLOAD_NAMES:
            print(workload)
            _generator(gs, workload, base / workload)
            inp = workloads.write_inputs(workload, 1, base / workload / "in",
                                         gs.parse_config)[0]
            out_dir = base / workload / "out"
            out_dir.mkdir()
            output = run.SPECS[workload].run(gs, inp, out_dir)
            if workload == "design":
                expect(output == 0, "design exits 0")
                _design(gs, inp, out_dir)
            elif workload == "grasper":
                expect(output == 0, "grasper exits 0")
                _grasper(gs, inp, out_dir)
            else:
                _verify(gs, inp, output)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
