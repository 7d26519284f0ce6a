"""One sha256 over the CLI's CSV outputs on the bench inputs.

    PYTHONPATH=src python3 tests/csv_digest.py [seed ...]

For the bench inputs of the given seeds (301, 302 and 303 by default),
generated by bench/workloads.generate, this runs, in process through
cli.run_command:

- ``design`` on every design input;
- ``grasper --samples 500`` on every grasper input (the bench workload);
- ``curve`` on every grasper and every verify input, and ``curve --samples
  n_steps`` on every verify input (the sampling of verify's closed form).

That is 1,008 outputs for the three default seeds.  The digest covers, per
output and in a fixed order, the command's exit code and the bytes of every
CSV it wrote; what the command prints to stderr is dropped.  Two trees
print the same digest only if every one of these CSVs is byte-identical, so
a change to a numerical kernel can show that the CSV contracts did not
move.  Under that total, one line per command gives the digest of that
command's outputs alone, in the same order, so a moved total shows which
command's CSVs moved.  Two last lines, outside the total and in the same
chunk format, give the digests of:

- ``design`` on the same design inputs with
  ``require_non_bistable_at_travel`` set to true, which no bench input sets;
  a line after it gives the load-kernel passes (``search._kernel_pass``
  calls) that the grid and ``refine`` make in the ``design`` runs without
  and with that flag, and the median of ``refine``'s own passes per
  ``design`` run;
- ``verify`` on every verify input: its exit code and the bytes of
  ``verify_report.csv`` and ``fe_path.csv``, the CSVs that ``force_curve``
  and ``fe.sweep_to_curve`` reach.  This runs the frame solver once per
  input, 180 runs for the three default seeds.

Configs and outputs go to a temporary directory that is removed afterwards,
and bytecode is not cached, so bench/ stays untouched.  It is not a pytest
module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import struct
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from graspsynth import cli, search  # noqa: E402

SEEDS = (301, 302, 303)


def _runs(seed: int):
    """(workload, input, extra CLI arguments) of every output of a seed."""
    samples = ["--samples", str(workloads.GRASPER_SAMPLES)]
    for inp in workloads.generate("design", seed):
        yield "design", "design", inp, []
    for inp in workloads.generate("grasper", seed):
        yield "grasper", "grasper", inp, samples
        yield "grasper", "curve", inp, []
    for inp in workloads.generate("verify", seed):
        yield "verify", "curve", inp, []
        yield "verify", "curve", inp, [
            "--samples", str(inp.config["fe"]["n_steps"])]


def _chunks(root: Path, name: str, config: dict, command: str, extra,
            codes: dict):
    """The exit code and CSV bytes of one in-process CLI run, in order."""
    path = root / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps(config), encoding="utf-8")
    out = root / f"out_{sum(codes.values()):04d}_{name}"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command([command, "--config", str(path), "--out",
                            str(out), "--quiet", *extra])
    codes[code] = codes.get(code, 0) + 1
    chunks = [struct.pack("<i", code)]
    for csv in sorted(out.glob("*.csv")):
        chunks += [csv.name.encode() + b"\0", csv.read_bytes()]
    return chunks


def _exits(codes: dict) -> str:
    return ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items()))


def _count_passes():
    """Count every search._kernel_pass call from now on in the first list's
    one entry, and append the passes of each ``refine`` the CLI runs to the
    second; only ``design`` reaches them, through the grid and ``refine``."""
    kernel, refine, calls, refines = search._kernel_pass, cli.refine, [0], []

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    def refined(*args):
        first = calls[0]
        out = refine(*args)
        refines.append(calls[0] - first)
        return out

    search._kernel_pass, cli.refine = counted, refined
    return calls, refines


def main(seeds) -> None:
    digest, flagged, oracle = (hashlib.sha256() for _ in range(3))
    (calls, refines), passes = _count_passes(), {"design": 0, "flagged": 0}
    refined = {"design": [], "flagged": []}
    by_command, per_command = {}, {}
    n_outputs = n_files = 0
    codes, flagged_codes, oracle_codes = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in seeds:
            for workload, command, inp, extra in _runs(seed):
                chunks = _chunks(root, f"{workload}_{seed}_{inp.index:03d}",
                                 inp.config, command, extra, codes)
                own = by_command.setdefault(command, hashlib.sha256())
                per_command[command] = per_command.get(command, 0) + 1
                n_files += (len(chunks) - 1) // 2
                for chunk in chunks:
                    digest.update(chunk)
                    own.update(chunk)
                n_outputs += 1
            passes["design"] += calls[0]
            refined["design"] += refines
            calls[0] = 0
            refines.clear()
            for inp in workloads.generate("design", seed):
                config = {**inp.config, "design": {
                    **inp.config["design"],
                    "require_non_bistable_at_travel": True}}
                for chunk in _chunks(root, f"flagged_{seed}_{inp.index:03d}",
                                     config, "design", [], flagged_codes):
                    flagged.update(chunk)
            passes["flagged"] += calls[0]
            refined["flagged"] += refines
            calls[0] = 0
            refines.clear()
            for inp in workloads.generate("verify", seed):
                for chunk in _chunks(root, f"oracle_{seed}_{inp.index:03d}",
                                     inp.config, "verify", [], oracle_codes):
                    oracle.update(chunk)
    print(f"{digest.hexdigest()}  {n_outputs} outputs, {n_files} CSV files "
          f"({_exits(codes)})")
    for command, own in by_command.items():
        print(f"{own.hexdigest()}  {per_command[command]} {command} outputs")
    print(f"{flagged.hexdigest()}  {sum(flagged_codes.values())} design "
          f"outputs with require_non_bistable_at_travel "
          f"({_exits(flagged_codes)}), outside the total")
    print(f"{passes['design']} and {passes['flagged']} grid + refine kernel "
          f"passes in the design outputs without and with "
          f"require_non_bistable_at_travel; refine's median per output "
          f"{statistics.median(refined['design']):g} and "
          f"{statistics.median(refined['flagged']):g}")
    print(f"{oracle.hexdigest()}  {sum(oracle_codes.values())} verify "
          f"outputs ({_exits(oracle_codes)}), outside the total")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or SEEDS)
