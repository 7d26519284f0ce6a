"""Every one-leaf hostile change of a reduced table1 config, through every
subcommand.

    PYTHONPATH=src python3 tests/hostile_configs.py

The base config is demos/table1.json with 50 sweep samples, 2 grid levels
per design parameter and 10 oracle steps.  Each of its leaves (each number,
string and list entry) is set, one at a time, to each value of HOSTILE, and
to the cap + 1 where the leaf is a capped count.  Each changed config runs
through each subcommand in process (cli.run_command), with warnings raised
as errors, into a fresh output directory.  A run is bad if it:

- exits other than 0, 2 or 3;
- lets an exception escape, a RuntimeWarning included;
- exits 2 and leaves a CSV in its output directory.

The script prints each bad run, then the count of runs and of bad ones.  It
is not a pytest module; tests/test_cli.py draws its property test from the
same changes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

from graspsynth.beam import SAMPLE_CAP
from graspsynth.cli import run_command
from graspsynth.fe.model import ELEMENT_CAP
from graspsynth.search import GRID_CAP

TABLE1 = Path(__file__).resolve().parent.parent / "demos" / "table1.json"

COMMANDS = ("curve", "d1", "grasper", "design", "verify", "report")

HOSTILE = (0, -1, 1e307, 1e308, 2 ** 63, 10 ** 400, 1e-320, 5e-324, True,
           "x", [], {})

# the cap of each capped count, by the leaf's path without list indices
CAPS = {("sweep", "n_samples"): SAMPLE_CAP, ("fe", "n_steps"): SAMPLE_CAP,
        ("fe", "n_elements"): ELEMENT_CAP,
        **{("design", "grid_density", name): GRID_CAP for name in (
            "length_L", "thickness_T", "width_W", "tilt_theta_deg",
            "n_beams")}}

Path_ = Tuple[object, ...]


def base_config() -> dict:
    """demos/table1.json with 50 samples, grid density 2, 10 oracle steps."""
    doc = json.loads(TABLE1.read_text(encoding="utf-8"))
    doc["sweep"]["n_samples"] = 50
    doc["design"]["grid_density"] = dict.fromkeys(
        doc["design"]["grid_density"], 2)
    doc["fe"]["n_steps"] = 10
    return doc


def leaves(node, path: Path_ = ()) -> List[Path_]:
    """The paths of every leaf under node, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items
            for leaf in leaves(child, (*path, key))]


def changes(doc: dict) -> List[Tuple[Path_, object]]:
    """Every (leaf path, hostile value) pair of doc."""
    out = []
    for path in leaves(doc):
        cap = CAPS.get(tuple(k for k in path if isinstance(k, str)))
        values = HOSTILE if cap is None else (*HOSTILE, cap + 1)
        out += [(path, value) for value in values]
    return out


def changed(doc: dict, path: Path_, value) -> dict:
    """A copy of doc with the leaf at path set to value."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    return doc


def bad_run(root: Path, doc: dict, command: str) -> Optional[str]:
    """What is wrong with running command on doc, or None if nothing is.
    The config and a fresh output directory go under root, an existing
    directory."""
    cfg, out = root / "config.json", root / "out"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    try:
        with warnings.catch_warnings(), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = run_command([command, "--config", str(cfg), "--out",
                                str(out), "--quiet"])
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return (f"{type(exc).__name__} escaped at {Path(where.filename).name}"
                f":{where.lineno}: {exc}")
    if code not in (0, 2, 3):
        return f"exit {code}"
    if code == 2 and out.exists() and any(out.rglob("*.csv")):
        return "exit 2 left a CSV"
    return None


def main() -> int:
    base, runs, bad = base_config(), 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for path, value in changes(base):
            doc = changed(base, path, value)
            for command in COMMANDS:
                root = Path(tmp) / f"run_{runs:05d}"
                root.mkdir()
                runs += 1
                problem = bad_run(root, doc, command)
                if problem:
                    bad += 1
                    print(f"{'.'.join(map(str, path))} = {value!r}, "
                          f"{command}: {problem}")
    print(f"{runs} runs, {bad} bad")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
