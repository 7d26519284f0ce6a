"""Golden bytes of the CLI's CSV contract on the demo configs.

The README promises byte-reproducible CSV.  A change that alters one of
these files on purpose updates its hash here and says why in CHANGES.md.
fe_path.csv is left out: its residual column moves at round-off.  One
frame-solver path is pinned bit for bit instead, in the byte layout of
tests/fe_path_digest.py, and so is one assembly answer.
"""

import hashlib
import json
from pathlib import Path

import pytest

from graspsynth import parse_config, solve_multibeam_assembly, solve_vbeam_sweep
from graspsynth.cli import run_command

from common import step_bytes

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    ("table1", "curve", "curve.csv"):
        "e2384ab5bad459f68335d088b40e52012b59f3046fed9ebb358e5d4417bad1d7",
    ("table1", "d1", "d1.csv"):
        "f25cefd1acafa37ba4e07fc35406547ade85a6c58bdf16636ae55cc5af3a74ca",
    ("table1", "grasper", "grasper.csv"):
        "d6061944125554cb567f5f715e46dae88839fbb01bec980fc00baeb6b3398321",
    ("table1", "design", "design_candidates.csv"):
        "ad664b46bae9e740c45f591f2447ceaf2a8e7ac881869343c86cb5b3df81a343",
    ("final_prototype", "curve", "curve.csv"):
        "2affd84184ec058fe7ee02e78b513c05e32ec7b1c98f978b0a2f06cf65d7a4da",
    ("final_prototype", "d1", "d1.csv"):
        "f25cefd1acafa37ba4e07fc35406547ade85a6c58bdf16636ae55cc5af3a74ca",
    ("final_prototype", "grasper", "grasper.csv"):
        "1074f981d04294ab1b4fed07de3620783bd6541d45f9b6086ea822a01d8f84ca",
}


@pytest.mark.parametrize("demo, command, name", list(GOLDEN),
                         ids=lambda part: part)
def test_csv_bytes_match_golden(demo, command, name, tmp_path):
    rc = run_command([command, "--config", str(DEMOS / f"{demo}.json"),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[demo, command, name]


# table1's design_candidates.csv at three target forces, with
# require_non_bistable_at_travel unset and set, pins the row that refine,
# not the grid, decides in six searches instead of one
REFINED_GOLDEN = {
    (12, False):
        "b0e7f85fcd7fa2309a4c5e63c1dc8b1f1df06c7ae4c85278522b078df091ba98",
    (20, False):
        "ad664b46bae9e740c45f591f2447ceaf2a8e7ac881869343c86cb5b3df81a343",
    (28, False):
        "352faf2c758fd304ed74ebc8d9ff54a4b3e763e46f1c483b3fcd5dc6418b74ad",
    (12, True):
        "735c1e91ec66f5a26e9f9e6e6308775b157d85b8df3369da4eaf429d6e2e3256",
    (20, True):
        "37f6dcc2130ca7872abd420540fe45a53f78819a16dfd7f2ce5b8c6aff9b2896",
    (28, True):
        "a99c7270132463d4699d89234c1c3fe005f26ab3faf4769f650883edea39a0ea",
}


@pytest.mark.parametrize("target, flagged", list(REFINED_GOLDEN),
                         ids=lambda part: str(part))
def test_refined_design_bytes_match_golden(target, flagged, tmp_path):
    doc = json.loads((DEMOS / "table1.json").read_text(encoding="utf-8"))
    doc["design"].update(target_force=target,
                         require_non_bistable_at_travel=flagged)
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    rc = run_command(["design", "--config", str(cfg), "--out",
                      str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    csv = (tmp_path / "out" / "design_candidates.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == REFINED_GOLDEN[target, flagged]


# every PathStep of the demo beam's 16-element, 100-step sweep to 5 mm
ORACLE_PATH_GOLDEN = (
    "af2696de5f5a6457b4392ce95876f20b754cf1a006d07e198a98311e5576a6cb")
# the (shuttle, reaction) of its 12-beam assembly at a 3 mm ring travel
ASSEMBLY_GOLDEN = (0.591844757011777, 24.08155242988305)


def _table1():
    return parse_config((DEMOS / "table1.json").read_text(encoding="utf-8"))


def test_oracle_path_bytes_match_golden():
    cfg = _table1()
    path = solve_vbeam_sweep(cfg.mechanism.beam_geometry, cfg.material, 5.0,
                             n_steps=100, n_elements=16, tol=1e-8)
    assert len(path.steps) == 100
    digest = hashlib.sha256()
    for step in path.steps:
        digest.update(step_bytes(step))
    assert digest.hexdigest() == ORACLE_PATH_GOLDEN


def test_assembly_matches_golden():
    cfg = _table1()
    assert solve_multibeam_assembly(cfg.mechanism, 3.0) == ASSEMBLY_GOLDEN
