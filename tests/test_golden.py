"""Golden bytes of the CLI's CSV contract on the demo configs.

The README promises byte-reproducible CSV.  A change that alters one of
these files on purpose updates its hash here and says why in CHANGES.md.
fe_path.csv is left out: its residual column moves at round-off.
"""

import hashlib
from pathlib import Path

import pytest

from graspsynth.cli import run_command

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    ("table1", "curve", "curve.csv"):
        "e2384ab5bad459f68335d088b40e52012b59f3046fed9ebb358e5d4417bad1d7",
    ("table1", "d1", "d1.csv"):
        "f25cefd1acafa37ba4e07fc35406547ade85a6c58bdf16636ae55cc5af3a74ca",
    ("table1", "grasper", "grasper.csv"):
        "8903a2c080f8aeea84329db478a6c82ed84bf6a42c0c83ec41b7d7717085a63a",
    ("table1", "design", "design_candidates.csv"):
        "4f58bed2d7e9f91937ffd70e31beb3dc3f83bc22f5e29f33498ec6be1ee8acc0",
    ("final_prototype", "curve", "curve.csv"):
        "2affd84184ec058fe7ee02e78b513c05e32ec7b1c98f978b0a2f06cf65d7a4da",
    ("final_prototype", "d1", "d1.csv"):
        "f25cefd1acafa37ba4e07fc35406547ade85a6c58bdf16636ae55cc5af3a74ca",
    ("final_prototype", "grasper", "grasper.csv"):
        "6852ed903c7a35cd72b850001018d5c1a70b6f4fcf62c2f6995cf951bae6eb09",
}


@pytest.mark.parametrize("demo, command, name", list(GOLDEN),
                         ids=lambda part: part)
def test_csv_bytes_match_golden(demo, command, name, tmp_path):
    rc = run_command([command, "--config", str(DEMOS / f"{demo}.json"),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[demo, command, name]
