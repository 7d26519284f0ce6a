"""Tests of the package surface: export lists and runtime dependencies."""

import os
import subprocess
import sys

import pytest

import graspsynth
import graspsynth.fe


@pytest.mark.parametrize("module", [graspsynth, graspsynth.fe],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    # a stale entry would break `from graspsynth import *`
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_runtime_imports_only_numpy():
    # the package and its CLI run on numpy alone; scipy, hypothesis and
    # pytest are never imported at run time
    probe = ("import sys, graspsynth, graspsynth.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'hypothesis', 'pytest'}))")
    # the fresh interpreter imports the same package this suite does
    path = [os.path.dirname(os.path.dirname(graspsynth.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
