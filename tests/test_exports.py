"""Tests of the package surface: export lists, runtime dependencies and the
shared input rules."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graspsynth
import graspsynth.fe
from graspsynth import (FESettings, LatchPhase, LatchState, MaterialModel,
                        PullRing, SweepSettings, ValidationError,
                        actuation_force, bistability_margin, branch_loads,
                        build_vbeam_mesh, force_curve, grasper_response,
                        grasper_sweep, jaw_opening, latch_step,
                        normalize_deflection, solve_vbeam_sweep)
from graspsynth.beam import uniform_travels
from graspsynth.errors import check_count, check_non_negative

from common import GEOM, MAT, make_config

NAN = math.nan


@pytest.mark.parametrize("module", [graspsynth, graspsynth.fe],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    # a stale entry would break `from graspsynth import *`
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_runtime_imports_only_numpy():
    # the package and its CLI run on numpy alone; scipy, hypothesis and
    # pytest are never imported at run time, and nothing loads logging
    probe = ("import sys, graspsynth, graspsynth.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'hypothesis', 'pytest', 'logging'}))")
    # the fresh interpreter imports the same package this suite does
    path = [os.path.dirname(os.path.dirname(graspsynth.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("call, match", [
    (lambda: bistability_margin(GEOM, NAN), "delta_y must be non-negative"),
    (lambda: normalize_deflection(GEOM, NAN), "delta_y must be non-negative"),
    (lambda: actuation_force(GEOM, MAT, NAN), "delta_y must be non-negative"),
    (lambda: branch_loads(GEOM, NAN), "delta_y must be non-negative"),
    (lambda: latch_step(LatchState(LatchPhase.UNSTRESSED, 0.0), PullRing(NAN),
                        8.0), "ring displacement must be non-negative"),
    (lambda: FESettings(n_steps=2.5), "fe n_steps .*not an integer"),
    (lambda: FESettings(n_elements=4.5), "fe n_elements .*not an integer"),
    (lambda: FESettings(tolerance=math.inf), "fe tolerance must be positive"),
    (lambda: SweepSettings(5.0, 2.5), "sweep n_samples .*not an integer"),
    (lambda: solve_vbeam_sweep(GEOM, MAT, 1.0, n_steps=True),
     "n_steps .*True is not an integer"),
], ids=["margin-nan", "normalize-nan", "force-nan", "loads-nan", "latch-nan",
        "fe-steps-2.5", "fe-elements-4.5", "fe-tolerance-inf",
        "sweep-samples-2.5", "sweep-steps-true"])
def test_library_refuses_nan_travels_and_non_integer_counts(call, match):
    # the NaN travels used to return NaN states, or a NumericalError naming
    # the cubic; the counts and the infinite tolerance used to be accepted
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1,
                                 np.float64(math.nan), np.float64(math.inf),
                                 np.float64(-math.inf), np.float64(-1.0),
                                 np.int64(-1)],
                         ids=repr)
def test_check_non_negative_refuses_python_and_numpy_scalars(bad):
    # Python and numpy scalars take the one array path, compared as given,
    # and give the same refusal
    with pytest.raises(ValidationError, match=(
            "^travel must be non-negative: a value is negative or not "
            "finite$")):
        check_non_negative("travel", bad)


DELTA_Y_RULE = ("^delta_y must be non-negative: a value is negative or not "
                "finite$")
RING_RULE = "^ring_disp must be non-negative"
SPAN_RULE = r"^trigger_disp -?10{400} outside the calibrated span \[0, 8\] mm$"


@pytest.mark.parametrize("call, match", [
    (lambda: check_non_negative("delta_y", 10 ** 400), DELTA_Y_RULE),
    (lambda: check_non_negative("delta_y", [1.0, 10 ** 400]), DELTA_Y_RULE),
    (lambda: normalize_deflection(GEOM, 10 ** 400), DELTA_Y_RULE),
    (lambda: bistability_margin(GEOM, 10 ** 400), DELTA_Y_RULE),
    (lambda: actuation_force(GEOM, MAT, 10 ** 400), DELTA_Y_RULE),
    (lambda: actuation_force(GEOM, MAT, [1.0, 10 ** 400]), DELTA_Y_RULE),
    (lambda: force_curve(GEOM, MAT, 10 ** 400),
     "^travel_max must be positive and finite"),
    (lambda: grasper_sweep(make_config(), 10 ** 400), RING_RULE),
    (lambda: grasper_sweep(make_config(), [1.0, 10 ** 400]), RING_RULE),
    (lambda: grasper_response(make_config(), 10 ** 400), RING_RULE),
    (lambda: jaw_opening(make_config(), 10 ** 400), SPAN_RULE),
    (lambda: jaw_opening(make_config(), -10 ** 400), SPAN_RULE),
    (lambda: uniform_travels(10 ** 400, 5),
     "^travel_max 10{400} times 5 samples is not finite$"),
    (lambda: uniform_travels(-10 ** 400, 5),
     "^travel_max -10{400} times 5 samples is not finite$"),
], ids=["check", "check-list", "normalize", "margin", "force",
        "force-list", "curve", "sweep", "sweep-list", "response", "jaw",
        "jaw-negative", "travels", "travels-negative"])
def test_travel_too_large_for_a_float_is_refused(call, match):
    # such an int used to escape as a bare OverflowError ("int too large
    # to convert to float"), which no CLI handler maps to an exit code
    with pytest.raises(ValidationError, match=match):
        call()


LONG = 10 ** 5000  # past Python's 4,300-digit int-to-string limit


@pytest.mark.parametrize("call, match", [
    (lambda: check_count("n", -LONG, 1),
     r"^n must be at least 1, not -1\.000000e\+5000$"),
    (lambda: check_count("n", LONG, 1),
     r"^n 1\.000000e\+5000 exceeds the cap 1\.7976931348623157e\+308$"),
    (lambda: MaterialModel(LONG), r"^youngs_modulus_E must be positive and "
     r"finite, not 1\.000000e\+5000$"),
    (lambda: uniform_travels(LONG, 2),
     r"^travel_max 1\.000000e\+5000 times 2 samples is not finite$"),
    (lambda: jaw_opening(make_config(), LONG),
     r"^trigger_disp 1\.000000e\+5000 outside the calibrated span"),
    (lambda: replace(build_vbeam_mesh(GEOM, 8), section=(1.0, LONG, 1.0)),
     r"^section \(E, A, I\) \(1\.0, 1\.000000e\+5000, 1\.0\) must be"),
    (lambda: replace(build_vbeam_mesh(GEOM, 8), drive=(LONG, 1)),
     r"^drive \(1\.000000e\+5000, 1\) is invalid"),
], ids=["count-below", "count-above", "positive", "travels", "jaw",
        "section", "drive"])
def test_int_too_long_to_print_is_refused(call, match):
    # printing such an int in the message raised Python's plain ValueError
    # (the int-to-string digit limit) instead of ValidationError
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("good", [0, 0.0, 3, 2.5, True, False,
                                  np.float64(2.5), np.int64(3)], ids=repr)
def test_check_non_negative_accepts_finite_travels(good):
    check_non_negative("travel", good)


def test_only_the_errors_module_imports_numbers():
    # errors.check_count holds the one integer rule; another module that
    # imports numbers is growing a local variant of it
    src = Path(graspsynth.__file__).parent
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numbers" for name in names):
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"errors.py"}
