"""Tests of the package surface: export lists, runtime dependencies and the
shared input rules."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import from_dtype

import graspsynth
import graspsynth.errors
import graspsynth.fe
from graspsynth import (DesignSpec, FESettings, LatchPhase, LatchState,
                        MaterialModel, PullRing, SweepSettings, ValidationError,
                        VBeamGeometry, actuation_force, bistability_margin,
                        branch_loads, build_vbeam_mesh, force_curve,
                        grasper_response, grasper_sweep, grid_search,
                        jaw_opening, latch_step,
                        normalize_deflection, solve_multibeam_assembly,
                        solve_vbeam_sweep)
from graspsynth.beam import uniform_travels
from graspsynth.errors import (FLOAT_MAX, _finite, check_count,
                              check_non_negative, check_positive, travels)

from common import GEOM, MAT, make_config, step_bytes

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


BOUNDS = {"length_L": (36.0, 44.0), "thickness_T": (1.0, 1.4),
          "width_W": (4.0, 6.0), "tilt_theta": (0.08, 0.16),
          "n_beams": (11, 13)}


def spec(**overrides):
    return DesignSpec(**{"target_force": 21.6, "target_travel": 5.0,
                         "bounds": BOUNDS, "material": MAT, **overrides})


def frame(**overrides):
    return replace(build_vbeam_mesh(GEOM, 8), **overrides)


def narrow_nodes(inf):
    nodes = build_vbeam_mesh(GEOM, 8).nodes.astype(type(inf))
    nodes[-1, 0] = inf
    return nodes


# One call per site of the float-range rule, errors._finite, with an
# infinity of a float narrower than float64; numpy compared each at its
# own precision, where errors.FLOAT_MAX is inf too, so all were accepted
NARROW_INF_CALLS = {
    "sweep-tol": (lambda inf: solve_vbeam_sweep(GEOM, MAT, 1.0, 10, tol=inf),
                  "^tol must be positive and finite"),
    "material": (MaterialModel, "^youngs_modulus_E must be positive"),
    "ks": (lambda inf: make_config(series_stiffness_ks=inf),
           "^series_stiffness_ks must be positive"),
    "margin": (lambda inf: bistability_margin(GEOM, inf),
               "^delta_y must be non-negative"),
    "stress-limit": (lambda inf: spec(stress_limit=inf),
                     "^stress_limit must be finite$"),
    "length-budget": (lambda inf: spec(length_budget=inf),
                      "^length_budget must be finite$"),
    "bounds": (lambda inf: spec(bounds={**BOUNDS, "length_L": (36.0, inf)}),
               "^bounds for length_L must be finite$"),
    "travels": (lambda inf: uniform_travels(inf, 5),
                "^travel_max inf times 5 samples is not finite$"),
    "ramp": (lambda inf: make_config(latch_ramp_factor=inf),
             "^latch_ramp_factor must be finite"),
    "anchor": (lambda inf: make_config(jaw_calibration=((inf, 1.0),)),
               "^jaw_calibration anchors must be finite"),
    "jaw": (lambda inf: jaw_opening(make_config(), inf),
            r"^trigger_disp inf outside the calibrated span \[0, 8\] mm$"),
    "node": (lambda inf: frame(nodes=narrow_nodes(inf)),
             "^node coordinates must be finite$"),
    "section": (lambda inf: frame(section=np.array([1, inf, 1], type(inf))),
                r"^section \(E, A, I\) .* must be three positive, finite"),
}
NARROW_INFS = {"inf32": np.float32(np.inf), "inf16": np.float16(np.inf)}


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
    (lambda: bistability_margin(GEOM, [[1.0], [1.0, 2.0]]),
     "delta_y must be non-negative"),
    (lambda: branch_loads(GEOM, [[1.0], [1.0, 2.0]]),
     "delta_y takes one travel"),
    (lambda: bistability_margin(GEOM, "1"), "delta_y must be non-negative"),
    (lambda: branch_loads(GEOM, None), "delta_y must be non-negative"),
    (lambda: bistability_margin(GEOM, 1 + 2j), "delta_y must be non-negative"),
    (lambda: check_positive("x", "1"), "x must be positive and finite"),
    (lambda: check_positive("x", None), "x must be positive and finite"),
    (lambda: check_positive("x", [1.0]), "x must be positive and finite"),
    (lambda: check_positive("x", np.array([1.0, 2.0])),
     "x must be positive and finite"),
    (lambda: VBeamGeometry("40", 1.2, 5, 0.1),
     "length_L must be positive and finite"),
    (lambda: check_positive("x", np.array([1.0])),
     r"^x must be positive and finite, not array\(\[1\.\]\)$"),
    (lambda: MaterialModel(np.array([1800.0])),
     "^youngs_modulus_E must be positive and finite"),
    (lambda: VBeamGeometry(np.array([40.0]), 1.2, 5, 0.1),
     "^length_L must be positive and finite"),
    (lambda: check_positive("x", np.longdouble(1e400)),
     "^x must be positive and finite"),
    (lambda: check_positive("x", np.longdouble("1e400")),
     "^x must be positive and finite"),
    (lambda: jaw_opening(make_config(), np.float32(9.0)),
     r"^trigger_disp 9 outside the calibrated span \[0, 8\] mm$"),
    (lambda: VBeamGeometry(40, 1.2, 5, np.array([0.1])),
     r"^tilt_theta must lie in \[0, pi/2\)$"),
    (lambda: VBeamGeometry(40, 1.2, 5, "0.1"), "^tilt_theta must lie in"),
    (lambda: MaterialModel(1800, np.array([0.3])),
     r"^poisson_ratio must lie in \[0, 0\.5\)$"),
    (lambda: MaterialModel(1800, None), "^poisson_ratio must lie in"),
    (lambda: make_config(latch_ramp_factor=np.array([1.5])),
     "^latch_ramp_factor must be finite and at least 1$"),
    (lambda: make_config(latch_ramp_factor="1.5"),
     "^latch_ramp_factor must be finite"),
    (lambda: make_config(jaw_calibration=(("8", 20.52),)),
     "^jaw_calibration anchors must be finite"),
    (lambda: make_config(jaw_calibration=((8.0, None),)),
     "^jaw_calibration anchors must be finite"),
    (lambda: spec(stress_limit="50"), "^stress_limit must be finite$"),
    (lambda: spec(length_budget=None), "^length_budget must be finite$"),
    (lambda: spec(bounds={**BOUNDS, "length_L": (None, 44.0)}),
     "^bounds for length_L must be finite$"),
    (lambda: spec(require_non_bistable_at_travel="no"),
     "^require_non_bistable_at_travel must be a boolean$"),
    (lambda: jaw_opening(make_config(), "1"),
     r"^trigger_disp '1' outside the calibrated span \[0, 8\] mm$"),
    (lambda: jaw_opening(make_config(), None),
     r"^trigger_disp None outside the calibrated span \[0, 8\] mm$"),
    (lambda: jaw_opening(make_config(), 1 + 2j),
     r"^trigger_disp \(1\+2j\) outside the calibrated span \[0, 8\] mm$"),
    *((lambda v=v: uniform_travels(v, 4),
       f"^travel_max {re.escape(str(v))} times 4 samples is not finite$")
      for v in ([1.0, 2.0], np.array([1.0, 2.0]), "8", None, 1 + 2j,
                np.complex128(1 + 2j))),
    *((lambda v=v: latch_step(LatchState(LatchPhase.UNSTRESSED, 0.0),
                              PullRing(1.0), v),
       f"^latch_travel must be positive and finite, not {re.escape(repr(v))}$")
      for v in (NAN, 0, -1, "8")),
    (lambda: grid_search(spec(), None),
     "^grid density None must map parameter names to level counts$"),
    (lambda: build_vbeam_mesh(GEOM, 16, "1800"),
     r"^section \(E, A, I\) \('1800', .* must be three positive, finite"),
    (lambda: MaterialModel(np.complex128(1800.0)),
     "^youngs_modulus_E must be positive and finite"),
    (lambda: frame(section=(1.0, [1.0, 2.0], 1.0)),
     r"^section \(E, A, I\) \(1.0, \[1.0, 2.0\], 1.0\) must be three "
     "positive, finite"),
    (lambda: frame(elements=[["a", "b"]] * 8),
     r"^elements must be an \(m, 2\) node index array$"),
] + [(lambda call=call, inf=inf: call(inf), match)
     for call, match in NARROW_INF_CALLS.values()
     for inf in NARROW_INFS.values()],
    ids=["margin-nan", "normalize-nan", "force-nan", "loads-nan", "latch-nan",
         "fe-steps-2.5", "fe-elements-4.5", "fe-tolerance-inf",
         "sweep-samples-2.5", "sweep-steps-true", "margin-ragged",
         "loads-ragged", "margin-string", "loads-none", "margin-complex",
         "positive-string", "positive-none", "positive-list",
         "positive-array", "geometry-string", "positive-one-element",
         "material-one-element", "geometry-one-element",
         "positive-longdouble-inf", "positive-longdouble-1e400",
         "jaw-finite32", "tilt-one-element", "tilt-string",
         "poisson-one-element", "poisson-none", "ramp-one-element",
         "ramp-string", "anchor-string", "anchor-none", "stress-limit-string",
         "length-budget-none", "bounds-none", "bistable-flag-string",
         "jaw-string", "jaw-none", "jaw-complex", "uniform-travels-list",
         "uniform-travels-array", "uniform-travels-string",
         "uniform-travels-none", "uniform-travels-complex",
         "uniform-travels-complex128", "latch-travel-nan", "latch-travel-0",
         "latch-travel-negative", "latch-travel-string", "grid-density-none",
         "mesh-modulus-string", "material-complex128",
         "frame-ragged-section", "frame-string-elements"]
    + [f"{site}-{kind}" for site in NARROW_INF_CALLS for kind in NARROW_INFS])
def test_library_refuses_nan_travels_and_non_integer_counts(call, match):
    # the NaN travels used to return NaN states, or a NumericalError naming
    # the cubic; the counts and the infinite tolerance used to be accepted;
    # a value that is not a number used to end in numpy's or Python's own
    # ValueError or TypeError; a one-element array and a float16 or float32
    # infinity used to be accepted (the latter with a RuntimeWarning from
    # casting FLOAT_MAX to the value's precision); a one-element tilt,
    # Poisson ratio or ramp factor and a string bistability flag were
    # accepted, and a string or None at a range check ended in a bare
    # TypeError; so did a list, string or complex travel_max, a string
    # latch travel, a None grid density and a string section value, while
    # a NaN, zero or negative latch travel, a complex trigger displacement
    # and a numpy complex modulus were accepted; a ragged section and
    # string element indices ended in numpy's bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            call()


ONE_TRAVEL = {
    "": lambda d: branch_loads(GEOM, d),
    "normalize-": lambda d: normalize_deflection(GEOM, d),
    "sweep-": lambda d: solve_vbeam_sweep(GEOM, MAT, d),
    "assembly-": lambda d: solve_multibeam_assembly(make_config(), d),
    "latch-": lambda d: latch_step(LatchState(LatchPhase.UNSTRESSED, 0.0),
                                   PullRing(d), 8.0),
    "response-": lambda d: grasper_response(make_config(), d),
}
SEVERAL = {"array": np.array([1.0, 2.0]), "list": [1.0, 2.0],
           "one-element-array": np.array([1.0])}


@pytest.mark.parametrize(
    "call, travel",
    [(call, travel) for call in ONE_TRAVEL.values()
     for travel in SEVERAL.values()],
    ids=[entry + kind for entry in ONE_TRAVEL for kind in SEVERAL])
def test_branch_loads_refuses_several_travels(call, travel):
    # every entry point that takes one travel refuses an array-like through
    # errors.check_non_negative; these used to raise numpy's bare
    # ValueError or a TypeError, or return a state holding an array
    with pytest.raises(ValidationError, match="takes one travel"):
        call(travel)


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
    (lambda: travels("delta_y", [1.0, 10 ** 400]), DELTA_Y_RULE),
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
                                  np.float64(2.5), np.int64(3),
                                  np.float16(1.0), np.float32(1.0)],
                         ids=repr)
def test_check_non_negative_accepts_finite_travels(good):
    # the rule hands the travel back as a float, and each one-travel entry
    # point computes with it; they computed with the caller's type, so a
    # float16 ring travel of 1 made solve_multibeam_assembly raise
    # ConvergenceError and latch_step stored a float16
    travel = check_non_negative("travel", good)
    assert type(travel) is float and travel == good
    for call in ONE_TRAVEL.values():
        assert answer(call(good)) == answer(call(travel))


def answer(result):
    """A one-travel entry point's result as bytes: a path's steps in
    common.step_bytes, anything else its repr, which tells a float from a
    numpy scalar."""
    if hasattr(result, "steps"):
        return b"".join(map(step_bytes, result.steps))
    return repr(result).encode()


def test_the_load_kernel_calls_no_input_rule():
    # an input is checked once, where it enters: the kernel's callers pass
    # it checked float travels, so an errors rule called in the kernel
    # checks a value a second time
    rules = {name for name, value in vars(graspsynth.errors).items()
             if inspect.isfunction(value)}
    path = Path(graspsynth.__file__).parent / "beam.py"
    kernel = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name in
              {"_loads", "_kernel_pass", "_force_rows", "_slope_rows"}]
    assert len(kernel) == 4
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for function in kernel for node in ast.walk(function)
              if isinstance(node, ast.Call)}
    assert called & rules == set()


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


def test_the_frame_model_imports_nothing_from_mechanism():
    # fe.model builds beams only: solve_multibeam_assembly condenses a
    # mechanism's beams into one, so the frame-model layer does not depend
    # on the mechanism layer
    path = Path(graspsynth.__file__).parent / "fe" / "model.py"
    imported = set()  # each imported name in full, relative ones resolved
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ["graspsynth", "fe"][:3 - node.level] if node.level else []
            module = package + ([node.module] if node.module else [])
            imported.update(".".join(module + [alias.name])
                            for alias in node.names)
    assert "graspsynth.beam.VBeamGeometry" in imported
    assert {name for name in imported
            if (name + ".").startswith("graspsynth.mechanism.")} == set()


def test_only_the_errors_module_refuses_several_travels():
    # errors.check_non_negative holds the one-travel rule; another module
    # that spells its refusal is growing a local variant of it
    src = Path(graspsynth.__file__).parent
    refusers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "takes one travel" in node.value):
                refusers.add(path.relative_to(src).as_posix())
    assert refusers == {"errors.py"}


def test_only_the_errors_module_names_float_max():
    # errors._finite holds the one float-range rule; another module that
    # names FLOAT_MAX is growing a local comparison with it, which numpy
    # makes at a narrow float's own precision, where FLOAT_MAX is inf
    src = Path(graspsynth.__file__).parent
    namers = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
              if "FLOAT_MAX" in path.read_text(encoding="utf-8")}
    assert namers == {"errors.py"}


@pytest.mark.parametrize("call", [
    lambda: check_positive("x", np.float32(1.0)),
    lambda: check_positive("x", np.float16(1.0)),
    lambda: check_positive("x", np.array(np.float32(1.0))),
    lambda: MaterialModel(np.float32(1800.0)),
    lambda: travels("x", np.array([0.0, 1.0], np.float32)),
    lambda: check_non_negative("x", np.float16(1.0)),
    lambda: uniform_travels(np.float32(2.0), 4),
    lambda: make_config(latch_ramp_factor=np.float32(1.5),
                        jaw_calibration=((np.float32(8.0), 20.52),)),
    lambda: frame(nodes=build_vbeam_mesh(GEOM, 8).nodes.astype(np.float32),
                  section=np.array([1800.0, 6.0, 0.72], np.float32)),
], ids=["positive32", "positive16", "positive32-0d", "material32",
        "travels32", "one-travel16", "uniform-travels32", "mechanism32",
        "frame32"])
def test_finite_narrow_floats_are_accepted_without_warning(call):
    # comparing one with FLOAT_MAX at its own precision warned "overflow
    # encountered in cast", which tier-1 turns into an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


LONG_MAX = np.longdouble(FLOAT_MAX)
NARROW_OR_WIDE = st.one_of(
    *(from_dtype(np.dtype(kind)) for kind in (np.float16, np.float32,
                                              np.float64)),
    # longdoubles past the float range as well as in it
    st.builds(lambda m, e: np.ldexp(np.longdouble(m), e), st.floats(),
              st.integers(-70, 70)))


@given(NARROW_OR_WIDE)
@example(LONG_MAX)
@example(np.nextafter(LONG_MAX, np.longdouble(np.inf)))
@example(np.longdouble("1e400"))
@example(np.float32(np.inf))
@example(np.float16(-np.inf))
@example(np.float16(np.nan))
def test_finite_agrees_with_isfinite_after_an_exact_widening(x):
    # float16, float32 and float64 widen exactly to a Python float; a
    # finite longdouble widens exactly to a Fraction, which must also lie
    # in the float range
    if isinstance(x, np.longdouble) and np.isfinite(x):
        expected = abs(Fraction(*x.as_integer_ratio())) <= FLOAT_MAX
    else:
        expected = math.isfinite(float(x))
    assert _finite(x) == expected
    assert _finite(np.array([x, 0.0], x.dtype)) == expected


@given(st.integers(-10 ** 400, 10 ** 400))
@example(int(FLOAT_MAX))
@example(int(FLOAT_MAX) + 1)
def test_finite_compares_an_int_as_given(i):
    assert _finite(i) == (abs(i) <= FLOAT_MAX)
    assert _finite(np.array([i], dtype=object)) == (abs(i) <= FLOAT_MAX)
