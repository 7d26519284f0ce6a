"""Fixtures shared by the test modules.

GEOM is the reference flexure L=40, T=1.2, W=5, theta=7 deg, MAT its
E=1800 MPa material, TABLE2 the jaw calibration (opening, tip force) of
Table 2, make_config the 12-beam mechanism built on them, and
condensed_beam the one beam at N times the modulus that
solve_multibeam_assembly sweeps for a mechanism's N beams.  step_bytes
is the fixed byte layout of a frame-solver PathStep that the oracle path
digests hash, count_force_checks counts the force overflow checks,
count_travel_checks the calls of the travel rule, and cardano_residuals
measures the closed-form root of each cubic the load kernel solves.
"""

import struct
import sys

import numpy as np

import graspsynth.beam
import graspsynth.errors
import graspsynth.search
from graspsynth import (CantileverSection, MaterialModel, MechanismConfig,
                        VBeamGeometry, build_vbeam_mesh)

GEOM = VBeamGeometry.from_degrees(40, 1.2, 5, 7)
MAT = MaterialModel(youngs_modulus_E=1800)
TABLE2 = ((3.2, 7.13), (6.4, 15.99), (8.0, 20.52))


def make_config(**overrides):
    base = dict(
        beam_geometry=GEOM, n_beams=12, material=MAT, latch_travel=8.0,
        jaw_calibration=TABLE2,
        jaw_section=CantileverSection(3.0, 1.5, 45.0),
        series_stiffness_ks=10.0)
    base.update(overrides)
    return MechanismConfig(**base)


def condensed_beam(config):
    return build_vbeam_mesh(
        config.beam_geometry,
        youngs_modulus_E=config.n_beams * config.material.youngs_modulus_E)


def float_bytes(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def step_bytes(step) -> bytes:
    """Every field of a PathStep, in a fixed byte layout."""
    reactions = sorted(step.reactions.items())
    return b"".join([
        float_bytes(step.control, step.reaction, step.residual,
                step.strain_energy),
        struct.pack("<i?", step.iterations, step.stable),
        step.displacements.astype("<f8").tobytes(),
        struct.pack(f"<{2 * len(reactions)}i",
                    *(i for key, _ in reactions for i in key)),
        float_bytes(*(value for _, value in reactions)),
    ])


def count_force_checks(monkeypatch):
    """A list that gains one entry per _force call, each one overflow check
    of its forces: beam._force and search's binding of it."""
    checks, force = [], graspsynth.beam._force

    def counted(*args):
        checks.append(1)
        return force(*args)

    for module in (graspsynth.beam, graspsynth.search):
        monkeypatch.setattr(module, "_force", counted)
    return checks


def count_travel_checks(monkeypatch):
    """A list that gains one entry per errors.travels call, through every
    binding of it in the package, check_non_negative's included."""
    checks, rule = [], graspsynth.errors.travels

    def counted(*args):
        checks.append(1)
        return rule(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "graspsynth"
                and getattr(module, "travels", None) is rule):
            monkeypatch.setattr(module, "travels", counted)
    return checks


def cardano_residuals(monkeypatch):
    """A list that gains, per block of cubics the load kernel solves, the
    largest residual of their closed-form Cardano roots over the kernel's
    bound 1e-9 max(1, |k4|): the closed form meets the bound where every
    entry is below 1 (a NaN root gives NaN)."""
    beam = graspsynth.beam
    ratios, monostable_root = [], beam._monostable_root

    def measured(ks):
        k1, k2, k3, k4 = ks
        p = beam._cardano_root(*ks)[0]
        residual = np.abs(((k1 * p + k2) * p + k3) * p + k4)
        ratios.append(np.max(residual / (1e-9 * np.maximum(1.0, np.abs(k4))),
                             initial=0.0))
        return monostable_root(ks)

    monkeypatch.setattr(beam, "_monostable_root", measured)
    return ratios
