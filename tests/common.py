"""Fixtures shared by the test modules.

GEOM is the reference flexure L=40, T=1.2, W=5, theta=7 deg, MAT its
E=1800 MPa material, TABLE2 the jaw calibration (opening, tip force) of
Table 2, and make_config the 12-beam mechanism built on them.
"""

from graspsynth import (CantileverSection, MaterialModel, MechanismConfig,
                        VBeamGeometry)

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
