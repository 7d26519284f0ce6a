"""Cross-check the closed-form beam model against the nonlinear frame solver.

The frame solver is an independent oracle: corotational planar beam elements
under displacement control.  The comparison below shows that the closed-form
force matches the frame solution for one beam almost exactly, which means the
device-level halving convention (single beam carries half the closed-form
value) disagrees with the frame solver by a factor of two.  See the README
for the discussion.

Run from the repository root:

    python demos/03_fe_cross_check.py
"""

from dataclasses import replace

from graspsynth import (CantileverSection, MaterialModel, MechanismConfig,
                        VBeamGeometry, aggregate_ring_force, compare_curves,
                        force_curve, peak_force, solve_multibeam_assembly,
                        solve_vbeam_sweep, sweep_to_curve)

geom = VBeamGeometry.from_degrees(40, 1.2, 5, 7)
mat = MaterialModel(youngs_modulus_E=1800)

print("== frame solver sweep of one beam to 5 mm ==")
path = solve_vbeam_sweep(geom, mat, travel_max=5.0, n_steps=100, n_elements=16)
fe_curve = sweep_to_curve(path, geom, mat)
dy_pk, f_pk = peak_force(fe_curve)
print(f"peak {f_pk:.4f} N at {dy_pk:.2f} mm; "
      f"max Newton iterations {max(s.iterations for s in path.steps)}")
print(f"axial load ratio at 5 mm: p_o = {fe_curve.p_o[-1]:.4f} "
      f"(closed-form branch constant: -9.8837)")

print("\n== closed-form vs frame solver ==")
tebc = force_curve(geom, mat, travel_max=5.0, n_samples=100)
halved = aggregate_ring_force(tebc, 1)
print("halved single-beam convention:", compare_curves(halved, fe_curve))
print("unhalved closed-form force:  ", compare_curves(tebc, fe_curve))

print("\n== multibeam assembly: beam count vs shuttle displacement ==")
config = MechanismConfig(
    beam_geometry=geom, n_beams=12, material=mat, latch_travel=8.0,
    jaw_calibration=((3.2, 7.13), (6.4, 15.99), (8.0, 20.52)),
    jaw_section=CantileverSection(3.0, 1.5, 45.0), series_stiffness_ks=10.0)
for n in (10, 12):
    shuttle, ring_force = solve_multibeam_assembly(
        replace(config, n_beams=n), ring_disp=1.5)
    print(f"n = {n}: ring pulled 1.5 mm -> shuttle moves {shuttle:.4f} mm, "
          f"ring force {ring_force:.3f} N")
