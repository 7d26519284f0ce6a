"""Quantitative comparison of two force-displacement curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..beam import ForceDisplacementCurve
from ..errors import ValidationError


@dataclass(frozen=True)
class CurveComparison:
    """Difference metrics between a reference curve and a candidate.

    rms_rel is the L2 norm of the pointwise difference relative to the L2
    norm of the reference (so a uniform 10 percent force scaling reads as
    0.1); max_rel normalizes the worst pointwise difference by the reference
    peak force; peak_force_rel_diff is the signed relative peak difference
    and peak_location_diff the travel offset between the peaks [mm].
    """

    rms_rel: float
    max_rel: float
    peak_force_rel_diff: float
    peak_location_diff: float


def compare_curves(a: ForceDisplacementCurve,
                   b: ForceDisplacementCurve) -> CurveComparison:
    """Compare curve b against reference a on a's grid.

    b is linearly resampled onto the samples of a that fall inside the
    overlap of the two travel domains; disjoint domains, an overlap that
    holds no sample of a, and a reference whose force norm over the
    overlap is 0 or underflows to 0, against which no difference is
    relative, are an error.
    """
    lo = max(float(a.delta_y[0]), float(b.delta_y[0]))
    hi = min(float(a.delta_y[-1]), float(b.delta_y[-1]))
    mask = (a.delta_y >= lo) & (a.delta_y <= hi)
    if not mask.any():
        raise ValidationError(
            "curves have disjoint travel domains, or no sample of the "
            "reference lies in their overlap")
    dy = a.delta_y[mask]
    fa = a.force[mask]
    fb = np.interp(dy, b.delta_y, b.force)

    diff = fa - fb
    norm_a = float(np.sqrt(np.mean(fa ** 2)))
    if norm_a == 0.0:
        raise ValidationError("the reference's force norm over the overlap "
                              "is 0 or underflows: no difference is "
                              "relative to it")
    peak_a = float(np.max(fa))
    if peak_a <= 0.0:
        peak_a = float(np.max(np.abs(fa)))

    ia = int(np.argmax(fa))
    ib = int(np.argmax(fb))
    return CurveComparison(
        rms_rel=float(np.sqrt(np.mean(diff ** 2))) / norm_a,
        max_rel=float(np.max(np.abs(diff))) / peak_a,
        peak_force_rel_diff=(float(np.max(fb)) - float(np.max(fa))) / peak_a,
        peak_location_diff=abs(float(dy[ia]) - float(dy[ib])),
    )
