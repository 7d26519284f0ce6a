"""Peak memory and time of the frame oracle's largest Newton solve.

    PYTHONPATH=src python3 tests/oracle_rss.py

Builds the table1 V-beam mesh (tests/common.py GEOM, MAT) at
fe.model.ELEMENT_CAP elements and runs one fe.solver._newton call of two
iterations (MAX_ITERS lowered to 2) towards a 1 mm drive.  It prints the
process's peak resident set size before and after, from
resource.getrusage, and the wall time of the call.  Run it in a process of
its own: the peak is the largest the process has reached.  The script
writes no file and is not a pytest module.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

sys.dont_write_bytecode = True

from common import GEOM, MAT  # noqa: E402
from graspsynth import build_vbeam_mesh  # noqa: E402
from graspsynth.fe import solver  # noqa: E402
from graspsynth.fe.model import ELEMENT_CAP  # noqa: E402


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (Linux: kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    model = build_vbeam_mesh(GEOM, ELEMENT_CAP,
                             youngs_modulus_E=MAT.youngs_modulus_E)
    system = solver._System(model)
    before = peak_rss_mb()
    solver.MAX_ITERS = 2
    start = time.perf_counter()
    solver._newton(system, np.zeros(3 * model.n_nodes), 1.0, 1e-300)
    seconds = time.perf_counter() - start
    print(f"{ELEMENT_CAP} elements, {system.unknowns.size} unknowns: peak "
          f"RSS {before:.0f} MB before and {peak_rss_mb():.0f} MB after a "
          f"two-iteration _newton, which took {seconds:.2f} s")


if __name__ == "__main__":
    main()
