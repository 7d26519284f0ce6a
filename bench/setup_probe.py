"""One cold start: import graspsynth, then generate and parse a workload's inputs.

Prints the CLOCK_MONOTONIC time at which the inputs are ready; the harness
subtracts the time at which it started this process.

    python3 bench/setup_probe.py --workload design --seed 1 --dir DIR
"""

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import graspsynth
    import workloads

    workloads.write_inputs(args.workload, args.seed, Path(args.dir),
                           graspsynth.parse_config)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)


if __name__ == "__main__":
    main()
