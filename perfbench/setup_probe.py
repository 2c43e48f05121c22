"""One cold set-up of a workload, timed in a fresh process.

Prints one JSON line: import, first-call BLAS warm-up, and ``prepare_dataset``
(synthetic generation + standardization) for every config of the workload.
``run.py`` starts this several times and reports the median of ``setup_s``:
the total divided by the slowdown of the reference kernel, which samples
the CPU's speed from the moment numpy is imported (see ``reference.py``).

    python3 perfbench/setup_probe.py --workload wide-fedsvd --seed 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401

from reference import SpeedClock  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    with SpeedClock(period_s=0.01) as clock:
        t_numpy = time.perf_counter() - T0
        t0 = clock.now()
        import vfkt.experiment

        import harness
        t_import = clock.now()
        harness.warm_up()
        t_warm = clock.now()
        for cfg in harness.workload_configs(args.workload, args.seed):
            vfkt.experiment.prepare_dataset(cfg)
        t_prep = clock.now()
    speed = clock.speed(t0, t_prep)
    wall = t_numpy + t_prep - t0
    print(json.dumps({"import_s": t_numpy + t_import - t0, "warmup_s": t_warm - t_import,
                      "prepare_s": t_prep - t_warm, "wall_s": wall, "speed": speed,
                      "samples": len(clock.slices), "setup_s": wall / speed}))


if __name__ == "__main__":
    main()
