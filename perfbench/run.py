"""vfkt benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload wide-fedsvd --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; it imports ``src/vfkt`` directly.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable report. Full results, and with ``--trace 1`` the spans,
are written under ``.perfbench/`` in the current directory.
"""

import os

# One BLAS thread per process, fixed before numpy is first imported.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "pins": THREAD_PINS}


def setup_times(workload: str, seed: int) -> list[dict]:
    """Cold set-up in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "vfkt" / "__init__.py").is_file():
        _die(f"no vfkt sources at {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import vfkt
    if Path(vfkt.__file__).resolve().parent != (SRC / "vfkt").resolve():
        _die(f"imported vfkt from {vfkt.__file__}, not from {SRC}")
    import harness
    from tracing import write_spans

    if args.workload not in harness.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    harness.warm_up()
    setups = setup_times(args.workload, args.seed) if not args.trace else []
    w = harness.build_workload(args.workload, args.seed)
    root = Path.cwd() / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / "work" / f"{tag}-{os.getpid()}"
    try:
        result = harness.measure(w, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = result.checks
    metrics = harness.reported_metrics(result, bool(args.trace), setups)

    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{', '.join(f'{k}={v}' for k, v in env.items())}")
    for name, (value, unit) in metrics.items():
        s = result.samples.get(name)
        extra = ""
        if s:
            extra = "  " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in s.items() if k != "values")
        print(f"{name:36s} {value:14.6g} {unit:6s}{extra}")
    for name in ("wall_run_s", "speed"):
        print(f"# {name}: " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                          for k, v in result.samples[name].items() if k != "values"))
    print(f"{'failed_ratio':36s} {checks.failed / checks.attempted:14.6g} ratio  "
          f"failed={checks.failed} attempted={checks.attempted}")
    for c, accs in result.accuracies.items():
        print(f"# accuracy {c}: mean {statistics.fmean(accs):.6f} over {len(accs)} seeds")
    for f in sorted(set(checks.failures)):
        print(f"# FAILED CHECK: {f}")

    (root / "results").mkdir(parents=True, exist_ok=True)
    (root / "results" / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "samples": result.samples, "setup_runs": setups, "accuracies": result.accuracies,
        "attempted": checks.attempted, "failures": checks.failures}, indent=2))
    if args.trace:
        write_spans(root / "spans" / f"{tag}.jsonl.gz", result.spans)

    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
