"""Command-line entry points: run, sweep, report, gen-synthetic.

Failures exit non-zero with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import ConfigError, from_dict, write_csv
from .downstream import RunReport
from .experiment import SWEEP_AXES, ExperimentConfig, render_reports, run_experiment, sweep
from .synthetic import SyntheticSpec, generate_synthetic


def _fail(code: int, message: str, **extra) -> int:
    sys.stderr.write(json.dumps({"error": message, **extra}, sort_keys=True) + "\n")
    return code


def _read(path: str, cls, what: str):
    """The ``cls`` that the JSON file at ``path`` holds."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    return from_dict(cls, json.loads(p.read_text()))


def cmd_run(args) -> int:
    cfg = _read(args.config, ExperimentConfig, "config")
    reports = run_experiment(cfg, out_dir=args.out)
    for r in reports:
        print(f"{r.condition}: mean={r.mean:.4f} std={r.std:.4f} ({len(r.seeds)} seeds)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _read(args.config, ExperimentConfig, "config")
    values = [int(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("no sweep values given")
    reports, timings = sweep(cfg, args.axis, values, out_dir=args.out)
    print(render_reports(reports, "md"))
    for t in timings:
        print(f"{t['axis']}={t['value']}: {t['wall_clock_s']:.2f}s")
    return 0


def cmd_report(args) -> int:
    in_dir = Path(args.indir)
    if not in_dir.exists():
        raise FileNotFoundError(f"input directory not found: {in_dir}")
    paths = sorted(in_dir.rglob("report_*.json"))
    if not paths:
        raise FileNotFoundError(f"no report_*.json files under {in_dir}")
    reports = []
    for p in paths:
        try:
            reports.append(RunReport.from_json(p.read_text()))
        except ValueError as exc:  # malformed JSON too
            raise ConfigError(f"{p}: {exc}") from None
    print(render_reports(reports, args.format))
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = _read(args.spec, SyntheticSpec, "spec")
    task, data_parties = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "task.csv", task.features, task.labels)
    for p in data_parties:
        write_csv(out / f"{p.party_id}.csv", p.features)
    print(f"wrote task.csv and {len(data_parties)} data-party tables to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfkt",
        description="Vertical federated knowledge-transfer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory for reports/trace")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="render persisted reports as a table")
    p_rep.add_argument("--in", dest="indir", required=True)
    p_rep.add_argument("--format", default="md", choices=["md", "csv", "json"])
    p_rep.set_defaults(func=cmd_report)

    p_gen = sub.add_parser("gen-synthetic", help="materialize a synthetic dataset as CSV")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; mirror a JSON error for tooling
        if exc.code not in (0, None):
            return _fail(2, "invalid arguments")
        return 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(2, str(exc))
    except Exception as exc:
        return _fail(1, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
