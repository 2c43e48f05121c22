"""Tests of the benchmark itself, on a tiny workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import vfkt.experiment  # noqa: E402
import vfkt.frl  # noqa: E402
import vfkt.numerics  # noqa: E402

import harness  # noqa: E402
from checks import Checks, artifact_digests, check_identical, check_privacy, check_reports  # noqa: E402
from reference import REFERENCE_S, SpeedClock  # noqa: E402
from tracing import self_times  # noqa: E402
from vfkt.experiment import DownstreamParams, ExperimentConfig  # noqa: E402
from vfkt.lkt import LktConfig  # noqa: E402
from vfkt.synthetic import SyntheticSpec  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_workload(seed: int = 0) -> harness.Workload:
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(task_features=4, n_task_samples=60, overlap_count=20,
                                latent_dim=3, label_coords=2, data_features=(3, 3), seed=seed),
        lkt=LktConfig(latent_dim=2, hidden_width=4, mine_hidden=(4, 4), epochs=2,
                      batch_size=20, finetune_epochs=1),
        downstream=DownstreamParams(n_seeds=2, epochs=5),
        conditions=("local", "unitrans"), seed=seed)
    return harness.make_workload([cfg], new_features=3, new_rows=5)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return harness.measure(tiny_workload(), 0.0, False, tmp_path_factory.mktemp("u"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return harness.measure(tiny_workload(), 0.0, True, tmp_path_factory.mktemp("t"))


def test_every_benchmark_metric_is_emitted_with_its_unit(untraced, traced):
    setup_runs = [{"setup_s": 0.2}, {"setup_s": 0.3}]
    for result, trace, key in ((untraced, False, "end_to_end"), (traced, True, "per_layer")):
        emitted = harness.reported_metrics(result, trace, setup_runs)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {n: u for n, (_, u) in emitted.items()} == declared
        assert all(isinstance(v, (int, float)) for v, _ in emitted.values())
    assert untraced.checks.failures == [] and traced.checks.failures == []


def test_spans_nest_inside_their_parent_and_self_time_is_not_negative(traced):
    spans = traced.spans
    assert spans
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["run"] == s["run"]
    assert min(self_times(spans)) >= -1e-9


def test_tracer_restores_the_package_after_a_traced_run(traced):
    assert vfkt.frl.svd is vfkt.numerics.svd
    assert vfkt.numerics.svd.__module__ == "vfkt.numerics"
    assert not hasattr(vfkt.numerics.svd, "__wrapped__")
    assert not hasattr(vfkt.experiment.run_experiment, "__wrapped__")


@pytest.fixture
def artifacts(tmp_path):
    w = tiny_workload()
    harness.run_sequence(w, tmp_path)
    return tmp_path


def test_corrupted_artifact_is_counted_as_a_failure(artifacts):
    checks = Checks()
    reference = artifact_digests(artifacts)
    report = artifacts / "cfg0" / "report_unitrans.json"
    report.write_bytes(report.read_bytes().replace(b'"condition"', b'"condition" '))
    check_identical(checks, reference, artifact_digests(artifacts))
    assert checks.failed == 1

    doc = json.loads(report.read_text())
    doc["accuracies"][0] = 1.5
    report.write_text(json.dumps(doc))
    check_reports(checks, artifacts / "cfg0", ["local", "unitrans"])
    assert checks.failed == 2


@pytest.mark.parametrize("field, value", [("to", "data-0"), ("kind", "mask_keys")])
def test_corrupted_trace_record_is_counted_as_a_failure(artifacts, field, value):
    records = [json.loads(line) for line in (artifacts / "cfg0" / "trace.jsonl").open()]
    clean = Checks()
    check_privacy(clean, "trace", records, "task")
    assert clean.failed == 0

    # route the server's factor to a data party, or show the server a mask key
    target = next(r for r in records if r["kind"] == ("factor_u" if field == "to" else "masked_part"))
    target[field] = value
    dirty = Checks()
    check_privacy(dirty, "trace", records, "task")
    assert dirty.failed == 1


def test_same_seed_gives_identical_accuracy_and_protocol_counts(untraced, tmp_path):
    again = harness.measure(tiny_workload(), 0.0, False, tmp_path)
    assert again.accuracies == untraced.accuracies
    for name in ("acc_transfer", "acc_local", "lift",
                 "protocol_bytes_per_seed", "protocol_messages_per_seed"):
        assert again.metrics[name] == untraced.metrics[name]


def test_speed_clock_leaves_out_its_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock(period_s=0.005) as clock:
        t0, w0 = clock.now(), time.perf_counter()
        while time.perf_counter() - w0 < 0.3:
            pass
        t1, w1 = clock.now(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.slices) >= 5
    assert clock.stamps == sorted(clock.stamps)
    assert t1 - t0 == pytest.approx(w1 - w0 - clock.paused, abs=1e-6)
    expected = sum(clock.slices) / len(clock.slices) / REFERENCE_S
    assert clock.speed(t0, t1) == pytest.approx(expected)
    assert clock.speed(t1 + 1.0, t1 + 2.0) == clock.slices[-1] / REFERENCE_S


def test_run_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-fedsvd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
