"""Span tracing of the vfkt layers, installed from outside the package.

``Tracer.install`` wraps every public function and every public plain method
of a public class in the layer modules. Because the package binds names with
``from .x import y``, a wrapper is written into every loaded ``vfkt`` module
that holds the original object (``vfkt.frl.svd`` as well as
``vfkt.numerics.svd``), so the caller's own lookup finds it. Spans are kept
in memory as ``{name, start, end, parent, run}`` records and written out by
``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from pathlib import Path

LAYERS = ("data", "synthetic", "bus", "frl", "numerics", "lkt", "downstream", "experiment")
# Private helpers traced as well, because they carry a share of their layer
# that later work targets: the MINE critic ascent inside ``lkt_train``.
PRIVATE = {"lkt": ("_mine_ascent",)}


def _payload_elems(payload) -> int:
    """Number of float64 elements a bus payload carries (0 for non-arrays)."""
    if hasattr(payload, "size") and hasattr(payload, "shape"):
        return int(payload.size)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_elems(p) for p in payload)
    return 0


# Counts recorded at a layer boundary, from the call's arguments and result.
_ANNOTATE = {
    "numerics.svd": lambda args, res: {"elems": int(args[0].size)},
    "numerics.power_iteration": lambda args, res: {"flagged": bool(res.flagged)},
    "bus.MessageBus.send": lambda args, res: {"kind": args[3], "elems": _payload_elems(args[4])},
}


class Tracer:
    """In-memory span recorder. Only one tracer may be installed at a time."""

    def __init__(self, clock):
        self.clock = clock  # a function giving span start and end times (s)
        self.spans: list[dict] = []
        self.run = None  # identifier stamped on every span (one user sequence)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "run": self.run}
            spans.append(span)
            stack.append(idx)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if annotate is not None:
                span.update(annotate(args, result))
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name) for every public function/method."""
        for layer in LAYERS:
            mod = importlib.import_module(f"vfkt.{layer}")
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or (
                        attr.startswith("_") and attr not in PRIVATE.get(layer, ())):
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield obj, meth, f"{layer}.{attr}.{meth}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package_modules = [m for n, m in sys.modules.items()
                           if (n == "vfkt" or n.startswith("vfkt.")) and m is not None]
        for owner, attr, name in list(self._targets()):
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            holders = [(owner, attr)]
            if inspect.ismodule(owner):
                holders += [(m, a) for m in package_modules if m is not owner
                            for a, v in vars(m).items() if v is original]
            for holder, a in holders:
                self._patches.append((holder, a, original))
                setattr(holder, a, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def write_spans(path: Path, spans: list[dict]) -> None:
    """One JSON object per line, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, **s}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if pred(spans[p]):
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(spans: list[dict], run) -> dict[str, float]:
    """Per-layer times (s) and counts for the spans of one run."""
    idx = [i for i, s in enumerate(spans) if s["run"] == run]
    selft = self_times(spans)
    dur = {i: spans[i]["end"] - spans[i]["start"] for i in idx}

    def named(name):
        return [i for i in idx if spans[i]["name"] == name]

    def total(name):
        return sum(dur[i] for i in named(name))

    def under(name, ancestor):
        return [i for i in named(name)
                if _has_ancestor(spans, i, lambda s: s["name"] == ancestor)]

    adam = [i for i in idx if spans[i]["name"] == "numerics.DenseNet.adam_step"
            or (spans[i]["name"] == "numerics.AdamState.update"
                and not _has_ancestor(spans, i, lambda s: s["name"] == "numerics.DenseNet.adam_step"))]
    sends = named("bus.MessageBus.send")

    def bus_bytes(kind=None):
        return 8 * sum(spans[i]["elems"] for i in sends if kind is None or spans[i]["kind"] == kind)

    run_exp = named("experiment.run_experiment")
    m = {
        "frl.server_s": total("frl.fedsvd_server"),
        "frl.keygen_s": total("frl.fedsvd_keygen"),
        "frl.mask_s": total("frl.fedsvd_mask"),
        "frl.recover_s": total("frl.fedsvd_recover"),
        "frl.vfedpca_local_s": total("frl.vfedpca_local"),
        "frl.vfedpca_local_calls": len(named("frl.vfedpca_local")),
        "frl.aggregate_s": total("frl.vfedpca_aggregate"),
        "frl.reconstruct_s": total("frl.vfedpca_reconstruct"),
        "numerics.svd_s": total("numerics.svd"),
        "numerics.svd_calls": len(named("numerics.svd")),
        "numerics.svd_elems": sum(spans[i]["elems"] for i in named("numerics.svd")),
        "numerics.random_orthogonal_s": total("numerics.random_orthogonal"),
        "numerics.power_iteration_s": total("numerics.power_iteration"),
        "numerics.power_iteration_flagged": sum(spans[i]["flagged"] for i in named("numerics.power_iteration")),
        "numerics.adam_s": sum(dur[i] for i in adam),
        "numerics.adam_steps": len(adam),
        "numerics.dense_forward_calls": len(named("numerics.DenseNet.forward")),
        "numerics.dense_backward_calls": len(named("numerics.DenseNet.backward")),
        "lkt.train_s": total("lkt.lkt_train"),
        "lkt.train_self_s": sum(selft[i] for i in named("lkt.lkt_train")),
        "lkt.steps": len(under("lkt.loss_and_grads", "lkt.lkt_train")),
        "lkt.critic_s": total("lkt._mine_ascent"),
        "lkt.loss_and_grads_s": total("lkt.loss_and_grads"),
        "lkt.finetune_s": total("lkt.lkt_finetune_contrastive"),
        "lkt.augment_s": total("lkt.augment"),
        "lkt.save_models_s": total("lkt.save_models"),
        "lkt.load_models_s": total("lkt.load_models"),
        "lkt.apply_s": total("lkt.apply_to_new_samples"),
        "experiment.update_s": total("experiment.add_data_hospital"),
        "experiment.update_frl_calls": len(under("frl.run_frl", "experiment.add_data_hospital")),
        "experiment.pipeline_s": total("experiment.run_pipeline_once"),
        "experiment.write_s": sum(
            dur[i] - sum(dur[j] for j in named("experiment.run_condition") if spans[j]["parent"] == i)
            for i in run_exp),
        "data.psi_s": total("data.psi_intersect"),
        "data.psi_calls": len(named("data.psi_intersect")),
        "data.split_s": total("data.split_partitions"),
        "data.standardize_s": total("data.standardize"),
        "synthetic.generate_s": total("synthetic.generate_synthetic"),
        "downstream.train_s": total("downstream.train_classifier"),
        "downstream.eval_s": total("downstream.evaluate"),
        "downstream.split_s": total("downstream.stratified_split"),
        "bus.send_s": sum(dur[i] for i in sends),
        "bus.messages": len(sends),
        "bus.bytes": bus_bytes(),
    }
    for kind in ("mask_keys", "masked_part", "factor_u", "eigen_share", "aggregate_vector"):
        m[f"bus.bytes.{kind}"] = bus_bytes(kind)
    # Bit mask of the layers among each span's ancestors; parents are
    # recorded before their children, so one forward pass fills it.
    layer_of = [LAYERS.index(s["name"].split(".", 1)[0]) for s in spans]
    above = [0] * len(spans)
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is not None:
            above[i] = above[p] | (1 << layer_of[p])
    for k, layer in enumerate(LAYERS):
        own = [i for i in idx if layer_of[i] == k]
        m[f"{layer}.time_s"] = sum(dur[i] for i in own if not above[i] >> k & 1)
        m[f"{layer}.self_s"] = sum(selft[i] for i in own)
        m[f"{layer}.calls"] = len(own)
    m["trace.root_s"] = sum(dur[i] for i in idx if spans[i]["parent"] is None)
    return m
