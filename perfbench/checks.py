"""Correctness checks applied to every repetition of a workload.

Each check adds one to ``attempted`` and, when it does not hold, one to
``failed``; a failing check is reported, never retried or relaxed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("report_*.json", "trace.jsonl", "config.json", "models.json")
SERVER_KINDS = frozenset({"frl_begin", "masked_part", "eigen_share"})


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every byte-identical artifact below ``out_dir``, by relative path."""
    files = sorted({p for pattern in ARTIFACTS for p in out_dir.rglob(pattern)})
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def check_identical(checks: Checks, reference: dict[str, str], digests: dict[str, str]) -> None:
    checks.check("artifact set differs from the first repetition",
                 sorted(reference) == sorted(digests))
    for name, digest in reference.items():
        checks.check(f"{name} differs from the first repetition", digests.get(name) == digest)


def check_reports(checks: Checks, cfg_dir: Path, conditions) -> dict[str, list[float]]:
    """Accuracies of each condition's report, checked finite and in [0, 1]."""
    out = {}
    for c in conditions:
        accs = json.loads((cfg_dir / f"report_{c}.json").read_text())["accuracies"]
        checks.check(f"{cfg_dir.name}/report_{c}.json: accuracy not finite or outside [0, 1]",
                     len(accs) > 0 and all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accs))
        out[c] = accs
    return out


def read_trace(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_privacy(checks: Checks, name: str, records: list[dict], task_id: str) -> None:
    """The server sees only begin/masked/eigen messages; only the task party gets factor_u."""
    to_server = {r["kind"] for r in records if r["to"] == "server"}
    checks.check(f"{name}: server received {sorted(to_server - SERVER_KINDS)}",
                 to_server <= SERVER_KINDS)
    checks.check(f"{name}: factor_u sent to a party other than {task_id!r}",
                 all(r["to"] == task_id for r in records if r["kind"] == "factor_u"))


def check_augmented_width(checks: Checks, name: str, width: int, raw_width: int, models) -> None:
    checks.check(f"{name}: augmented width {width} != raw {raw_width} + latent widths",
                 width == raw_width + sum(m.latent_dim for m in models))


def record_elems(shape) -> int:
    """float64 elements a trace record's shape describes (0 for non-array payloads)."""
    if shape is None:
        return 0
    if shape and isinstance(shape[0], list):
        return sum(record_elems(s) for s in shape)
    return int(np.prod(shape))


def check_fedsvd_span(checks: Checks, rep_matrix: np.ndarray, raw: np.ndarray) -> None:
    """The federated factor spans the column space of the raw joint table.

    Both bases are orthonormal with the same number of columns, so each
    must be reproduced by projecting onto the other.
    """
    u_ref = np.linalg.svd(raw, full_matrices=False)[0][:, :rep_matrix.shape[1]]
    err = max(float(np.linalg.norm(rep_matrix - u_ref @ (u_ref.T @ rep_matrix))),
              float(np.linalg.norm(u_ref - rep_matrix @ (rep_matrix.T @ u_ref))))
    checks.check(f"fedsvd column space differs from np.linalg.svd by {err:.2e}", err < 1e-8)
