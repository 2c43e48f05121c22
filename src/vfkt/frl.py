"""Federated representation learning protocols over the message bus.

Two protocols produce the shared-sample latent matrix held by the task
party:

  * a masked-factorization protocol: a key generator hands each party its
    mask keys, the same row mask A and a party-specific column-mask slice
    B_k; parties upload A H_k B_k; the server factorizes their sum
    A [H_1 ... H_P] B and returns only the left factor, which the task
    party unmasks with A^T. A is block-diagonal, with Haar blocks of at
    most ``MASK_BLOCK`` rows; it is shipped as its blocks and applied block
    by block, so keygen costs O(|I_ol| b^2), the keys carry |I_ol| b
    floats, and no |I_ol| x |I_ol| array is ever formed. An overlap of at
    most ``MASK_BLOCK`` rows gets a single dense Haar block;
  * an eigenvector-aggregation protocol: each party power-iterates its
    local sample-space Gram matrix, applied through its own |I_ol| x f_k
    block and never formed; the server aggregates eigenvector shares
    weighted by their eigenvalues, and the task party projects its own
    table through the aggregate direction.

Pure per-step functions are exposed for testing; ``run_fedsvd`` /
``run_vfedpca`` drive them over the bus, each recipient working on the
payload ``bus.send`` delivers, with their settings read from ``FrlParams``,
the ``frl`` config section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus
from .data import ConfigError, OverlapIndex
from .numerics import Array, haar_blocks, power_iteration, random_orthogonal, svd

# Rows per diagonal block of the FedSVD row mask when no block size is given.
MASK_BLOCK = 256


@dataclass(frozen=True)
class FrlParams:
    method: str = "fedsvd"  # fedsvd | vfedpca
    block_size: int | None = None  # fedsvd row-mask block rows; None -> MASK_BLOCK
    iter_num: int = 100  # vfedpca local iterations in all
    period_num: int = 10  # vfedpca local iterations per round; >= iter_num: one round
    rank: int | None = None  # fedsvd columns kept; None keeps all

    def __post_init__(self):
        if self.method not in ("fedsvd", "vfedpca"):
            raise ConfigError(f"unknown FRL method {self.method!r}")
        if self.iter_num < 1:
            raise ConfigError("iter_num must be >= 1")
        if self.period_num < 1:
            raise ConfigError("period_num must be >= 1")
        for name in ("rank", "block_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be None or >= 1")


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenShare:
    vector: Array  # unit vector, length |I_ol|
    value: float  # >= 0
    flagged: bool = False


@dataclass(frozen=True)
class FederatedRepresentation:
    matrix: Array  # (|I_ol| x r)
    method: str  # "fedsvd" | "vfedpca"
    overlap: OverlapIndex
    flagged: int = 0  # local power iterations that did not settle (vfedpca)

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ProtocolError("federated representation has non-finite entries")
        if self.matrix.shape[0] != self.overlap.size:
            raise ProtocolError("federated representation rows do not match overlap")


# ---------------------------------------------------------------------------
# Masked-factorization protocol steps
# ---------------------------------------------------------------------------

def fedsvd_keygen(overlap_size: int, feature_sizes: list[int], seed,
                  block_size: int | None = None) -> list[tuple[Array, ...]]:
    """Generate each party's mask keys, the tuple that crosses the bus.

    Party k's keys are ``(*a_blocks, b_k)``: the diagonal blocks of the row
    mask A, in row order and of at most ``block_size`` rows (``MASK_BLOCK``
    when None), shared by all parties, then the rows B_k (|X_k| x |X_fed|)
    of the column mask B that match its feature block; stacking all slices
    vertically reconstructs B. B is one dense Haar draw of
    sum(feature_sizes) rows, made after A's blocks from the same generator;
    ``block_size`` shapes A only.
    """
    if overlap_size < 1:
        raise ProtocolError("overlap_size must be >= 1")
    if not feature_sizes or any(f < 1 for f in feature_sizes):
        raise ProtocolError("feature sizes must be positive")
    rng = np.random.default_rng(seed)
    total = sum(feature_sizes)
    a_blocks = tuple(haar_blocks(overlap_size, rng, block_size or MASK_BLOCK))
    b = random_orthogonal(total, rng)
    starts = np.cumsum([0, *feature_sizes])
    return [(*a_blocks, b[start:stop, :]) for start, stop in zip(starts[:-1], starts[1:])]


def _row_blocks(a_blocks: tuple[Array, ...], n: int):
    """(start, stop, block) per diagonal block of A; the blocks must tile n rows."""
    spans, start = [], 0
    for block in a_blocks:
        stop = start + block.shape[0]
        spans.append((start, stop, block))
        start = stop
    if start != n or any(b.shape != (b.shape[0],) * 2 for b in a_blocks):
        raise ProtocolError(
            f"mask dimension mismatch: A blocks {[b.shape for b in a_blocks]} for {n} rows")
    return spans


def fedsvd_mask(h_k: Array, keys: tuple[Array, ...]) -> Array:
    """A @ H_k @ B_k with the party's mask keys ``(*a_blocks, b_k)``, one
    block of A at a time: the only view of party data that ever leaves the
    party."""
    h_k = np.asarray(h_k, dtype=float)
    a_blocks, b_k = keys[:-1], keys[-1]
    if h_k.shape[1] != b_k.shape[0]:
        raise ProtocolError(f"mask dimension mismatch: H {h_k.shape}, B_k {b_k.shape}")
    out = np.empty((h_k.shape[0], b_k.shape[1]))
    for start, stop, block in _row_blocks(a_blocks, h_k.shape[0]):
        out[start:stop] = block @ h_k[start:stop] @ b_k
    return out


def fedsvd_server(masked_parts: list[Array]) -> Array:
    """Factorize the sum of the masked parts, A H B; return only the left factor."""
    if not masked_parts:
        raise ProtocolError("no masked parts")
    shapes = {p.shape for p in masked_parts}
    if len(shapes) != 1:
        raise ProtocolError(f"masked parts disagree on shape: {sorted(shapes)}")
    return svd(sum(masked_parts)).u


def fedsvd_recover(u_hat: Array, keys: tuple[Array, ...]) -> Array:
    """Unmask the left factor with the task party's mask keys: the row mask
    commutes out as A^T, applied one block at a time."""
    out = np.empty(u_hat.shape)
    for start, stop, block in _row_blocks(keys[:-1], u_hat.shape[0]):
        out[start:stop] = block.T @ u_hat[start:stop]
    return out


def _participants(task_id: str, party_matrices: dict[str, Array],
                  overlap: OverlapIndex) -> list[str]:
    """The protocol's party order, once the task party is among the parties
    and every party matrix has one row per overlapping sample."""
    if task_id not in party_matrices:
        raise ProtocolError(f"task party {task_id!r} not among participants")
    if any(m.shape[0] != overlap.size for m in party_matrices.values()):
        raise ProtocolError("party matrices must have one row per overlapping sample")
    return list(party_matrices)


def run_fedsvd(bus: MessageBus, task_id: str, party_matrices: dict[str, Array],
               overlap: OverlapIndex, seed,
               params: FrlParams = FrlParams()) -> FederatedRepresentation:
    """Execute the masked-factorization protocol between parties, key generator, and server.

    ``party_matrices`` maps party id -> its overlap-rows feature block, task
    party first; the parties upload in that order.
    """
    order = _participants(task_id, party_matrices, overlap)
    sizes = [party_matrices[p].shape[1] for p in order]
    n = overlap.size

    keys = [bus.send("keygen", pid, "mask_keys", k)
            for pid, k in zip(order, fedsvd_keygen(n, sizes, seed, params.block_size))]

    # Each party masks locally and uploads; the server sees only masked blocks.
    parts = [bus.send(pid, "server", "masked_part", fedsvd_mask(party_matrices[pid], k))
             for pid, k in zip(order, keys)]
    u_hat = bus.send("server", task_id, "factor_u", fedsvd_server(parts))
    h_fed = fedsvd_recover(u_hat, keys[order.index(task_id)])
    return FederatedRepresentation(matrix=h_fed[:, :params.rank], method="fedsvd", overlap=overlap)


# ---------------------------------------------------------------------------
# Eigenvector-aggregation protocol steps
# ---------------------------------------------------------------------------

def sample_gram(h_k: Array) -> Array:
    """Sample-space Gram matrix (|I_ol| x |I_ol|) scaled by the feature count.

    The aggregation step sums eigenvector shares across parties, so shares
    must live in the shared sample space rather than each party's private
    feature space. This is the dense reference the tests check against;
    ``vfedpca_local`` applies the same matrix without forming it.
    """
    h_k = np.asarray(h_k, dtype=float)
    return (h_k @ h_k.T) / h_k.shape[1]


def vfedpca_local(h_k: Array, iters: int, init: Array) -> EigenShare:
    """Local power iteration on the party's Gram matrix.

    The Gram is applied as H_k (H_k^T x) / f_k, so each product costs
    O(|I_ol| f_k) time and memory instead of O(|I_ol|^2).
    """
    h_k = np.asarray(h_k, dtype=float)
    f = h_k.shape[1]
    if f < 1:
        raise ProtocolError("party holds no features")
    if not np.any(h_k):
        # a zero block has a zero Gram: no direction to find
        x = np.asarray(init, dtype=float)
        return EigenShare(vector=x / np.linalg.norm(x), value=0.0, flagged=True)
    res = power_iteration(lambda x: h_k @ (h_k.T @ x) / f, iters, init)
    return EigenShare(vector=res.vector, value=max(res.value, 0.0), flagged=res.flagged)


def vfedpca_aggregate(shares: list[EigenShare]) -> Array:
    """Eigenvalue-weighted sum of sign-aligned eigenvector shares.

    Weights form a probability vector; the sum is deliberately not
    re-normalized. Each share is flipped to have non-negative inner product
    with the first, otherwise cancellation between equivalent +/- vectors
    would be arbitrary.
    """
    if not shares:
        raise ProtocolError("no eigenvector shares")
    total = sum(s.value for s in shares)
    if total <= 0:
        raise ProtocolError("all eigenvalue shares are zero")
    ref = shares[0].vector
    u = np.zeros_like(ref)
    for s in shares:
        vec = s.vector if float(s.vector @ ref) >= 0 else -s.vector
        u = u + (s.value / total) * vec
    return u


def vfedpca_reconstruct(h_t_ol: Array, u: Array) -> Array:
    """Project the task table through the aggregate direction.

    M = H^T u; the output is H scaled by the normalized outer product
    M M^T / ||M M^T||_F.
    """
    h = np.asarray(h_t_ol, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape[0] != h.shape[0]:
        raise ProtocolError("aggregate vector length must equal the overlap size")
    m = h.T @ u
    mmt = np.outer(m, m)
    nrm = np.linalg.norm(mmt)
    if nrm <= 1e-300:
        raise ProtocolError("aggregate direction orthogonal to the task column space")
    return h @ (mmt / nrm)


def run_vfedpca(bus: MessageBus, task_id: str, party_matrices: dict[str, Array],
                overlap: OverlapIndex, seed,
                params: FrlParams = FrlParams()) -> FederatedRepresentation:
    """Execute the eigenvector-aggregation protocol.

    The ``iter_num`` local iterations run in rounds of ``period_num``; after
    each round parties upload their shares and re-sync their iteration vector
    from the aggregate. With ``period_num >= iter_num`` there is one round,
    and shares are uploaded once. The
    result counts the local runs, over all parties and rounds, that came back
    flagged; the flag stays with its party and is not uploaded.
    """
    order = _participants(task_id, party_matrices, overlap)
    n = overlap.size
    rng = np.random.default_rng(seed)
    init = rng.standard_normal(n)
    init /= np.linalg.norm(init)

    total, period = params.iter_num, params.period_num
    rounds = [min(period, total - d) for d in range(0, total, period)]

    current_init = init
    u = None
    flagged = 0
    for it in rounds:
        shares = []
        for pid in order:
            share = vfedpca_local(party_matrices[pid], it, current_init)
            flagged += share.flagged
            vec, val = bus.send(pid, "server", "eigen_share",
                                (share.vector, np.asarray([share.value])))
            shares.append(EigenShare(vector=vec, value=float(val[0])))
        u = vfedpca_aggregate(shares)
        for pid in order:
            u = bus.send("server", pid, "aggregate_vector", u)
        nrm = np.linalg.norm(u)
        current_init = u / nrm if nrm > 0 else init

    h_fed = vfedpca_reconstruct(party_matrices[task_id], u)
    return FederatedRepresentation(matrix=h_fed, method="vfedpca", overlap=overlap,
                                   flagged=flagged)


def run_frl(bus: MessageBus, params: FrlParams, task_id: str,
            party_matrices: dict[str, Array], overlap: OverlapIndex,
            seed) -> FederatedRepresentation:
    """Run the protocol ``params.method`` names, after a begin marker from the task party."""
    bus.send(task_id, "server", "frl_begin", params.method)
    run = run_fedsvd if params.method == "fedsvd" else run_vfedpca
    return run(bus, task_id, party_matrices, overlap, seed, params)
