"""Local knowledge transfer: autoencoder + cross-attention + MI critic.

Per data-hospital pair, an encoder/decoder is trained so that (a) the
autoencoder reconstructs its source rows and (b) the mutual information
between the encoding of local non-overlap rows and their attention readout
over the federated representation is maximized, estimated by a critic
network trained adversarially (Donsker-Varadhan lower bound). Across
pairs, encoders are contrastively fine-tuned to reduce redundancy, and the
final augmentation concatenates raw features with every encoder's output.

All gradients are hand-derived; ``loss_and_grads`` is checked against
finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ConfigError, FeatureMatrix
from .frl import FederatedRepresentation
from .numerics import ACTIVATIONS, AdamState, Array, DenseNet, _buf, logmeanexp, softmax_rows

CHECKPOINT_VERSION = 2


class LktDivergenceError(RuntimeError):
    def __init__(self, seed, epoch):
        super().__init__(f"training diverged (loss not finite) at epoch {epoch}, seed {seed}")
        self.seed = seed
        self.epoch = epoch


@dataclass(frozen=True)
class LktConfig:
    latent_dim: int | None = None  # None -> width of the non-overlap table
    mi_weight: float = 0.1  # single-weight mode: loss = recons - mi_weight * mi
    beta_recons: float | None = None  # optional per-term weights; both must be set
    beta_mi: float | None = None
    temperature: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 100
    epochs: int = 30
    finetune_epochs: int = 5
    finetune_lr: float = 1e-4
    reconstruction_source: str = "auto"  # auto | overlap | local
    hidden_width: int | None = None
    mine_hidden: tuple[int, int] = (64, 64)
    mine_activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "mine_hidden", tuple(self.mine_hidden))
        if (self.beta_recons is None) != (self.beta_mi is None):
            raise ConfigError("beta_recons and beta_mi must be set together")
        if self.reconstruction_source not in ("auto", "overlap", "local"):
            raise ConfigError(f"unknown reconstruction_source {self.reconstruction_source!r}")
        if self.mine_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown mine_activation {self.mine_activation!r}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.finetune_epochs < 0:
            raise ConfigError("finetune_epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.finetune_lr <= 0:
            raise ConfigError("finetune_lr must be > 0")
        if self.latent_dim is not None and self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.hidden_width is not None and self.hidden_width < 1:
            raise ConfigError("hidden_width must be >= 1")
        if any(w < 1 for w in self.mine_hidden):
            raise ConfigError("mine_hidden widths must be >= 1")

    def loss_weights(self) -> tuple[float, float]:
        if self.beta_recons is not None:
            return float(self.beta_recons), float(self.beta_mi)
        return 1.0, float(self.mi_weight)


@dataclass
class LktModel:
    enc: DenseNet
    dec: DenseNet
    phi: Array  # (|X_fed| x d)
    mine: DenseNet
    temperature: float
    weights: tuple[float, float]  # (recons weight, mi weight)
    provenance: str
    nl_columns: tuple[str, ...]
    recon_columns: tuple[str, ...]
    phi_adam: AdamState | None = None  # set by build_model; a loaded model has none
    history: dict = field(default_factory=dict)
    # Attention keys std(h_fed) @ phi (|overlap| x d), set when lkt_train
    # ends: all of the federated representation that fine-tuning reads.
    keys: Array | None = None

    def __post_init__(self):
        if self.phi.shape[1] != self.latent_dim:
            raise ValueError("phi column count must equal the encoder output width")

    @property
    def latent_dim(self) -> int:
        return self.enc.output_dim

    def copy(self) -> "LktModel":
        return LktModel(
            enc=self.enc.copy(), dec=self.dec.copy(), phi=self.phi.copy(),
            mine=self.mine.copy(), temperature=self.temperature, weights=self.weights,
            provenance=self.provenance, nl_columns=self.nl_columns,
            recon_columns=self.recon_columns,
            phi_adam=None if self.phi_adam is None else self.phi_adam.copy(),
            history=dict(self.history),
            keys=None if self.keys is None else self.keys.copy(),
        )


@dataclass(frozen=True)
class AugmentedFeatures:
    matrix: FeatureMatrix  # column blocks: [raw | enc_1 | ... | enc_n]
    provenance: tuple[str, ...]


# ---------------------------------------------------------------------------
# Attention and MI estimation
# ---------------------------------------------------------------------------

def _column_standardize(m: Array) -> Array:
    """Zero-mean, unit-variance columns; constant columns are left at zero."""
    m = np.asarray(m, dtype=float)
    mu = m.mean(axis=0)
    sd = m.std(axis=0, ddof=1)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (m - mu) / sd


def _attention_forward(query: Array, h_fed: Array, phi: Array, ws: dict | None = None):
    if query.shape[1] != phi.shape[1] or h_fed.shape[1] != phi.shape[0]:
        raise ValueError(
            f"attention dimension mismatch: query {query.shape}, "
            f"h_fed {h_fed.shape}, phi {phi.shape}")
    return _attend(query, h_fed @ phi, ws)


def _attend(query: Array, keys: Array, ws: dict | None = None):
    """Softmax readout of ``keys`` (m x d), which double as values.

    The rows of ``E = exp(S - rowmax(S))``, ``S = (query / sqrt(d)) @ keys.T``,
    are left unnormalized: each row's ``1 / sum(E)`` scales the n x d readout
    instead, so the n x m array takes no scale or divide pass. It is the one
    n x m array made here; with ``ws`` (see
    ``DenseNet.forward``) it is the buffer ``ws["attn"]``, so the returned
    cache is overwritten by the next call with the same ``ws``.
    """
    q = query / np.sqrt(keys.shape[1])
    e = np.matmul(q, keys.T, out=_buf(ws, "attn", (q.shape[0], keys.shape[0])))
    e -= np.max(e, axis=1, keepdims=True)
    np.exp(e, out=e)
    inv = 1.0 / np.sum(e, axis=1, keepdims=True)
    z = e @ keys
    z *= inv
    return z, (q, keys, e, inv, z)


def _attention_backward(cache, dz: Array, h_fed: Array, ws: dict | None = None):
    """Gradients of the readout with respect to the query and ``phi``.

    With ``P = E * inv``, the softmax term ``sum_j dP_ij P_ij`` equals
    ``dz_i . z_i``, so it is taken on the n x d side; the score gradient
    ``P * (dz @ keys.T - s)`` is formed as ``E * ((dz * inv) @ keys.T - s * inv)``.
    """
    q, keys, e, inv, z = cache
    s_inv = np.sum(dz * z, axis=1, keepdims=True) * inv
    dz_inv = dz * inv
    d_scores = np.matmul(dz_inv, keys.T, out=_buf(ws, "d_attn", e.shape))
    d_scores -= s_inv
    d_scores *= e
    d_query = d_scores @ keys / np.sqrt(keys.shape[1])
    d_keys = e.T @ dz_inv + d_scores.T @ q
    d_phi = h_fed.T @ d_keys
    return d_query, d_phi


def cross_attention(query: Array, h_fed: Array, phi: Array) -> Array:
    """Attention readout of the federated representation.

    Each output row is a convex combination of the rows of ``h_fed @ phi``.
    """
    z, _ = _attention_forward(np.asarray(query, float), np.asarray(h_fed, float),
                              np.asarray(phi, float))
    return z


def mine_estimate(mine: DenseNet, p: Array, q: Array, rng) -> float:
    """Donsker-Varadhan lower bound on MI between row-aligned samples.

    Marginal pairs come from a random cyclic shift of q's rows (no row pairs
    with itself); the log-mean-exp is max-shifted.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[0] != q.shape[0]:
        raise ValueError("p and q must be row-aligned joint samples")
    n = p.shape[0]
    if n < 2:
        raise ValueError("mine_estimate needs at least 2 samples")
    shift = int(np.random.default_rng(rng).integers(1, n))
    t, _ = mine.forward(_stack_pairs(p, q, shift))
    return _dv_bound(t, n)


def _stack_pairs(p: Array, q: Array, shift: int) -> Array:
    """Critic inputs for one pass: the n joint rows ``[p, q]`` over the n
    marginal rows ``[p, roll(q, shift)]``."""
    n, dp = p.shape
    pairs = np.empty((2 * n, dp + q.shape[1]))
    pairs[:n, :dp] = p
    pairs[n:, :dp] = p
    pairs[:n, dp:] = q
    pairs[n:, dp:] = np.roll(q, shift, axis=0)
    return pairs


def _dv_bound(t: Array, n: int) -> float:
    """The DV bound from the critic's outputs ``t`` on ``_stack_pairs`` rows."""
    return float(np.mean(t[:n])) - logmeanexp(t[n:])


def _dv_upstream(t: Array, n: int) -> Array:
    """Gradient of ``_dv_bound(t, n)`` with respect to ``t`` (2n x 1): 1/n on
    the joint rows, -softmax(t[n:]) on the marginal rows."""
    g = np.empty_like(t)
    g[:n] = 1.0 / n
    g[n:, 0] = -softmax_rows(t[n:, 0])
    return g


def _critic_grads(net: DenseNet, pairs: Array, ws: dict | None = None):
    """Per-layer gradients of the DV bound on ``_stack_pairs`` rows with
    respect to the critic's parameters: one forward and one backward pass."""
    t, cache = net.forward(pairs, ws)
    grads, _ = net.backward(cache, _dv_upstream(t, pairs.shape[0] // 2), ws, inputs=False)
    return grads


def _critic(n_in: int, config: LktConfig, rng) -> DenseNet:
    """An MI critic over ``n_in`` inputs, with ``config``'s hidden widths and activation."""
    acts = [config.mine_activation] * len(config.mine_hidden) + ["linear"]
    return DenseNet.create([n_in, *config.mine_hidden, 1], acts, rng)


def train_mine(p: Array, q: Array, steps: int, seed) -> DenseNet:
    """Fit a critic by gradient ascent on the lower bound (full-batch Adam),
    with the default ``LktConfig``'s critic widths, activation and
    learning rate."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    rng = np.random.default_rng(seed)
    config = LktConfig()
    net = _critic(p.shape[1] + q.shape[1], config, rng)
    n = p.shape[0]
    # Scratch buffers reused by every step's pass: the full-batch
    # activations would otherwise be allocated, freed and paged in afresh
    # each step.
    ws: dict = {}
    for _ in range(steps):
        shift = int(rng.integers(1, n))
        net.adam_step(_critic_grads(net, _stack_pairs(p, q, shift), ws), config.learning_rate,
                      ascend=True)
    return net


# ---------------------------------------------------------------------------
# Pair-model training
# ---------------------------------------------------------------------------

def build_model(n_nl: int, n_rec: int, n_fed: int, config: LktConfig, seed,
                provenance: str, nl_columns, recon_columns) -> LktModel:
    rng = np.random.default_rng(seed)
    d = config.latent_dim if config.latent_dim is not None else n_nl
    h = config.hidden_width if config.hidden_width is not None else max(d, n_nl)
    enc = DenseNet.create([n_nl, h, h, d], ["sigmoid", "sigmoid", "linear"], rng)
    dec = DenseNet.create([d, h, h, n_rec], ["sigmoid", "sigmoid", "linear"], rng)
    mine = _critic(2 * d, config, rng)
    phi = rng.standard_normal((n_fed, d)) / np.sqrt(n_fed)
    return LktModel(enc=enc, dec=dec, phi=phi, mine=mine, temperature=config.temperature,
                    weights=config.loss_weights(), provenance=provenance,
                    nl_columns=tuple(nl_columns), recon_columns=tuple(recon_columns),
                    phi_adam=AdamState.like(phi))


def loss_and_grads(model: LktModel, x_nl: Array, x_rec: Array, h_fed: Array, shift: int,
                   ws: dict | None = None):
    """Full transfer loss and its gradients w.r.t. encoder, decoder, and phi.

    The critic is treated as fixed here; its ascent step is separate, and
    its weight gradients are not formed. Returns (loss, {"recons": ..,
    "mi": ..}, grads) where grads holds per-layer (dW, db) lists for enc/dec
    and the dense phi gradient. ``ws`` holds the attention's n x |h_fed|
    buffers from one call to the next (see ``_attend``); the results are
    the same without it.
    """
    b0, b1 = model.weights
    d = model.latent_dim
    n = x_nl.shape[0]

    e_nl, cache_nl = model.enc.forward(x_nl)
    z, attn_cache = _attention_forward(e_nl, h_fed, model.phi, ws)

    e_rec, cache_rec = model.enc.forward(x_rec)
    recon, cache_dec = model.dec.forward(e_rec)
    l_rec = float(np.mean((recon - x_rec) ** 2))

    t, cache_c = model.mine.forward(_stack_pairs(e_nl, z, shift))
    l_mi = _dv_bound(t, n)

    loss = b0 * l_rec - b1 * l_mi

    # reconstruction branch
    d_recon = b0 * 2.0 * (recon - x_rec) / recon.size
    dec_grads, d_e_rec = model.dec.backward(cache_dec, d_recon)
    enc_grads_rec, _ = model.enc.backward(cache_rec, d_e_rec, inputs=False)

    # MI branch (critic fixed): d(loss)/dT = -b1 * d(bound)/dT
    _, d_c = model.mine.backward(cache_c, -b1 * _dv_upstream(t, n), params=False)
    d_p = d_c[:n, :d] + d_c[n:, :d]
    d_z = d_c[:n, d:] + np.roll(d_c[n:, d:], -shift, axis=0)

    d_query, d_phi = _attention_backward(attn_cache, d_z, h_fed, ws)
    enc_grads_nl, _ = model.enc.backward(cache_nl, d_p + d_query, inputs=False)

    enc_grads = [(a + c, b + e) for (a, b), (c, e) in zip(enc_grads_rec, enc_grads_nl)]
    return loss, {"recons": l_rec, "mi": l_mi}, {
        "enc": enc_grads, "dec": dec_grads, "phi": d_phi,
    }


def _mine_ascent(model: LktModel, x_nl: Array, h_fed: Array, shift: int, lr: float,
                 ws: dict | None = None):
    """Critic ascent step on the batch, after the model's update: the
    encoder and attention forward passes are rerun with the new weights."""
    e_nl, _ = model.enc.forward(x_nl)
    z, _ = _attention_forward(e_nl, h_fed, model.phi, ws)
    model.mine.adam_step(_critic_grads(model.mine, _stack_pairs(e_nl, z, shift)), lr,
                         ascend=True)


def _batches(n: int, batch_size: int, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def lkt_train(h_t_ol: FeatureMatrix, h_t_nl: FeatureMatrix,
              h_fed: FederatedRepresentation, config: LktConfig, seed,
              provenance: str = "pair-0") -> LktModel:
    """Train one pair model: alternating descent on the transfer loss and
    ascent of the MI critic, one critic step per model step per batch."""
    source = config.reconstruction_source
    if source == "auto":
        source = "overlap" if h_t_ol.n_cols == h_t_nl.n_cols else "local"
    if source == "overlap" and h_t_ol.n_cols != h_t_nl.n_cols:
        raise ValueError("overlap reconstruction needs matching column schemas")
    x_rec_full = h_t_ol.values if source == "overlap" else h_t_nl.values
    recon_columns = h_t_ol.columns if source == "overlap" else h_t_nl.columns

    x_nl = h_t_nl.values
    # Factorization outputs have orthonormal columns (entries ~ 1/sqrt(n)),
    # which would flatten the attention softmax; rescale to unit variance.
    fed = _column_standardize(h_fed.matrix)
    model = build_model(h_t_nl.n_cols, x_rec_full.shape[1], fed.shape[1], config, seed,
                        provenance, h_t_nl.columns, recon_columns)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    history: dict[str, list[float]] = {"loss": [], "recons": [], "mi": []}
    n_rec = x_rec_full.shape[0]
    ws: dict = {}  # attention buffers shared by every step
    for epoch in range(config.epochs):
        ep_loss, ep_rec, ep_mi, n_batches = 0.0, 0.0, 0.0, 0
        rec_perm = rng.permutation(n_rec)
        rec_cursor = 0
        for idx in _batches(x_nl.shape[0], config.batch_size, rng):
            if idx.size < 2:
                continue
            xb = x_nl[idx]
            # cycle through reconstruction-source rows in shuffled order
            take = idx.size
            rec_idx = rec_perm[(rec_cursor + np.arange(take)) % n_rec]
            rec_cursor += take
            xr = x_rec_full[rec_idx]
            shift = int(rng.integers(1, idx.size))
            loss, parts, grads = loss_and_grads(model, xb, xr, fed, shift, ws)
            if not np.isfinite(loss):
                raise LktDivergenceError(seed, epoch)
            model.enc.adam_step(grads["enc"], config.learning_rate)
            model.dec.adam_step(grads["dec"], config.learning_rate)
            model.phi = model.phi_adam.update(model.phi, grads["phi"], config.learning_rate)
            _mine_ascent(model, xb, fed, shift, config.learning_rate, ws)
            ep_loss += loss
            ep_rec += parts["recons"]
            ep_mi += parts["mi"]
            n_batches += 1
        if n_batches == 0:
            raise ValueError("batch size produced no usable batches")
        history["loss"].append(ep_loss / n_batches)
        history["recons"].append(ep_rec / n_batches)
        history["mi"].append(ep_mi / n_batches)
    model.history = history
    model.keys = fed @ model.phi
    return model


# ---------------------------------------------------------------------------
# Contrastive fine-tuning across pairs
# ---------------------------------------------------------------------------

def _cosine_rows(e: Array, z: Array, eps: float = 1e-12):
    en = np.linalg.norm(e, axis=1) + eps
    zn = np.linalg.norm(z, axis=1) + eps
    dots = np.sum(e * z, axis=1)
    return dots / (en * zn), en, zn, dots


def _mean_cosine_and_grad(e: Array, z: Array):
    """Mean row-wise cosine similarity and its gradient w.r.t. e."""
    cos, en, zn, dots = _cosine_rows(e, z)
    sim = float(np.mean(cos))
    grad = (z / (en * zn)[:, None] - (dots / (en ** 3 * zn))[:, None] * e) / e.shape[0]
    return sim, grad


def _contrastive(sims: list[float], tau: float):
    """Softmax p over the pairs' similarities / ``tau``, and each pair's
    loss -log p_i."""
    p = softmax_rows(np.asarray(sims).reshape(1, -1) / tau).ravel()
    return p, [-np.log(max(p_i, 1e-300)) for p_i in p]


def contrastive_loss(models: list[LktModel], x: Array, targets: list[Array], i: int) -> float:
    """Loss for pair i: its encoder/readout similarity against all pairs'."""
    sims = [_mean_cosine_and_grad(m.enc.forward(x)[0], t)[0]
            for m, t in zip(models, targets)]
    return float(_contrastive(sims, models[i].temperature)[1][i])


def lkt_finetune_contrastive(models: list[LktModel], h_t_nl: FeatureMatrix,
                             config: LktConfig, seed) -> list[LktModel]:
    """Push each pair encoder toward its own readout and away from the others.

    Only encoders move; readout targets are frozen at their pre-fine-tune
    values, read over each model's stored attention ``keys``. With a single
    pair the loss is identically zero: no step is taken, and the history
    records a zero loss per epoch.
    """
    models = [m.copy() for m in models]
    n = len(models)
    if n == 1:
        history = [0.0] * config.finetune_epochs
        models[0].history = {**models[0].history, "contrastive": history}
        return models
    x = h_t_nl.values
    targets = [_readout(m, x, config.batch_size) for m in models]

    rng = np.random.default_rng(seed)
    tau = models[0].temperature
    losses: list[float] = []
    for _ in range(config.finetune_epochs):
        ep_loss, n_batches = 0.0, 0
        for idx in _batches(x.shape[0], config.batch_size, rng):
            xb = x[idx]
            sims, grads_e, caches = [], [], []
            for m, t in zip(models, targets):
                e, cache = m.enc.forward(xb)
                sim, g = _mean_cosine_and_grad(e, t[idx])
                sims.append(sim)
                grads_e.append(g)
                caches.append(cache)
            p, pair_losses = _contrastive(sims, tau)
            # only enc_i's own similarity backprops: d(loss_i)/d(sim_i) = (p_i - 1) / tau
            enc_grads = [m.enc.backward(cache, (p_i - 1.0) / tau * g, inputs=False)[0]
                         for m, cache, g, p_i in zip(models, caches, grads_e, p)]
            for m, g in zip(models, enc_grads):
                m.enc.adam_step(g, config.finetune_lr)
            ep_loss += sum(pair_losses) / n
            n_batches += 1
        losses.append(ep_loss / max(n_batches, 1))
    for m in models:
        m.history = {**m.history, "contrastive": losses}
    return models


def _readout(m: LktModel, x: Array, block: int) -> Array:
    """``m``'s attention readout of its encoding of ``x``, ``block`` rows at a
    time, so no len(x) x |overlap| array is made."""
    e = m.enc.forward(x)[0]
    keys = _keys(m)
    out = np.empty_like(e)
    ws: dict = {}
    for start in range(0, e.shape[0], block):
        out[start:start + block] = _attend(e[start:start + block], keys, ws)[0]
    return out


def _keys(m: LktModel) -> Array:
    if m.keys is None:
        raise ValueError(f"pair model {m.provenance!r} has no attention keys; lkt_train sets them")
    return m.keys


def encoder_redundancy(models: list[LktModel], h_t_nl: FeatureMatrix) -> float:
    """Mean pairwise absolute row-cosine between encoder output blocks."""
    if len(models) < 2:
        return 0.0
    outs = [m.enc.forward(h_t_nl.values)[0] for m in models]
    total, count = 0.0, 0
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            cos, *_ = _cosine_rows(outs[i], outs[j])
            total += float(np.mean(np.abs(cos)))
            count += 1
    return total / count


# ---------------------------------------------------------------------------
# Feature augmentation
# ---------------------------------------------------------------------------

def augment(models: list[LktModel], h_t_nl: FeatureMatrix) -> AugmentedFeatures:
    """Concatenate raw features with each pair encoder's output, in order."""
    blocks = [h_t_nl.values]
    columns = list(h_t_nl.columns)
    for m in models:
        if m.enc.input_dim != h_t_nl.n_cols:
            raise ValueError(
                f"encoder {m.provenance!r} expects {m.enc.input_dim} columns, "
                f"got {h_t_nl.n_cols}")
        out, _ = m.enc.forward(h_t_nl.values)
        blocks.append(out)
        columns.extend(f"{m.provenance}:z{j}" for j in range(out.shape[1]))
    matrix = FeatureMatrix(ids=h_t_nl.ids, columns=tuple(columns),
                           values=np.hstack(blocks))
    return AugmentedFeatures(matrix=matrix, provenance=tuple(m.provenance for m in models))


def apply_to_new_samples(models: list[LktModel], x_new: FeatureMatrix) -> AugmentedFeatures:
    """Augment unseen rows with the already-trained encoders.

    Purely local: no retraining, no protocol messages. The new table must
    carry exactly the training non-overlap schema.
    """
    for m in models:
        if x_new.columns != m.nl_columns:
            raise ValueError(
                f"schema mismatch for {m.provenance!r}: expected columns "
                f"{list(m.nl_columns)}, got {list(x_new.columns)}")
    return augment(models, x_new)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_models(path, models: list[LktModel], config_hash: str) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "models": [
            {
                "enc": m.enc.to_dict(),
                "dec": m.dec.to_dict(),
                "mine": m.mine.to_dict(),
                "phi": m.phi.tolist(),
                "keys": _keys(m).tolist(),
                "latent_dim": m.latent_dim,
                "temperature": m.temperature,
                "weights": list(m.weights),
                "provenance": m.provenance,
                "nl_columns": list(m.nl_columns),
                "recon_columns": list(m.recon_columns),
            }
            for m in models
        ],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    # one dumps call runs the C encoder; json.dump streams through the Python one
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_models(path):
    """Returns (models, config_hash); rejects mismatched schema widths."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}; "
                         f"this build reads version {CHECKPOINT_VERSION}")
    models = []
    for md in doc["models"]:
        enc = DenseNet.from_dict(md["enc"])
        dec = DenseNet.from_dict(md["dec"])
        mine = DenseNet.from_dict(md["mine"])
        phi = np.asarray(md["phi"], dtype=float)
        keys = np.asarray(md["keys"], dtype=float)
        if enc.input_dim != len(md["nl_columns"]):
            raise ValueError("checkpoint schema mismatch: encoder input width")
        if dec.output_dim != len(md["recon_columns"]):
            raise ValueError("checkpoint schema mismatch: decoder output width")
        if (enc.output_dim != md["latent_dim"] or phi.shape[1] != md["latent_dim"]
                or keys.shape[1:] != (md["latent_dim"],)):
            raise ValueError("checkpoint schema mismatch: latent width")
        models.append(LktModel(
            enc=enc, dec=dec, phi=phi, mine=mine, temperature=float(md["temperature"]),
            weights=tuple(md["weights"]), provenance=md["provenance"],
            nl_columns=tuple(md["nl_columns"]), recon_columns=tuple(md["recon_columns"]),
            keys=keys,
        ))
    return models, doc["config_hash"]
