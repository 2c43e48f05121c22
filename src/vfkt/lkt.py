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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import ConfigError, FeatureMatrix, from_dict, standardize_columns
from .frl import FederatedRepresentation
from .numerics import (ACTIVATIONS, AdamState, Array, DenseLayer, DenseNet, _buf, logmeanexp,
                       softmax_rows)

CHECKPOINT_VERSION = 3


class LktDivergenceError(RuntimeError):
    def __init__(self, seed, epoch, provenance=None):
        super().__init__(f"training diverged (loss not finite) at epoch {epoch}, seed {seed}")
        self.seed = seed
        self.epoch = epoch
        self.provenance = provenance


@dataclass(frozen=True)
class LktConfig:
    latent_dim: int | None = None  # None -> width of the non-overlap table
    mi_weight: float = 0.1  # loss = recons - mi_weight * mi
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
        if self.reconstruction_source not in ("auto", "overlap", "local"):
            raise ConfigError(f"unknown reconstruction_source {self.reconstruction_source!r}")
        if self.mine_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown mine_activation {self.mine_activation!r}")
        for name, low in (("batch_size", 2), ("epochs", 1), ("finetune_epochs", 0),
                          ("latent_dim", 1), ("hidden_width", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}")
        for name in ("temperature", "learning_rate", "finetune_lr"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if not (np.isfinite(self.mi_weight) and self.mi_weight >= 0):
            raise ConfigError(f"mi_weight must be finite and >= 0, got {self.mi_weight}")
        if any(w < 1 for w in self.mine_hidden):
            raise ConfigError("mine_hidden widths must be >= 1")


@dataclass
class TrainingPair:
    """The networks ``lkt_train`` steps for one pair, or, stacked, for K
    pairs; only the encoder, and the attention keys that ``phi`` gives,
    outlive training."""

    enc: DenseNet
    dec: DenseNet
    phi: Array  # (|X_fed| x d), or (K, |X_fed|, d) stacked
    mine: DenseNet
    mi_weight: float

    @classmethod
    def stack(cls, pairs: list["TrainingPair"]) -> "TrainingPair":
        """The stacked pair whose row k is a copy of ``pairs[k]``, as
        ``DenseNet.stack`` makes it; all share one layout and MI weight."""
        nets = {name: DenseNet.stack([getattr(p, name) for p in pairs])
                for name in ("enc", "dec", "mine")}
        return cls(**nets, phi=np.stack([p.phi for p in pairs]), mi_weight=pairs[0].mi_weight)


@dataclass
class LktModel:
    """One trained pair: all that augmentation and fine-tuning read, and all
    that a checkpoint keeps but the per-epoch ``history``. ``keys`` are the
    attention keys std(h_fed) @ phi (|overlap| x d), all of the federated
    representation that fine-tuning reads."""

    enc: DenseNet
    keys: Array
    temperature: float
    provenance: str
    nl_columns: tuple[str, ...]
    history: dict = field(default_factory=dict)

    @property
    def latent_dim(self) -> int:
        return self.enc.output_dim

    def copy(self) -> "LktModel":
        """A copy that shares no mutable state with this model."""
        return replace(self, enc=self.enc.copy(), keys=self.keys.copy(),
                       history={k: list(v) for k, v in self.history.items()})


@dataclass(frozen=True)
class AugmentedFeatures:
    matrix: FeatureMatrix  # column blocks: [raw | enc_1 | ... | enc_n]
    provenance: tuple[str, ...]


# ---------------------------------------------------------------------------
# Attention and MI estimation
# ---------------------------------------------------------------------------

def _attend(query: Array, keys: Array, ws: dict | None = None):
    """Softmax readout of ``keys`` (m x d), which double as values.

    The rows of ``E = exp(S - rowmax(S))``, ``S = (query / sqrt(d)) @ keys.T``,
    are left unnormalized: each row's ``1 / sum(E)`` scales the n x d readout
    instead, so the n x m array takes no scale or divide pass. It is the one
    n x m array made here; with ``ws`` (see
    ``DenseNet.forward``) it is the buffer ``ws["attn"]``, so the returned
    cache is overwritten by the next call with the same ``ws``. A stack of K
    readouts takes a (K, n, d) query over (K, m, d) keys, and every array
    gains the leading K axis.
    """
    q = query / np.sqrt(keys.shape[-1])
    e = np.matmul(q, keys.swapaxes(-1, -2),
                  out=_buf(ws, "attn", q.shape[:-1] + keys.shape[-2:-1]))
    e -= np.max(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    inv = 1.0 / np.sum(e, axis=-1, keepdims=True)
    z = e @ keys
    z *= inv
    return z, (q, keys, e, inv, z)


def _attention_backward(cache, dz: Array, h_fed: Array, ws: dict | None = None):
    """Gradients of the readout with respect to the query and ``phi``.

    With ``P = E * inv``, the softmax term ``sum_j dP_ij P_ij`` equals
    ``dz_i . z_i``, so it is taken on the n x d side; the score gradient
    ``P * (dz @ keys.T - s)`` is formed as ``E * ((dz * inv) @ keys.T - s * inv)``.
    A stack's rows take turns in one n x m buffer (``ws["d_attn"]``), so no
    second (K, n, m) array is made beside the forward's.
    """
    q, keys, e, inv, z = cache
    s_inv = np.sum(dz * z, axis=-1, keepdims=True) * inv
    dz_inv = dz * inv
    d_query = np.empty_like(q)
    d_phi = np.empty(h_fed.shape[:-2] + (h_fed.shape[-1], q.shape[-1]))
    rows = [(k,) for k in range(e.shape[0])] if e.ndim == 3 else [()]  # () indexes all of e
    for k in rows:
        d_scores = np.matmul(dz_inv[k], keys[k].T, out=_buf(ws, "d_attn", e.shape[-2:]))
        d_scores -= s_inv[k]
        d_scores *= e[k]
        np.matmul(d_scores, keys[k], out=d_query[k])
        d_query[k] /= np.sqrt(keys.shape[-1])
        d_keys = e[k].T @ dz_inv[k] + d_scores.T @ q[k]
        np.matmul(h_fed[k].T, d_keys, out=d_phi[k])
    return d_query, d_phi


def cross_attention(query: Array, h_fed: Array, phi: Array) -> Array:
    """Attention readout of the federated representation.

    Each output row is a convex combination of the rows of ``h_fed @ phi``.
    """
    query, h_fed, phi = (np.asarray(a, dtype=float) for a in (query, h_fed, phi))
    if query.shape[1] != phi.shape[1] or h_fed.shape[1] != phi.shape[0]:
        raise ValueError(
            f"attention dimension mismatch: query {query.shape}, "
            f"h_fed {h_fed.shape}, phi {phi.shape}")
    return _attend(query, h_fed @ phi)[0]


def _joint_samples(p: Array, q: Array) -> tuple[Array, Array]:
    """``p`` and ``q`` as float arrays, checked to hold at least 2 row-aligned
    joint samples, as ``mine_estimate`` and ``train_mine`` need them."""
    p, q = (np.asarray(a, dtype=float) for a in (p, q))
    if not 2 <= p.shape[0] == q.shape[0]:
        raise ValueError("p and q must be at least 2 row-aligned joint samples, got "
                         f"{p.shape[0]} and {q.shape[0]} rows")
    return p, q


def mine_estimate(mine: DenseNet, p: Array, q: Array, rng) -> float:
    """Donsker-Varadhan lower bound on MI between row-aligned samples.

    Marginal pairs come from a random cyclic shift of q's rows (no row pairs
    with itself); the log-mean-exp is max-shifted.
    """
    p, q = _joint_samples(p, q)
    n = p.shape[0]
    shift = int(np.random.default_rng(rng).integers(1, n))
    t, _ = mine.forward(_stack_pairs(p, q, shift))
    return float(_dv_bound(t, n))


def _row_shifts(shift) -> list:
    """(index, shift) per row: ``((k,), shift[k])`` for each row of a stack,
    whose shifts are a sequence, or ``((), shift)`` for one int."""
    return [((), shift)] if np.ndim(shift) == 0 else [((k,), s) for k, s in enumerate(shift)]


def _stack_pairs(p: Array, q: Array, shift) -> Array:
    """Critic inputs for one pass: the n joint rows ``[p, q]`` over the n
    marginal rows ``[p, roll(q, shift)]``, with ``0 < shift < n``. For a
    stack, ``p`` and ``q`` are (K, n, .) and ``shift`` holds each row's."""
    n, dp = p.shape[-2:]
    pairs = np.empty(p.shape[:-2] + (2 * n, dp + q.shape[-1]))
    pairs[..., :n, :dp] = p
    pairs[..., n:, :dp] = p
    pairs[..., :n, dp:] = q
    # roll(q, shift): row i of the marginal half holds q[(i - shift) % n]
    for k, s in _row_shifts(shift):
        pairs[k][n:n + s, dp:] = q[k][n - s:]
        pairs[k][n + s:, dp:] = q[k][:n - s]
    return pairs


def _dv_bound(t: Array, n: int) -> Array:
    """The DV bound from the critic's outputs ``t`` on ``_stack_pairs``
    rows; for a stack, one bound per row."""
    return np.mean(t[..., :n, 0], axis=-1) - logmeanexp(t[..., n:, 0])


def _dv_upstream(t: Array, n: int) -> Array:
    """Gradient of ``_dv_bound(t, n)`` with respect to ``t`` (2n x 1): 1/n on
    the joint rows, -softmax(t[n:]) on the marginal rows."""
    g = np.empty_like(t)
    g[..., :n, :] = 1.0 / n
    g[..., n:, 0] = -softmax_rows(t[..., n:, 0])
    return g


def _critic_grads(net: DenseNet, pairs: Array, ws: dict | None = None):
    """Gradient of -DV, the critic's loss, on ``_stack_pairs`` rows with
    respect to its parameters: one forward and one backward pass. The
    negation is exact, so its descent is the bound's ascent bit for bit."""
    t, cache = net.forward(pairs, ws)
    grad, _ = net.backward(cache, -_dv_upstream(t, pairs.shape[-2] // 2), ws, inputs=False)
    return grad


def _critic(n_in: int, config: LktConfig, rng) -> DenseNet:
    """An MI critic over ``n_in`` inputs, with ``config``'s hidden widths and activation."""
    acts = [config.mine_activation] * len(config.mine_hidden) + ["linear"]
    return DenseNet.create([n_in, *config.mine_hidden, 1], acts, rng)


def train_mine(p: Array, q: Array, steps: int, seed) -> DenseNet:
    """Fit a critic by gradient ascent on the lower bound (full-batch Adam),
    with the default ``LktConfig``'s critic widths, activation and
    learning rate."""
    p, q = _joint_samples(p, q)
    rng = np.random.default_rng(seed)
    config = LktConfig()
    net = _critic(p.shape[1] + q.shape[1], config, rng)
    # Scratch buffers reused by every step's pass: the full-batch
    # activations would otherwise be allocated, freed and paged in afresh
    # each step.
    ws: dict = {}
    adam = net.adam_state()
    for _ in range(steps):
        shift = int(rng.integers(1, len(p)))
        net.adam_step(adam, _critic_grads(net, _stack_pairs(p, q, shift), ws),
                      config.learning_rate)
    return net


# ---------------------------------------------------------------------------
# Pair-model training
# ---------------------------------------------------------------------------

_PAIR_ACTIVATIONS = ("sigmoid", "sigmoid", "linear")


def _encoder_sizes(n_nl: int, config: LktConfig) -> list[int]:
    """The layer widths ``[n_nl, h, h, d]`` of a pair encoder over ``n_nl`` columns."""
    d = config.latent_dim if config.latent_dim is not None else n_nl
    h = config.hidden_width if config.hidden_width is not None else max(d, n_nl)
    return [n_nl, h, h, d]


def encoder_layout(n_nl: int, config: LktConfig) -> tuple:
    """The ``DenseNet.layout`` of the encoder ``build_model`` draws over ``n_nl`` columns."""
    sizes = _encoder_sizes(n_nl, config)
    return tuple(zip(zip(sizes, sizes[1:]), _PAIR_ACTIVATIONS))


def check_encoder_layout(models: list[LktModel], want: tuple, whose: str) -> None:
    """Reject, naming the first, a model whose encoder layer shapes or
    activations are not ``want`` (``whose`` layout, for the message): the
    fine-tune steps all encoders as one stacked network."""
    for i, m in enumerate(models):
        if m.enc.layout != want:
            raise ValueError(f"pair model {i} {m.provenance!r}: encoder layout {m.enc.layout} "
                             f"differs from {whose} {want}")


def build_model(n_nl: int, n_rec: int, n_fed: int, config: LktConfig, seed) -> TrainingPair:
    """Freshly drawn networks for one pair: an encoder of ``n_nl`` columns, a
    decoder of ``n_rec``, attention over ``n_fed`` federated columns, a critic."""
    rng = np.random.default_rng(seed)
    sizes = _encoder_sizes(n_nl, config)
    d = sizes[-1]
    enc = DenseNet.create(sizes, _PAIR_ACTIVATIONS, rng)
    dec = DenseNet.create([d, *sizes[1:-1], n_rec], _PAIR_ACTIVATIONS, rng)
    mine = _critic(2 * d, config, rng)
    phi = rng.standard_normal((n_fed, d)) / np.sqrt(n_fed)
    return TrainingPair(enc=enc, dec=dec, phi=phi, mine=mine, mi_weight=float(config.mi_weight))


def loss_and_grads(pair: TrainingPair, x_nl: Array, x_rec: Array, h_fed: Array, shift,
                   ws: dict | None = None):
    """Full transfer loss and its gradients w.r.t. encoder, decoder, and phi.

    The critic is treated as fixed here; its ascent step is separate, and
    its weight gradients are not formed. Returns (loss, {"recons": ..,
    "mi": ..}, grads) where grads holds the enc/dec gradients, each laid
    out as its net's ``params``, and the dense phi gradient. With an MI
    weight of 0 the MI branch is not run: the loss is the reconstruction
    error, the parts hold no "mi" and the phi gradient is zero. For a
    stacked pair (``TrainingPair.stack``) the batches and ``h_fed`` are
    (K, n, .), ``shift`` holds one shift per row, and the loss and its
    parts hold one value per row. The reconstruction branch runs first, and
    each cache is dropped once its backward pass has run. ``ws`` holds the
    attention's n x |h_fed| buffers from one call to the next (see
    ``_attend``); the results are the same without it.
    """
    n = x_nl.shape[-2]

    e, cache = pair.enc.forward(x_rec)
    recon, cache_dec = pair.dec.forward(e)
    err = recon - x_rec
    l_rec = np.mean((err ** 2).reshape(err.shape[:-2] + (-1,)), axis=-1)
    dec_grads, d_e = pair.dec.backward(cache_dec, 2.0 * err / (err.shape[-2] * err.shape[-1]))
    del recon, cache_dec, err
    enc_grads, _ = pair.enc.backward(cache, d_e, inputs=False)
    if not pair.mi_weight:
        return l_rec, {"recons": l_rec}, {
            "enc": enc_grads, "dec": dec_grads, "phi": np.zeros_like(pair.phi)}

    # MI branch (critic fixed): d(loss)/dT = -mi_weight * d(bound)/dT
    d = pair.enc.output_dim
    e, cache = pair.enc.forward(x_nl)
    z, attn_cache = _attend(e, h_fed @ pair.phi, ws)
    t, cache_c = pair.mine.forward(_stack_pairs(e, z, shift))
    l_mi = _dv_bound(t, n)
    _, d_c = pair.mine.backward(cache_c, -pair.mi_weight * _dv_upstream(t, n), params=False)
    del cache_c
    d_p = d_c[..., :n, :d] + d_c[..., n:, :d]
    # the marginal rows' q gradient, rolled back by -shift (see _stack_pairs)
    d_z = d_c[..., :n, d:].copy()
    for k, s in _row_shifts(shift):
        d_z[k][:n - s] += d_c[k][n + s:, d:]
        d_z[k][n - s:] += d_c[k][n:n + s, d:]
    del d_c
    d_query, d_phi = _attention_backward(attn_cache, d_z, h_fed, ws)
    d_p += d_query
    enc_grads += pair.enc.backward(cache, d_p, inputs=False)[0]
    loss = l_rec - pair.mi_weight * l_mi
    return loss, {"recons": l_rec, "mi": l_mi}, {"enc": enc_grads, "dec": dec_grads, "phi": d_phi}


def _mine_ascent(pair: TrainingPair, adam: AdamState, x_nl: Array, h_fed: Array, shift,
                 lr: float, ws: dict | None = None):
    """Critic step on the batch, a descent on -DV, after the pair's update:
    the encoder and attention forward passes are rerun with the new weights."""
    e_nl, _ = pair.enc.forward(x_nl)
    z, _ = _attend(e_nl, h_fed @ pair.phi, ws)
    pair.mine.adam_step(adam, _critic_grads(pair.mine, _stack_pairs(e_nl, z, shift)), lr)


def _batches(n: int, batch_size: int, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _reconstruction_table(h_t_ol: FeatureMatrix, h_t_nl: FeatureMatrix,
                          config: LktConfig) -> FeatureMatrix:
    """The rows a pair's decoder rebuilds: its overlap rows or the non-overlap rows."""
    source = config.reconstruction_source
    same_schema = h_t_ol.columns == h_t_nl.columns
    if source == "auto":
        source = "overlap" if same_schema else "local"
    if source == "overlap" and not same_schema:
        raise ValueError("overlap reconstruction needs matching column schemas")
    return h_t_ol if source == "overlap" else h_t_nl


def lkt_train(h_t_ols: list[FeatureMatrix], h_t_nl: FeatureMatrix,
              h_feds: list[FederatedRepresentation], config: LktConfig, seeds: list,
              provenances: list[str] | None = None) -> list[LktModel]:
    """Train K pair models: alternating descent on the transfer loss and
    ascent of the MI critic, one critic step per model step per batch.

    Pair k is ``h_t_ols[k]``, ``h_feds[k]``, ``seeds[k]`` and
    ``provenances[k]`` (``pair-<k>`` by default), over the non-overlap rows
    ``h_t_nl`` that all pairs share. Pairs whose decoders rebuild tables of
    one shape and whose federated representations have one shape train as
    one stack, the groups in order of their first pair; one pair is a stack
    of one. Each pair draws its networks and its batches from its own seed,
    in the order of a pair trained alone (the epoch's reconstruction-row
    permutation, then its batch permutation, then one critic shift per
    batch), and the models come back in input order, each bit for bit the
    one its pair trains alone. With an MI weight of 0 the critic is drawn
    but never run, and ``history`` holds no "mi" curve.

    A pair whose loss turns non-finite stops training. The pairs before it,
    of every shape, train again, so the ``LktDivergenceError`` raised names
    the first pair in input order that diverges, with its seed, epoch and
    provenance, as training the pairs one after another would.
    """
    n_pairs = len(h_feds)
    provenances = list(provenances or (f"pair-{k}" for k in range(n_pairs)))
    if not n_pairs or not len(h_t_ols) == len(seeds) == len(provenances) == n_pairs:
        raise ValueError("lkt_train needs one overlap table, seed and provenance per "
                         "federated representation, and at least one of each")
    groups: dict[tuple, list[int]] = {}
    for k, (h_t_ol, h_fed) in enumerate(zip(h_t_ols, h_feds)):
        rec = _reconstruction_table(h_t_ol, h_t_nl, config).values
        groups.setdefault((rec.shape, h_fed.matrix.shape), []).append(k)
    models = {k: model for group in groups.values() for k, model in
              zip(group, _train_stack(group, h_t_ols, h_t_nl, h_feds, config, seeds, provenances))}
    return [models[k] for k in range(n_pairs)]


def _train_stack(group, h_t_ols, h_t_nl, h_feds, config, seeds, provenances) -> list[LktModel]:
    """``lkt_train`` on the pairs ``group`` of its inputs, which step as one
    ``TrainingPair.stack``: their reconstruction tables have one shape, and
    so do their federated representations."""
    recs = [_reconstruction_table(h_t_ols[k], h_t_nl, config).values for k in group]
    stack_seeds = [seeds[k] for k in group]
    n_pairs = len(group)
    x_nl = h_t_nl.values
    n_rec, n_rec_cols = recs[0].shape
    n_fed = h_feds[group[0]].matrix.shape[1]
    # Pairs of one seed would each draw the same batches and shifts: they
    # draw them from one stream, and their batch rows are gathered once.
    rngs = [np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            for seed in (stack_seeds[:1] if len(set(stack_seeds)) == 1 else stack_seeds)]
    # One table that every pair rebuilds is read as it is, not copied per
    # pair; distinct ones are read as one table, pair k's rows from k * n_rec.
    if all(np.array_equal(r, recs[0]) for r in recs):
        rec_rows, rec_offsets = recs[0], 0
    else:
        rec_rows, rec_offsets = np.concatenate(recs), np.arange(n_pairs)[:, None] * n_rec
    # A stack of one steps as its pair itself, on 2-D arrays, which numpy
    # runs faster than (1, n, .) ones; ``rows`` picks the pair axis of the
    # per-pair arrays below.
    pairs = [build_model(x_nl.shape[1], n_rec_cols, n_fed, config, seed) for seed in stack_seeds]
    stack = pairs[0] if n_pairs == 1 else TrainingPair.stack(pairs)
    del pairs  # a stack of several holds copies of them
    rows = 0 if n_pairs == 1 else slice(None)
    # Factorization outputs have orthonormal columns (entries ~ 1/sqrt(n)),
    # which would flatten the attention softmax; rescale to unit variance.
    fed = np.stack([standardize_columns(h_feds[k].matrix)[0] for k in group])[rows]
    enc_adam, dec_adam, mine_adam = (net.adam_state()
                                     for net in (stack.enc, stack.dec, stack.mine))
    phi_adam = AdamState.like(stack.phi)
    lr = config.learning_rate

    names = ("loss", "recons", "mi") if stack.mi_weight else ("loss", "recons")
    curves = []  # per epoch, the mean of each of ``names`` per pair
    ws: dict = {}  # attention buffers shared by every step
    for epoch in range(config.epochs):
        rec_perms = (np.stack([rng.permutation(n_rec) for rng in rngs]) + rec_offsets)[rows]
        perms = np.stack([rng.permutation(x_nl.shape[0]) for rng in rngs])[rows]
        totals, n_batches, rec_cursor = np.zeros((len(names), n_pairs)), 0, 0
        for start in range(0, x_nl.shape[0], config.batch_size):
            idx = perms[..., start:start + config.batch_size]
            take = idx.shape[-1]
            if take < 2:
                continue
            xb = x_nl[idx]
            # cycle through reconstruction-source rows in shuffled order
            xr = rec_rows[rec_perms[..., (rec_cursor + np.arange(take)) % n_rec]]
            rec_cursor += take
            shifts = ([int(rng.integers(1, take)) for rng in rngs] * (n_pairs // len(rngs)))[rows]
            loss, parts, grads = loss_and_grads(stack, xb, xr, fed, shifts, ws)
            finite = np.isfinite(loss)
            if not finite.all():
                k = group[int(np.argmin(finite))]  # the first pair whose loss is not finite
                if k:  # an earlier pair, of any shape, may diverge first
                    lkt_train(h_t_ols[:k], h_t_nl, h_feds[:k], config, seeds[:k],
                              provenances[:k])
                raise LktDivergenceError(seeds[k], epoch, provenances[k])
            stack.enc.adam_step(enc_adam, grads["enc"], lr)
            stack.dec.adam_step(dec_adam, grads["dec"], lr)
            stack.phi = phi_adam.update(stack.phi, grads["phi"], lr)
            if stack.mi_weight:
                _mine_ascent(stack, mine_adam, xb, fed, shifts, lr, ws)
            for total, value in zip(totals, (loss, *parts.values())):
                total += value
            n_batches += 1
        if n_batches == 0:
            raise ValueError("batch size produced no usable batches")
        curves.append((totals / n_batches).tolist())

    encs = [stack.enc] if n_pairs == 1 else stack.enc.unstack()
    keys = fed @ stack.phi
    return [LktModel(enc=enc, keys=keys.reshape((n_pairs, *keys.shape[-2:]))[row],
                     temperature=config.temperature, provenance=provenances[k],
                     nl_columns=h_t_nl.columns,
                     history={name: [c[j][row] for c in curves] for j, name in enumerate(names)})
            for row, (k, enc) in enumerate(zip(group, encs))]


# ---------------------------------------------------------------------------
# Contrastive fine-tuning across pairs
# ---------------------------------------------------------------------------

def _cosine_rows(e: Array, z: Array, eps: float = 1e-12):
    en = np.linalg.norm(e, axis=-1) + eps
    zn = np.linalg.norm(z, axis=-1) + eps
    dots = np.sum(e * z, axis=-1)
    return dots / (en * zn), en, zn, dots


def _mean_cosine_and_grad(e: Array, z: Array):
    """Mean row-wise cosine similarity over the rows of the last two axes,
    and its gradient w.r.t. e: for (K, n, d) inputs, K similarities."""
    cos, en, zn, dots = _cosine_rows(e, z)
    sim = np.mean(cos, axis=-1)
    grad = (z / (en * zn)[..., None] - (dots / (en ** 3 * zn))[..., None] * e) / e.shape[-2]
    return sim, grad


def _contrastive(sims: list[float], tau: float):
    """Softmax p over the pairs' similarities / ``tau``, and each pair's
    loss -log p_i."""
    p = softmax_rows(np.asarray(sims).reshape(1, -1) / tau).ravel()
    return p, [-np.log(max(p_i, 1e-300)) for p_i in p]


def contrastive_temperature(temperatures) -> float:
    """The one temperature among those of pair models that fine-tune together."""
    temps = sorted(set(temperatures))
    if len(temps) != 1:
        raise ValueError(f"pair models disagree on the contrastive temperature: {temps}")
    return temps[0]


def contrastive_loss(models: list[LktModel], x: Array, targets: list[Array], i: int) -> float:
    """Loss for pair i: its encoder/readout similarity against all pairs'."""
    sims = [_mean_cosine_and_grad(m.enc.forward(x)[0], t)[0]
            for m, t in zip(models, targets)]
    return float(_contrastive(sims, contrastive_temperature(m.temperature for m in models))[1][i])


def lkt_finetune_contrastive(models: list[LktModel], h_t_nl: FeatureMatrix,
                             config: LktConfig, seed) -> list[LktModel]:
    """Push each pair encoder toward its own readout and away from the others.

    Only encoders move; readout targets are frozen at their pre-fine-tune
    values, read over each model's stored attention ``keys``. Each encoder's
    Adam moments start at zero, so the result does not depend on where the
    models came from. With a single pair the loss is identically zero: no
    step is taken, and the history records a zero loss per epoch.

    The K encoders, which must share model 0's layout, step as one stacked
    ``DenseNet``: per batch, one forward pass over the shared input rows,
    one backward pass and one Adam step cover all K encoders. The result is
    bit for bit that of stepping each encoder on its own.
    """
    tau = contrastive_temperature(m.temperature for m in models)
    check_encoder_layout(models, models[0].enc.layout, "model 0's")
    models = [m.copy() for m in models]
    n = len(models)
    if n == 1:
        history = [0.0] * config.finetune_epochs
        models[0].history = {**models[0].history, "contrastive": history}
        return models
    x = h_t_nl.values
    targets = np.stack([_readout(m, x, config.batch_size) for m in models])  # (K, N, d)

    net = DenseNet.stack([m.enc for m in models])
    adam = net.adam_state()
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    for _ in range(config.finetune_epochs):
        ep_loss, n_batches = 0.0, 0
        for idx in _batches(x.shape[0], config.batch_size, rng):
            e, cache = net.forward(np.broadcast_to(x[idx], (n, idx.size, x.shape[1])))
            sims, g = _mean_cosine_and_grad(e, targets[:, idx])
            p, pair_losses = _contrastive(sims, tau)
            # only enc_i's own similarity backprops: d(loss_i)/d(sim_i) = (p_i - 1) / tau
            g *= ((p - 1.0) / tau)[:, None, None]
            grads, _ = net.backward(cache, g, inputs=False)
            net.adam_step(adam, grads, config.finetune_lr)
            ep_loss += sum(pair_losses) / n
            n_batches += 1
        losses.append(ep_loss / max(n_batches, 1))
    for m, row in zip(models, net.params):
        m.enc.params[:] = row
        m.history = {**m.history, "contrastive": list(losses)}
    return models


def _readout(m: LktModel, x: Array, block: int) -> Array:
    """``m``'s attention readout of its encoding of ``x``, ``block`` rows at a
    time, so no len(x) x |overlap| array is made."""
    e = m.enc.forward(x)[0]
    out = np.empty_like(e)
    ws: dict = {}
    for start in range(0, e.shape[0], block):
        out[start:start + block] = _attend(e[start:start + block], m.keys, ws)[0]
    return out


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
    """Concatenate raw features with each pair encoder's output, in order.

    ``h_t_nl`` must carry exactly each model's ``nl_columns``, which also
    fixes its width to the encoder's input width."""
    blocks = [h_t_nl.values]
    columns = list(h_t_nl.columns)
    for m in models:
        if h_t_nl.columns != m.nl_columns:
            raise ValueError(
                f"schema mismatch for {m.provenance!r}: expected columns "
                f"{list(m.nl_columns)}, got {list(h_t_nl.columns)}")
        out, _ = m.enc.forward(h_t_nl.values)
        blocks.append(out)
        columns.extend(f"{m.provenance}:z{j}" for j in range(out.shape[1]))
    matrix = FeatureMatrix(ids=h_t_nl.ids, columns=tuple(columns),
                           values=np.hstack(blocks))
    return AugmentedFeatures(matrix=matrix, provenance=tuple(m.provenance for m in models))


def apply_to_new_samples(models: list[LktModel], x_new: FeatureMatrix) -> AugmentedFeatures:
    """Augment unseen rows with the already-trained encoders.

    Purely local: no retraining, no protocol messages. ``augment`` checks
    that the new table carries exactly the training non-overlap schema.
    """
    return augment(models, x_new)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointEncoder:
    layers: tuple[DenseLayer, ...]


@dataclass(frozen=True)
class CheckpointEntry:  # an LktModel without its training curves
    enc: CheckpointEncoder
    keys: Array
    temperature: float
    provenance: str
    nl_columns: tuple[str, ...]


@dataclass(frozen=True)
class Checkpoint:
    version: int
    config_hash: str
    models: list[dict]  # each read as a CheckpointEntry, so an error names its model


def save_models(path, models: list[LktModel], config_hash: str) -> None:
    """Writes the ``Checkpoint`` that ``load_models`` reads, with ``asdict``:
    one ``CheckpointEntry`` per model, its arrays as nested lists."""
    entries = [asdict(CheckpointEntry(CheckpointEncoder(m.enc.layers), m.keys,
                                      m.temperature, m.provenance, m.nl_columns))
               for m in models]
    doc = Checkpoint(CHECKPOINT_VERSION, config_hash, entries)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    # one dumps call runs the C encoder; json.dump streams through the Python one
    Path(path).write_text(json.dumps(asdict(doc), sort_keys=True, default=np.ndarray.tolist),
                          encoding="utf-8")


def load_models(path):
    """Returns (models, config_hash). ``data.from_dict``, the reader of
    configs and reports, reads the document as a ``Checkpoint`` and each
    entry as a ``CheckpointEntry``; what spans fields is checked here: the
    version, an encoder of finite matrices that chain, its widths against
    ``nl_columns`` and ``keys``, finite keys and a finite temperature > 0.
    An entry's error names the model by its index and its provenance."""
    with open(path, encoding="utf-8") as fh:
        doc = from_dict(Checkpoint, json.load(fh), "checkpoint")
    if doc.version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.version}; "
                          f"this build reads version {CHECKPOINT_VERSION}")
    models = []
    for i, md in enumerate(doc.models):
        name = f"{i} {md['provenance']!r}" if "provenance" in md else i
        try:
            e = from_dict(CheckpointEntry, md)
            temperature = float(e.temperature)
            for l in e.enc.layers:
                if l.w.ndim != 2:
                    raise ConfigError(f"weights of shape {l.w.shape} are not a matrix")
            enc = DenseNet(e.enc.layers)
            if not np.all(np.isfinite(enc.params)):
                raise ConfigError("network weights are not finite")
            if enc.input_dim != len(e.nl_columns):
                raise ConfigError("schema mismatch: encoder input width")
            if e.keys.ndim != 2 or e.keys.shape[1] != enc.output_dim:
                raise ConfigError("schema mismatch: latent width")
            if not np.all(np.isfinite(e.keys)):
                raise ConfigError("keys are not finite")
            if not (np.isfinite(temperature) and temperature > 0):
                raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
        except ValueError as exc:
            raise ConfigError(f"checkpoint model {name}: {exc}") from None
        models.append(LktModel(enc=enc, keys=e.keys, temperature=temperature,
                               provenance=e.provenance, nl_columns=e.nl_columns))
    return models, doc.config_hash
