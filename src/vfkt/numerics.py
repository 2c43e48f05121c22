"""Dense linear-algebra and neural-network kernels.

Everything downstream (masking protocols, power iteration, the transfer
module, classifiers) is built on the primitives in this file: a thin SVD
from ``numpy.linalg`` (LAPACK) with a fixed sign convention, Haar-random
orthogonal matrices, power iteration, row-wise softmax, and a small
fully-connected network with explicit backprop and Adam. All functions
are pure with respect to their inputs; randomness always comes in
through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class SvdConvergenceError(RuntimeError):
    """LAPACK's SVD did not converge (raised from ``numpy.linalg.LinAlgError``)."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(sigma) @ v.T`` with r = min(m, n) columns.

    Columns are sorted by descending singular value and sign-canonicalized
    so the largest-magnitude entry of each u-column is positive.
    """

    u: Array
    sigma: Array
    v: Array


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def svd(m: Array) -> SvdResult:
    """Thin SVD of a dense matrix, computed by LAPACK through ``numpy.linalg.svd``.

    Singular values at or below ``max(m, n) * eps * sigma_max`` are set to 0;
    their u-columns stay orthonormal.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("svd expects a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("svd input has non-finite entries")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    rank_tol = max(a.shape) * np.finfo(float).eps * (sigma[0] if sigma.size else 0.0)
    sigma[sigma <= rank_tol] = 0.0
    v = vt.T
    # Sign canon: largest-|entry| of each u-column made positive.
    cols = np.arange(u.shape[1])
    flip = u[np.argmax(np.abs(u), axis=0), cols] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdResult(u=u, sigma=sigma, v=v)


def random_orthogonal(n: int, seed) -> Array:
    """Haar-distributed random orthogonal n x n matrix via sign-corrected QR.

    Draws one n x n standard-normal matrix from ``seed`` (a Generator is
    used as is, so successive calls on one generator give successive draws).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q, r = np.linalg.qr(_rng(seed).standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def haar_blocks(n: int, seed, block_size: int) -> list[Array]:
    """The diagonal blocks of a block-diagonal Haar orthogonal n x n matrix.

    Blocks of ``block_size`` rows (the last one smaller when it does not
    divide n) are successive ``random_orthogonal`` draws from one generator,
    so ``n <= block_size`` gives the single block ``random_orthogonal(n, seed)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    rng = _rng(seed)
    return [random_orthogonal(min(block_size, n - start), rng)
            for start in range(0, n, block_size)]


@dataclass(frozen=True)
class PowerIterationResult:
    vector: Array
    value: float
    value_history: tuple[float, ...]
    flagged: bool  # non-unique dominant eigenvalue suspected


def power_iteration(apply: Callable[[Array], Array], iters: int,
                    init: Array) -> PowerIterationResult:
    """Dominant eigenpair of a symmetric PSD operator by power iteration.

    ``apply`` is a callable ``x -> A x`` that applies the matrix without
    forming it, and ``init`` a non-zero start vector. Each product also
    serves the Rayleigh quotient of the iterate it came from, so a run takes
    ``iters + 1`` products. The returned value is the Rayleigh quotient of
    the final iterate. A zero operator is not detected; callers that can
    meet one check their input first.
    """
    x = np.asarray(init, dtype=float).copy()
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise ValueError("power_iteration init vector must be non-zero")
    x /= nrm

    history: list[float] = []
    y = apply(x)
    for _ in range(iters):
        ny = np.linalg.norm(y)
        if ny == 0:
            # init landed in the null space; restart from a fixed perturbation
            x = x + 1e-6
            x /= np.linalg.norm(x)
            y = apply(x)
            continue
        x = y / ny
        y = apply(x)
        history.append(float(x @ y))
    value = history[-1] if history else float(x @ y)
    flagged = False
    if len(history) >= 2 and abs(history[-1] - history[-2]) > 1e-8 * max(abs(value), 1.0):
        flagged = True  # slow/ambiguous convergence (e.g. degenerate spectrum)
    return PowerIterationResult(vector=x, value=value, value_history=tuple(history), flagged=flagged)


def softmax_rows(m: Array) -> Array:
    """Numerically stable row-wise softmax (max-shifted)."""
    m = np.asarray(m, dtype=float)
    e = m - np.max(m, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def logmeanexp(x: Array) -> float:
    """log(mean(exp(x))) with max-shifting."""
    x = np.asarray(x, dtype=float).ravel()
    mx = float(np.max(x))
    return mx + float(np.log(np.mean(np.exp(x - mx))))


# ---------------------------------------------------------------------------
# Dense networks with explicit backprop and Adam
# ---------------------------------------------------------------------------

ACTIVATIONS = ("sigmoid", "relu", "tanh", "linear")


def _act(name: str, z: Array) -> Array:
    """Activation of ``z``; relu overwrites ``z`` with its output."""
    if name == "sigmoid":
        # exp of a non-positive argument never overflows; both branches
        # give the textbook 1 / (1 + exp(-z)) on their own half-line
        e = np.exp(-np.abs(z))
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, a: Array) -> Array:
    """Derivative of a non-linear activation, from its output ``a``."""
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "relu":
        return a > 0
    if name == "tanh":
        return 1.0 - a * a
    raise ValueError(f"unknown activation {name!r}")


def _buf(ws: dict | None, key, shape) -> Array | None:
    """The scratch buffer ``ws[key]`` of ``shape``, made on first use; None without ``ws``."""
    if ws is None:
        return None
    b = ws.get(key)
    if b is None or b.shape != shape:
        b = ws[key] = np.empty(shape)
    return b


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment buffers for one parameter tensor, updated in place."""

    m: Array
    v: Array
    t: int = 0

    @classmethod
    def like(cls, p: Array) -> "AdamState":
        return cls(m=np.zeros_like(p), v=np.zeros_like(p))

    def copy(self) -> "AdamState":
        return AdamState(self.m.copy(), self.v.copy(), self.t)

    def update(self, p: Array, grad: Array, lr: float) -> Array:
        """Advance the moments by one step; returns the updated parameters."""
        b1, b2 = ADAM_BETAS
        self.t += 1
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * grad * grad
        step = self.m / (1 - b1 ** self.t)
        step *= lr
        step /= np.sqrt(self.v / (1 - b2 ** self.t)) + ADAM_EPS
        return p - step


@dataclass
class DenseLayer:
    w: Array  # (fan_in, fan_out)
    b: Array  # (fan_out,)
    activation: str


class DenseNet:
    """A stack of dense layers with manual forward/backward and Adam state.

    ``backward`` returns per-layer (dW, db) gradients plus the gradient with
    respect to the network input, so nets can be chained (encoder feeding an
    attention block feeding a critic, etc.); either part can be skipped when
    the caller discards it.

    All weights and biases live in one flat buffer, laid out as
    ``w_0, b_0, w_1, b_1, ...``; each layer's ``w`` and ``b`` are views into
    it, so they must be modified in place, never rebound (``adam_step``
    raises if one has been). One Adam state covers the whole buffer; it is
    made on the first ``adam_step``, so a net that is only evaluated (a
    loaded checkpoint) carries none.
    """

    def __init__(self, layers: list[DenseLayer]):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.w.shape[1] != nxt.w.shape[0]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.layers = layers
        self._params = np.concatenate(
            [np.ravel(x) for l in layers for x in (l.w, l.b)], dtype=float)
        start = 0
        for l in layers:
            l.w = self._params[start:start + l.w.size].reshape(l.w.shape)
            start += l.w.size
            l.b = self._params[start:start + l.b.size]
            start += l.b.size
        self._adam: AdamState | None = None  # made by the first adam_step

    @classmethod
    def create(cls, sizes: list[int], activations: list[str], rng) -> "DenseNet":
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ValueError("sizes/activations mismatch")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        rng = _rng(rng)
        layers = []
        for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            w = rng.standard_normal((fan_in, fan_out)) * scale
            layers.append(DenseLayer(w=w, b=np.zeros(fan_out), activation=act))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    def forward(self, x: Array, ws: dict | None = None):
        """Returns (output, cache); cache feeds ``backward``.

        ``ws`` is an optional dict of scratch buffers owned by the caller.
        With it, pre-activations (and, in ``backward``, gradients) are
        written into buffers kept there from the previous call of the same
        shapes instead of fresh arrays, so a full-batch training loop does
        not page in new megabyte-sized arrays every step. The output, cache
        and input gradient then live in those buffers and are overwritten by
        the next call with the same ``ws``. Values are the same with or
        without it.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"input width {x.shape[1]} != expected {self.input_dim}")
        cache = []
        a = x
        for i, layer in enumerate(self.layers):
            z = np.matmul(a, layer.w, out=_buf(ws, ("z", i), (a.shape[0], layer.w.shape[1])))
            z += layer.b  # in place: no second output-sized array
            a_next = _act(layer.activation, z)
            cache.append((a, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, grad_output: Array, ws: dict | None = None,
                 params: bool = True, inputs: bool = True):
        """Returns ([(dW, db) per layer], grad_input); ``ws`` as in ``forward``.

        ``params=False`` skips the weight gradients and ``inputs=False`` the
        first layer's input gradient; the skipped part is returned as None.
        The part that is computed is the same either way.
        """
        grads = [None] * len(self.layers)
        g = np.asarray(grad_output, dtype=float)
        for i in range(len(self.layers) - 1, -1, -1):
            a_in, a_out = cache[i]
            layer = self.layers[i]
            if layer.activation == "linear":
                gz = g
            else:
                gz = np.multiply(g, _act_grad(layer.activation, a_out),
                                 out=_buf(ws, ("gz", i), g.shape))
            if params:
                grads[i] = (a_in.T @ gz, gz.sum(axis=0))
            if i > 0 or inputs:
                g = np.matmul(gz, layer.w.T, out=_buf(ws, ("g", i), a_in.shape))
        return (grads if params else None), (g if inputs else None)

    def adam_step(self, grads, lr: float, ascend: bool = False) -> None:
        if len(grads) != len(self.layers):
            raise ValueError("gradient shape mismatch")
        for layer, (dw, db) in zip(self.layers, grads):
            if dw.shape != layer.w.shape or db.shape != layer.b.shape:
                raise ValueError("gradient shape mismatch")
            if layer.w.base is not self._params or layer.b.base is not self._params:
                raise RuntimeError(
                    "a layer's w or b was rebound away from the net's parameter "
                    "buffer; modify parameters in place")
        flat = np.concatenate([np.ravel(x) for pair in grads for x in pair])
        if ascend:
            flat = -flat
        if self._adam is None:
            self._adam = AdamState.like(self._params)
        self._params[:] = self._adam.update(self._params, flat, lr)

    def copy(self) -> "DenseNet":
        net = DenseNet([DenseLayer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers])
        net._adam = None if self._adam is None else self._adam.copy()
        return net

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"w": l.w.tolist(), "b": l.b.tolist(), "activation": l.activation}
                for l in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        layers = [
            DenseLayer(np.asarray(l["w"], dtype=float), np.asarray(l["b"], dtype=float),
                       l["activation"])
            for l in d["layers"]
        ]
        return cls(layers)
