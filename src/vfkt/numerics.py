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
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
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
    rng = np.random.default_rng(seed)
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


def logmeanexp(x: Array):
    """log(mean(exp(x))) along the last axis, with max-shifting."""
    x = np.asarray(x, dtype=float)
    mx = np.max(x, axis=-1)
    return mx + np.log(np.mean(np.exp(x - mx[..., None]), axis=-1))


# ---------------------------------------------------------------------------
# Dense networks with explicit backprop and Adam
# ---------------------------------------------------------------------------

ACTIVATIONS = ("sigmoid", "relu", "tanh", "linear")


def _act(name: str, z: Array) -> Array:
    """Activation of ``z``; relu overwrites ``z`` with its output."""
    if name == "sigmoid":
        # exp of a non-positive argument never overflows; with
        # e = exp(-|z|), 1 / (1 + e) for z >= 0 and e / (1 + e) below are
        # the textbook 1 / (1 + exp(-z)) on their own half-line
        e = np.abs(z)
        np.negative(e, out=e)
        np.exp(e, out=e)
        d = 1.0 + e
        num = np.where(z >= 0, 1.0, e)
        num /= d
        return num
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
        den = self.v / (1 - b2 ** self.t)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        return p - step


@dataclass
class DenseLayer:
    w: Array  # (fan_in, fan_out), or (K, fan_in, fan_out) in a stacked net
    b: Array  # (fan_out,), or (K, fan_out)
    activation: str


class DenseNet:
    """A stack of dense layers with manual forward/backward and Adam steps.

    ``backward`` returns the gradients with respect to the parameters, laid
    out as ``params`` for ``adam_step``, and to the network input, so nets
    can be chained (encoder feeding an attention block feeding a critic,
    etc.); either part can be skipped when the caller discards it.

    All weights and biases live in one flat buffer, ``params``, laid out as
    ``w_0, b_0, w_1, b_1, ...``; each layer's ``w`` and ``b`` are views into
    it, so they must be modified in place, never rebound (``adam_step``
    raises if one has been); unpickling goes through ``__init__``, which
    makes them views again. A net holds parameters only: the Adam moments
    belong to the loop that steps it, which makes them with ``adam_state``.

    ``stack`` makes one net of K nets of one layout: ``params`` is (K, P),
    row k laid out as net k's, ``w`` and ``b`` are (K, fan_in, fan_out) and
    (K, fan_out) views, the input is (K, n, fan_in) and every other array
    gains the leading K axis. Each row steps bit for bit as its own net.
    """

    def __init__(self, layers: list[DenseLayer]):
        for i, l in enumerate(layers):
            if l.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {l.activation!r}")
            if l.w.ndim not in (2, 3) or l.b.shape != l.w.shape[:-2] + l.w.shape[-1:]:
                raise ValueError(f"bias of shape {l.b.shape} for weights of shape {l.w.shape}")
            if i and layers[i - 1].b.shape != l.w.shape[:-1]:
                raise ValueError("consecutive layer dimensions do not chain")
        self.layers = layers
        self.params = np.concatenate(
            [x for l in layers for x in (l.w.reshape(l.b.shape[:-1] + (-1,)), l.b)], axis=-1,
            dtype=float)
        start = 0
        for l in layers:
            fan_in, fan_out = l.w.shape[-2:]
            l.w = self.params[..., start:start + fan_in * fan_out].reshape(l.w.shape)
            start += fan_in * fan_out
            l.b = self.params[..., start:start + fan_out]
            start += fan_out

    @classmethod
    def create(cls, sizes: list[int], activations: list[str], rng) -> "DenseNet":
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ValueError("sizes/activations mismatch")
        rng = np.random.default_rng(rng)
        layers = []
        for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            w = rng.standard_normal((fan_in, fan_out)) * scale
            layers.append(DenseLayer(w=w, b=np.zeros(fan_out), activation=act))
        return cls(layers)

    @classmethod
    def stack(cls, nets: list["DenseNet"]) -> "DenseNet":
        """The stacked net whose row k is a copy of ``nets[k]``; all share one layout."""
        if any(n.layout != nets[0].layout for n in nets):
            raise ValueError("stacked nets must share one layout")
        return cls([DenseLayer(np.stack([l.w for l in ls]), np.stack([l.b for l in ls]),
                               ls[0].activation)
                    for ls in zip(*(n.layers for n in nets))])

    def unstack(self) -> list["DenseNet"]:
        """Copies of the K nets of a stack, in row order: the inverse of ``stack``."""
        return [DenseNet([DenseLayer(l.w[k], l.b[k], l.activation) for l in self.layers])
                for k in range(len(self.params))]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[-2]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[-1]

    @property
    def layout(self) -> tuple:
        """Each layer's ``((fan_in, fan_out), activation)``."""
        return tuple((l.w.shape, l.activation) for l in self.layers)

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
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"input width {x.shape[-1]} != expected {self.input_dim}")
        cache = []
        a = x
        for i, layer in enumerate(self.layers):
            # no shape tuple without ws: training runs this thousands of times on small nets
            out = None if ws is None else _buf(ws, ("z", i), a.shape[:-1] + layer.w.shape[-1:])
            z = np.matmul(a, layer.w, out=out)
            z += layer.b[..., None, :]  # in place: no second output-sized array
            a_next = _act(layer.activation, z)
            cache.append((a, a_next))
            a = a_next
        return a, cache

    def backward(self, cache, grad_output: Array, ws: dict | None = None,
                 params: bool = True, inputs: bool = True):
        """Returns (grad_params, grad_input), ``grad_params`` laid out as
        ``params``; ``ws`` as in ``forward``.

        ``params=False skips the weight gradients and ``inputs=False`` the
        first layer's input gradient; the skipped part is returned as None.
        The part that is computed is the same either way.
        """
        grads = [None] * (2 * len(self.layers))
        rows = self.params.shape[:-1] + (-1,)
        g = grad_output = np.asarray(grad_output, dtype=float)
        for i in range(len(self.layers) - 1, -1, -1):
            a_in, a_out = cache[i]
            layer = self.layers[i]
            if layer.activation == "linear":
                gz = g
            else:
                # a g this loop made is read by nothing else: gz overwrites it
                gz = np.multiply(g, _act_grad(layer.activation, a_out),
                                 out=_buf(ws, ("gz", i), g.shape) if g is grad_output else g)
            if params:
                grads[2 * i] = (a_in.swapaxes(-1, -2) @ gz).reshape(rows)
                grads[2 * i + 1] = gz.sum(axis=-2)
            if i > 0 or inputs:
                g = np.matmul(gz, layer.w.swapaxes(-1, -2), out=_buf(ws, ("g", i), a_in.shape))
            del gz  # before the next layer makes its activation gradient
        return (np.concatenate(grads, axis=-1) if params else None), (g if inputs else None)

    def adam_state(self) -> AdamState:
        """Zero Adam moments over this net's parameters, for ``adam_step``."""
        return AdamState.like(self.params)

    def adam_step(self, state: AdamState, grad: Array, lr: float) -> None:
        """One Adam step down ``grad``, laid out as ``params``, advancing ``state``."""
        if grad.shape != self.params.shape:
            raise ValueError("gradient shape mismatch")
        for layer in self.layers:
            if layer.w.base is not self.params or layer.b.base is not self.params:
                raise RuntimeError(
                    "a layer's w or b was rebound away from the net's parameter "
                    "buffer; modify parameters in place")
        self.params[:] = state.update(self.params, grad, lr)

    def __reduce__(self):
        return DenseNet, (self.layers,)

    def copy(self) -> "DenseNet":
        return DenseNet([DenseLayer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers])
