"""Loss tasks and the SGD primitive shared by every training scheme.

A model travels between nodes as a flat parameter vector plus layer-shape
metadata (:class:`ModelVector`).  A :class:`LossTask` knows how to score and
differentiate stacks of models on batches of samples, and :func:`score_wave`
and :func:`step_winners` are the only code that asks it to.  All operations
are pure: they never mutate their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericFaultError

LayerShape = tuple[tuple[str, tuple[int, ...]], ...]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


class _Layout(NamedTuple):
    slices: Mapping[str, slice]
    dims: Mapping[str, tuple[int, ...]]
    size: int


@functools.cache
def _layout(shape: LayerShape) -> _Layout:
    """Slices, dims and parameter total of a shape, computed once per shape."""
    slices, start = {}, 0
    for name, dims in shape:
        n = int(np.prod(dims))
        slices[name] = slice(start, start + n)
        start += n
    return _Layout(MappingProxyType(slices), MappingProxyType(dict(shape)), start)


def _stack_layers(params: np.ndarray, shape: LayerShape) -> list[np.ndarray]:
    """Each layer of an ``(..., P)`` parameter stack as an ``(..., *dims)``
    view, in shape order."""
    layout = _layout(shape)
    return [params[..., sl].reshape(params.shape[:-1] + layout.dims[name])
            for name, sl in layout.slices.items()]


@dataclass(frozen=True)
class ModelVector:
    """Flat parameter vector with layer-shape metadata.

    Two ModelVectors are composable (addable/averageable) iff their ``shape``
    metadata is identical.
    """

    params: np.ndarray
    shape: LayerShape

    def __post_init__(self):
        object.__setattr__(self, "params", _frozen(self.params))
        n = _layout(self.shape).size
        if self.params.ndim != 1 or self.params.size != n:
            raise ConfigError(
                f"parameter count {self.params.size} does not match shape total {n}"
            )

    @property
    def size(self) -> int:
        return self.params.size

    def with_params(self, params: np.ndarray) -> "ModelVector":
        return ModelVector(params, self.shape)

    def layer_slices(self) -> Mapping[str, slice]:
        return _layout(self.shape).slices

    def layer(self, name: str) -> np.ndarray:
        layout = _layout(self.shape)
        return self.params[layout.slices[name]].reshape(layout.dims[name])


def require_composable(*models: ModelVector) -> None:
    """Raise unless all ``models`` share the first one's shape."""
    for m in models[1:]:
        if m.shape != models[0].shape:
            raise ConfigError(f"model shapes differ: {models[0].shape} vs {m.shape}")


def average_models(models: list[ModelVector]) -> ModelVector:
    if not models:
        raise ConfigError("cannot average an empty model list")
    require_composable(*models)
    stacked = np.stack([m.params for m in models])
    return models[0].with_params(stacked.mean(axis=0))


class LossTask:
    """Interface every task implements.

    ``kind`` is one of ``quadratic-convex``, ``softmax-regression``,
    ``mlp-3fc``.
    """

    kind: str
    n_classes: int

    def initial_model(self, seed: int) -> ModelVector:
        raise NotImplementedError

    def stacked_forward(
        self, params: np.ndarray, shape: LayerShape, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray] | None]:
        """``(T, S, B)`` per-sample losses of ``S`` models on each of ``T``
        batches, ``X`` of shape ``(T, B, d)`` and ``y`` ``(T, B)``, with the
        forward :meth:`stacked_gradient` reads (None if it reads none).  The
        ``(T, S, P)`` parameter stack may be ``(1, S, P)``, the same ``S``
        models on every batch.  Entry ``[t, s]`` equals the losses of model
        ``s`` alone on batch ``t``."""
        raise NotImplementedError

    def stacked_gradient(self, params: np.ndarray, shape: LayerShape, outputs,
                         X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``(T, P)`` mean gradients of the ``T`` models of a ``(T, P)`` stack,
        each on its own batch of ``X`` and ``y``, from ``outputs``, each model's
        row of :meth:`stacked_forward`'s; row ``t`` is model ``t``'s gradient
        on batch ``t``, the same whatever else the stack holds."""
        raise NotImplementedError

    def predict(self, model: ModelVector, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_batch(self, X: np.ndarray, y: np.ndarray) -> None:
        """A stack of batches ``(T, B, d)`` with one label per sample."""
        if X.shape[-2] == 0:
            raise ConfigError("batch is empty")
        if X.shape[:-1] != y.shape:
            raise ConfigError(f"features/labels length mismatch: {X.shape[-2]} vs {y.shape[-1]}")


@dataclass
class QuadraticTask(LossTask):
    """Convex quadratic with closed-form optimum; ``smoothness`` is the exact
    largest Hessian eigenvalue.

    Per-sample loss for sample feature vector ``e`` (drawn at dataset build
    time, mean-centred over the full dataset):

        l(x, e) = 0.5 (x-x*)^T diag(h) (x-x*) + noise_scale * e . (x-x*)

    With ``noise_scale = 0`` every batch yields the identical deterministic
    loss/gradient.  With ``noise_scale > 0`` mini-batch gradients carry
    additive zero-mean noise of constant scale, while the full-dataset batch
    recovers the exact quadratic (the noise vectors are centred).
    """

    hessian_diag: np.ndarray
    x_star: np.ndarray
    noise_scale: float = 0.0
    kind: str = field(default="quadratic-convex", init=False)
    n_classes: int = field(default=0, init=False)

    def __post_init__(self):
        self.hessian_diag = np.asarray(self.hessian_diag, dtype=np.float64)
        self.x_star = np.asarray(self.x_star, dtype=np.float64)
        if (self.hessian_diag <= 0).any():
            raise ConfigError("quadratic task needs a positive definite Hessian")
        self.smoothness = float(self.hessian_diag.max())

    @property
    def dim(self) -> int:
        return self.x_star.size

    def model_shape(self) -> LayerShape:
        return (("x", (self.dim,)),)

    def make_model(self, params: np.ndarray) -> ModelVector:
        return ModelVector(np.asarray(params, dtype=np.float64), self.model_shape())

    def initial_model(self, seed: int) -> ModelVector:
        rng = np.random.default_rng([int(seed), 0x71])
        offset = rng.standard_normal(self.dim)
        offset *= 2.0 / max(np.linalg.norm(offset), 1e-12)
        return self.make_model(self.x_star + offset)

    def optimum(self) -> ModelVector:
        return self.make_model(self.x_star)

    def stacked_forward(self, params, shape, X, y):
        stacks = np.broadcast_to(params, (len(X),) + params.shape[1:])
        losses = np.empty(stacks.shape[:2] + (X.shape[1],))
        for row, stack, x in zip(losses, stacks, X):
            for out, p in zip(row, stack):
                delta = p - self.x_star
                quad = 0.5 * float(delta @ (self.hessian_diag * delta))
                out[:] = quad + self.noise_scale * (x @ delta)
        return losses, None

    def stacked_gradient(self, params, shape, outputs, X, y):
        return np.array([self.hessian_diag * (p - self.x_star) + self.noise_scale * x.mean(axis=0)
                         for p, x in zip(params, X)])

    def predict(self, model, X):
        raise ConfigError("quadratic task has no labels to predict")


def _softmax_terms(logits: np.ndarray) -> list[np.ndarray]:
    """Each row's maximum and the log of its sum of ``exp(logit - max)``,
    keeping the last axis: ``logits - max - lse`` is the log-softmax."""
    top = logits.max(axis=-1, keepdims=True)
    z = logits - top
    return [top, np.log(np.exp(z, out=z).sum(axis=-1, keepdims=True))]


class DenseTask(LossTask):
    """Dense network: the (weight, bias) pairs of ``model_shape()`` in order,
    a ReLU between layers, softmax cross-entropy on the last one's logits."""

    @staticmethod
    def _forward(layers: list[np.ndarray], X: np.ndarray) -> list[np.ndarray]:
        """Each layer's ``(..., B, width)`` output, the logits last, for
        ``layers`` alternating ``(..., width, fan_in)`` weight and ``(...,
        width)`` bias stacks and samples ``X`` whose leading axes broadcast
        with theirs.

        The matmul runs one gemm per (batch, model) pair on the operands of a
        lone model's ``h @ w.T``, so every slice is bit-identical to it; one
        ``(B, S*width)`` product is not.
        """
        outputs, h = [], X
        last = len(layers) - 2
        for i in range(0, len(layers), 2):
            h = np.matmul(h, layers[i].swapaxes(-1, -2))
            h += layers[i + 1][..., None, :]
            if i < last:
                np.maximum(h, 0.0, out=h)  # ReLU
            outputs.append(h)
        return outputs

    def stacked_forward(self, params, shape, X, y):
        # each layer's output, then the logits' softmax terms
        outputs = self._forward(_stack_layers(params, shape), X[:, None])
        outputs += _softmax_terms(outputs[-1])
        *_, logits, top, lse = outputs
        T, S, B, C = logits.shape
        label = logits.ravel()[np.arange(T * S * B).reshape(T, S, B) * C + y[:, None, :]]
        # -log_softmax at the label, negated exactly: lse - (logit - max)
        return lse[..., 0] - (label - top[..., 0]), outputs

    def stacked_gradient(self, params, shape, outputs, X, y):
        T, B = y.shape
        *hidden, logits, top, lse = outputs
        delta = np.exp(logits - top - lse)
        delta[np.arange(T)[:, None], np.arange(B), y] -= 1.0
        delta /= B
        # backward from the last layer; a ReLU output is > 0 exactly where its
        # pre-activation is, NaN included
        weights = _stack_layers(params, shape)[::2] if hidden else []
        inputs = [X, *hidden]
        grads = []
        for k in range(len(inputs) - 1, -1, -1):
            grads += [delta.sum(axis=1), (delta.swapaxes(1, 2) @ inputs[k]).reshape(T, -1)]
            if k:
                delta = (delta @ weights[k]) * (inputs[k] > 0)
        return np.concatenate(grads[::-1], axis=1)

    def predict(self, model, X):
        logits = self._forward(_stack_layers(model.params[None], model.shape), X)[-1]
        return logits[0].argmax(axis=1)


@dataclass
class SoftmaxTask(DenseTask):
    """Multinomial logistic regression: the dense network with no hidden layer."""

    n_features: int
    n_classes: int
    kind: str = field(default="softmax-regression", init=False)

    def model_shape(self) -> LayerShape:
        return (("w", (self.n_classes, self.n_features)), ("b", (self.n_classes,)))

    def initial_model(self, seed: int) -> ModelVector:
        # zero weights: uniform predictions, loss ln(C)
        n = self.n_classes * self.n_features + self.n_classes
        return ModelVector(np.zeros(n), self.model_shape())


#: layer sizes of the small fully-connected MNIST-scale network
MLP_LAYERS = (784, 100, 100, 10)


@dataclass
class MlpTask(DenseTask):
    """Three fully-connected layers, ReLU on the first two, softmax output.

    Weights initialise from a seeded uniform in +-1/sqrt(fan_in), biases zero.
    """

    layer_dims: tuple[int, ...] = MLP_LAYERS
    kind: str = field(default="mlp-3fc", init=False)

    def __post_init__(self):
        if len(self.layer_dims) != 4:
            raise ConfigError("mlp-3fc expects exactly three weight matrices")
        self.n_classes = self.layer_dims[-1]

    def model_shape(self) -> LayerShape:
        d = self.layer_dims
        return (
            ("fc1_w", (d[1], d[0])), ("fc1_b", (d[1],)),
            ("fc2_w", (d[2], d[1])), ("fc2_b", (d[2],)),
            ("fc3_w", (d[3], d[2])), ("fc3_b", (d[3],)),
        )

    def initial_model(self, seed: int) -> ModelVector:
        rng = np.random.default_rng([int(seed), 0x3F])
        parts = []
        for name, dims in self.model_shape():
            if name.endswith("_b"):
                parts.append(np.zeros(int(np.prod(dims))))
            else:
                fan_in = dims[1]
                bound = 1.0 / np.sqrt(fan_in)
                parts.append(rng.uniform(-bound, bound, size=int(np.prod(dims))))
        return ModelVector(np.concatenate(parts), self.model_shape())


class WaveScores(NamedTuple):
    """A wave's stacked forward (:func:`score_wave`): ``losses[t, s]`` is the
    mean loss of model ``s`` of row ``t`` on batch ``t``; ``params`` and
    ``finite`` (whether a model is, None if all are) have one row per row of
    models; the rest is what :func:`step_winners` reads."""

    losses: np.ndarray
    params: np.ndarray
    finite: np.ndarray
    outputs: list[np.ndarray] | None
    task: LossTask
    shape: LayerShape
    X: np.ndarray
    y: np.ndarray


def score_wave(
    models: Sequence[Sequence[ModelVector]], task: LossTask, X: np.ndarray, y: np.ndarray
) -> WaveScores:
    """Mean per-sample loss of each row of ``models`` on its own batch, in one
    stacked forward.  ``X`` ``(T, B, d)`` and ``y`` ``(T, B)`` hold ``T``
    batches, and ``models`` ``T`` lists of ``S`` models, or one list that
    every batch shares and that broadcasts.

    A finite model's loss is the same whatever else the wave holds; a model
    with a NaN/Inf parameter is not evaluated (zeros stand in for it) and
    scores +inf.  A loss is the sum along a contiguous row of per-sample
    losses, the 1-D sum ``row.mean()`` computes, over its length.  All models
    must share one shape.
    """
    require_composable(*(m for row in models for m in row))
    task._check_batch(X, y)
    shape = models[0][0].shape
    # np.array copies equal-length rows into one block faster than np.stack
    params = np.array([[m.params for m in row] for row in models])
    finite = None if np.isfinite(params).all() else np.isfinite(params).all(axis=-1)
    live = params if finite is None else np.where(finite[..., None], params, 0.0)
    per_sample, outputs = task.stacked_forward(live, shape, X, y)
    losses = np.add.reduce(per_sample, axis=-1) / X.shape[1]
    if finite is not None:
        losses = np.where(finite, losses, np.inf)
    return WaveScores(losses, params, finite, outputs, task, shape, X, y)


def step_winners(scores: WaveScores, rows: Sequence[int], lr: float) -> list[ModelVector]:
    """One SGD step of model ``rows[t]`` of each row of ``scores`` on its batch
    ``t``, all in one stacked backward from their rows of its forward, with
    no second forward; each is the step of that model alone.  A non-finite
    model has no row of the forward, so a wave that steps one is forwarded
    again; a NaN/Inf gradient raises :class:`NumericFaultError`."""
    T = len(scores.X)
    # one batch: a slice and an int index views where index arrays copy
    at = (slice(None), int(rows[0])) if T == 1 else (np.arange(T), np.asarray(rows))
    # a list every batch shares has one row of parameters
    own = at if len(scores.params) == T else (0, at[1])
    params = scores.params[own]
    outputs = scores.outputs
    if outputs is not None and (scores.finite is None or scores.finite[own].all()):
        outputs = [h[at] for h in outputs]
    elif outputs is not None:
        outputs = [h[:, 0] for h in scores.task.stacked_forward(
            params[:, None], scores.shape, scores.X, scores.y)[1]]
    grads = scores.task.stacked_gradient(params, scores.shape, outputs, scores.X, scores.y)
    if not np.isfinite(grads).all():
        raise NumericFaultError("gradient contains NaN/Inf")
    # a row of its own per model: a view would keep the whole block alive
    return [ModelVector(p - lr * g, scores.shape) for p, g in zip(params, grads)]


def evaluate_loss(model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray) -> float:
    """Mean per-sample loss of ``model`` on the batch, +inf for a non-finite
    model: a wave of one model."""
    return float(score_wave([[model]], task, X[None], y[None]).losses[0, 0])


def sgd_step(
    model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray, lr: float
) -> ModelVector:
    """One stochastic gradient step, ``model - lr * grad(model, batch)``: a
    wave of one model."""
    return step_winners(score_wave([[model]], task, X[None], y[None]), [0], lr)[0]


#: byte budget of one stacked float32 logit block in :func:`accuracy`: 16
#: desk-sized models (16 classes, 2,000 samples); half a 4 MiB L2 leaves
#: room for the product's operands, and timed fastest from 512 KiB to 4 MiB
_SCORE_CHUNK_BYTES = 1 << 21
#: unit roundoffs of float64 and float32
_U, _U32 = 2.0 ** -53, 2.0 ** -24
#: the least float32 subnormal
_TINY32 = 2.0 ** -149
#: absolute slack for subnormal products and underflow in the bound's own arithmetic
_TINY = 2.0 ** -1000
#: a scale from here up might overflow a float64 or a float32 partial sum;
#: a model of such a scale is not decided in that precision
_HUGE, _HUGE32 = 2.0 ** 1000, 2.0 ** 120


def _gamma(k: int, u: float) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``, or inf (deciding nothing) from
    ``k u >= 1/16`` on, so a finite one is at most 1/15."""
    return k * u / (1.0 - k * u) if 16 * k * u < 1 else math.inf


def _label_index(y: np.ndarray) -> np.ndarray:
    """``y_i B + i``, the flat index of each sample's label logit in a ``(C,
    B)`` logit block."""
    return y * len(y) + np.arange(len(y))


def _label_margins(logits: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``f_iy - max_{c != y_i} f_ic`` of each ``(C, B)`` block of an ``(s, C,
    B)`` logit stack, as ``(s, B)``, with ``at`` the :func:`_label_index` of
    the labels; the label logits are overwritten."""
    s, C, B = logits.shape
    flat = logits.reshape(s, C * B)
    label = np.take(flat, at, axis=1)
    flat[:, at] = -np.inf
    return label - logits.max(axis=1)


def _float64_hits(w: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
                  tol: float) -> int | None:
    """Label hits of one model ``(w, b)`` on the samples ``X`` in float64, or
    None if a margin is NaN or within ``tol`` of zero."""
    margin = _label_margins((w @ X.T + b[:, None])[None], _label_index(y))
    return int(np.count_nonzero(margin > 0)) if (np.abs(margin) > tol).all() else None


def _reference_accuracy(model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray) -> float:
    return float((task.predict(model, X) == y).mean())


def _inflated(norm, n: int):
    """A computed 2-norm of at most ``n + 1`` terms, raised to bound the true one."""
    return norm * (1.0 + _gamma(n + 2, _U)) + math.sqrt(n + 1) * 2.0 ** -536


class _Float32Inputs(NamedTuple):
    """What :func:`accuracy` reads of a test set to score it in float32."""

    #: ``(n+1, B)``: each sample a column, with a trailing 1 that multiplies
    #: the bias; the right-hand operand of every logit block's product
    xt: np.ndarray
    #: the inflated largest sample norm
    nx: float
    #: :func:`_label_index` of the labels
    at: np.ndarray


def _float32_inputs(X: np.ndarray, y: np.ndarray) -> _Float32Inputs:
    """The :class:`_Float32Inputs` of the samples ``X`` with labels ``y``."""
    B, n = X.shape
    nx = _inflated(math.sqrt(np.einsum("ij,ij->i", X, X).max()), n)
    # inputs past float32's range stay 0, and then no model fits
    xt = np.ones((n + 1, B), np.float32)
    np.copyto(xt[:n], X.T, where=nx < _HUGE32)
    return _Float32Inputs(xt, nx, _label_index(y))


class EvalSet:
    """Test samples ``X``, ``y`` with what :func:`accuracy` reads of them to
    score in float32 (:class:`_Float32Inputs`), built on first use and then
    kept."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X, self.y = X, y

    @functools.cached_property
    def float32(self) -> _Float32Inputs:
        return _float32_inputs(self.X, self.y)


def accuracy(
    models: Sequence[ModelVector], task: LossTask, X: np.ndarray, y: np.ndarray,
    inputs: EvalSet | None = None,
) -> list[float]:
    """Test accuracy of each model: the share of samples whose ``argmax`` logit
    is the label, equal to :func:`_reference_accuracy` of the model alone.
    ``inputs``, the :class:`EvalSet` of ``X`` and ``y``, keeps the float32
    inputs, ``nx`` (below) and the label index from one call to the next.

    Softmax models are scored in float32, and a (model, sample) pair that
    float32 cannot decide is rechecked in float64.  An outcome is kept only
    where a bound proves it is the reference's, whose float64 logits
    ``x.w + b`` may round differently.  Let ``n = D``, ``gamma_k = k u / (1 -
    k u)`` with ``u = 2**-53`` (``gamma32_k`` with ``u32 = 2**-24``), and ``t
    = 2**-149``, the least float32 subnormal:

    - Any float64 summation order of ``x.w + b`` (with or without FMA) is
      within ``gamma_(n+1) S + (n+1) 2**-1074`` of the exact value, where ``S
      = sum_j |x_j w_j| + |b|`` (Higham, Thm. 3.1, plus ``2**-1075`` for each
      product that underflows).
    - Cauchy-Schwarz gives ``S <= |x| |w| + |b|``.  A true 2-norm is at most
      the computed one times ``1 + gamma_(n+2)``, plus ``sqrt(n+1)
      2**-536`` for squares that underflow.  ``nx`` and ``nw`` are computed
      norms so inflated, ``nx`` the largest over the samples and ``nw`` over
      the classes, ``nb = max_c |b_c|``, and ``scale = nx nw + nb``.

    The float32 tier computes each chunk of ``s`` models as one product
    ``(s*C, n+1) @ (n+1, B)``, the bias folded in as the weight of an
    all-ones input column, so each logit is a sum of ``n+1`` products
    ``a_j c_j`` of ``a = (x, 1)`` and ``c = (w, b)``:

    - Rounding ``a_j`` to float32 moves it by at most ``u32 |a_j| + t/2``
      (``t/2`` below the normal range), and likewise ``c_j``.  So
      ``a32_j c32_j`` is within ``(2 u32 + u32**2) |a_j c_j| + (t/2) (1 +
      u32) (|a_j| + |c_j|) + t**2/4`` of ``a_j c_j``.
    - Any float32 summation order of those products adds at most
      ``gamma32_(n+1) sum_j |a32_j c32_j|``, plus ``t/2`` for each product
      that underflows.
    - With ``(1 + gamma32_(n+1)) (1 + u32)**2 - 1 <= gamma32_(n+3)``
      (Higham, Lemma 3.3), ``gamma32_(n+3) <= 1/15`` and ``sum_j |x_j| <=
      sqrt(n) nx``, a float32 logit and the reference's differ by at most

          E32 = (gamma32_(n+3) + gamma_(n+2)) scale
                + t (sqrt(n) (nx + nw) + nb + 2n + 3).

      That last term is at least ``(n+1) t / 2`` more than the subnormal
      terms need, which covers the reference's ``(n+1) 2**-1074`` and any
      underflow in computing ``E32``.
    - Overflow: if ``(nx + 1) (nw + nb + 1) < 2**120``, no entry, product,
      partial sum or margin can reach float32's ``2**128``.  Otherwise the
      model's pairs are all left to the float64 recheck.

    The recheck scores a model's undecided samples with one float64 product
    ``(C, n) @ (n, k)``.  Two float64 orders differ by at most ``E64 = 2
    gamma_(n+2) scale + 2**-1000``, the last term for the subnormal terms.

    With ``d_i = f_iy - max_{c != y} f_ic`` on a tier's logits and ``E`` its
    bound, ``d_i > 2E`` proves that the reference logit of the label is the
    strict maximum, and ``d_i < -2E`` that another class beats it.  The
    factor ``1 + 2**-20`` on each ``2E`` covers the rounding of ``E`` and of
    the margins.  A NaN or Inf margin decides nothing.  A model with a
    sample that neither tier decides (an exact tie, say), or whose scale
    could overflow float64 (``scale >= 2**1000``), is scored by the
    reference, as is every model of another task; so each result is the
    reference's on any BLAS.  All models share one shape.
    """
    if not models:
        return []
    require_composable(*models)
    C, (B, n) = task.n_classes, X.shape
    if not (isinstance(task, SoftmaxTask) and B and 0 <= y.min() and y.max() < C):
        return [_reference_accuracy(m, task, X, y) for m in models]
    f32 = inputs.float32 if inputs is not None else _float32_inputs(X, y)
    per_chunk = max(1, _SCORE_CHUNK_BYTES // (C * B * 4))
    return [acc for start in range(0, len(models), per_chunk)
            for acc in _chunk_accuracy(models[start:start + per_chunk], task, X, y, f32)]


def _chunk_accuracy(models: Sequence[ModelVector], task: SoftmaxTask, X: np.ndarray,
                    y: np.ndarray, f32: _Float32Inputs) -> list[float]:
    """:func:`accuracy` of the softmax models of one logit block, so that
    every stack it builds is one block's."""
    C, (B, n), nx = task.n_classes, X.shape, f32.nx
    gamma = _gamma(n + 2, _U)
    slack = 2.0 * (1.0 + 2.0 ** -20)
    w, b = _stack_layers(np.array([m.params for m in models]), models[0].shape)
    nw = _inflated(np.sqrt(np.einsum("scd,scd->sc", w, w).max(axis=1)), n)
    nb = np.abs(b).max(axis=1)
    scale = nx * nw + nb
    # a NaN or Inf parameter makes its norms NaN or Inf, and fits False
    fits = (nx + 1.0) * (nw + nb + 1.0) < _HUGE32
    s = len(models)
    w32 = np.zeros((s, C, n + 1), np.float32)
    np.copyto(w32[..., :n], w, where=fits[:, None, None])
    np.copyto(w32[..., n], b, where=fits[:, None])
    e32 = ((_gamma(n + 3, _U32) + gamma) * scale
           + _TINY32 * (math.sqrt(n) * (nx + nw) + nb + 2 * n + 3))
    tol32 = np.where(fits, slack * e32, np.inf)[:, None]
    margin = _label_margins((w32.reshape(s * C, n + 1) @ f32.xt).reshape(s, C, B), f32.at)
    size = np.abs(margin)
    # a NaN or Inf margin decides nothing
    decided = (size > tol32) & (size < np.inf)
    hits: list[int | None] = np.count_nonzero(decided & (margin > 0), axis=1).tolist()
    e64 = 2.0 * gamma * scale + _TINY
    for i in np.flatnonzero(~decided.all(axis=1)).tolist():
        k = np.flatnonzero(~decided[i])
        more = (_float64_hits(w[i], b[i], X[k], y[k], slack * e64[i])
                if scale[i] < _HUGE else None)
        hits[i] = None if more is None else hits[i] + more
    return [h / B if h is not None else _reference_accuracy(m, task, X, y)
            for m, h in zip(models, hits)]
