"""Loss tasks and the SGD primitive shared by every training scheme.

A model travels between nodes as a flat parameter vector plus layer-shape
metadata (:class:`ModelVector`).  A :class:`LossTask` knows how to score and
differentiate a model on a batch of samples.  All operations are pure: they
never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericFaultError

LayerShape = tuple[tuple[str, tuple[int, ...]], ...]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


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
        n = sum(int(np.prod(dims)) for _, dims in self.shape)
        if self.params.ndim != 1 or self.params.size != n:
            raise ConfigError(
                f"parameter count {self.params.size} does not match shape total {n}"
            )

    @property
    def size(self) -> int:
        return self.params.size

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.params).all())

    def with_params(self, params: np.ndarray) -> "ModelVector":
        return ModelVector(params, self.shape)

    def layer_slices(self) -> dict[str, slice]:
        out, start = {}, 0
        for name, dims in self.shape:
            n = int(np.prod(dims))
            out[name] = slice(start, start + n)
            start += n
        return out

    def layer(self, name: str) -> np.ndarray:
        sl = self.layer_slices()[name]
        dims = dict(self.shape)[name]
        return self.params[sl].reshape(dims)


def require_composable(a: ModelVector, b: ModelVector) -> None:
    if a.shape != b.shape:
        raise ConfigError(f"model shapes differ: {a.shape} vs {b.shape}")


def average_models(models: list[ModelVector]) -> ModelVector:
    if not models:
        raise ConfigError("cannot average an empty model list")
    for m in models[1:]:
        require_composable(models[0], m)
    stacked = np.stack([m.params for m in models])
    return models[0].with_params(stacked.mean(axis=0))


class LossTask:
    """Interface every task implements.

    ``kind`` is one of ``quadratic-convex``, ``softmax-regression``,
    ``mlp-3fc``.  ``smoothness`` is the exact largest Hessian eigenvalue for
    the quadratic task and a supplied upper bound otherwise.
    """

    kind: str
    smoothness: float | None
    n_classes: int

    def initial_model(self, seed: int) -> ModelVector:
        raise NotImplementedError

    def per_sample_losses(self, model: ModelVector, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, model: ModelVector, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean gradient of the per-sample loss over the batch, flattened."""
        raise NotImplementedError

    def predict(self, model: ModelVector, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_batch(self, model: ModelVector, X: np.ndarray, y: np.ndarray) -> None:
        if len(X) == 0:
            raise ConfigError("batch is empty")
        if len(X) != len(y):
            raise ConfigError(f"features/labels length mismatch: {len(X)} vs {len(y)}")


@dataclass
class QuadraticTask(LossTask):
    """Convex quadratic with closed-form optimum and exact smoothness.

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

    def per_sample_losses(self, model, X, y):
        self._check_batch(model, X, y)
        delta = model.params - self.x_star
        quad = 0.5 * float(delta @ (self.hessian_diag * delta))
        return quad + self.noise_scale * (X @ delta)

    def gradient(self, model, X, y):
        self._check_batch(model, X, y)
        delta = model.params - self.x_star
        return self.hessian_diag * delta + self.noise_scale * X.mean(axis=0)

    def predict(self, model, X):
        raise ConfigError("quadratic task has no labels to predict")


@dataclass
class SoftmaxTask(LossTask):
    """Multinomial logistic regression (softmax) with cross-entropy loss."""

    n_features: int
    n_classes: int
    smoothness: float | None = None
    kind: str = field(default="softmax-regression", init=False)

    def model_shape(self) -> LayerShape:
        return (("w", (self.n_classes, self.n_features)), ("b", (self.n_classes,)))

    def initial_model(self, seed: int) -> ModelVector:
        # zero weights: uniform predictions, loss ln(C)
        n = self.n_classes * self.n_features + self.n_classes
        return ModelVector(np.zeros(n), self.model_shape())

    def _logits(self, model: ModelVector, X: np.ndarray) -> np.ndarray:
        w = model.layer("w")
        b = model.layer("b")
        return X @ w.T + b

    @staticmethod
    def _log_softmax(z: np.ndarray) -> np.ndarray:
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def per_sample_losses(self, model, X, y):
        self._check_batch(model, X, y)
        logp = self._log_softmax(self._logits(model, X))
        return -logp[np.arange(len(y)), y]

    def gradient(self, model, X, y):
        self._check_batch(model, X, y)
        logp = self._log_softmax(self._logits(model, X))
        p = np.exp(logp)
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        grad_w = p.T @ X
        grad_b = p.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])

    def predict(self, model, X):
        return self._logits(model, X).argmax(axis=1)


#: layer sizes of the small fully-connected MNIST-scale network
MLP_LAYERS = (784, 100, 100, 10)


@dataclass
class MlpTask(LossTask):
    """Three fully-connected layers, ReLU on the first two, softmax output.

    Weights initialise from a seeded uniform in +-1/sqrt(fan_in), biases zero.
    """

    layer_dims: tuple[int, ...] = MLP_LAYERS
    smoothness: float | None = None
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

    def _forward(self, model: ModelVector, X: np.ndarray):
        a1 = X @ model.layer("fc1_w").T + model.layer("fc1_b")
        h1 = np.maximum(a1, 0.0)
        a2 = h1 @ model.layer("fc2_w").T + model.layer("fc2_b")
        h2 = np.maximum(a2, 0.0)
        logits = h2 @ model.layer("fc3_w").T + model.layer("fc3_b")
        return a1, h1, a2, h2, logits

    def per_sample_losses(self, model, X, y):
        self._check_batch(model, X, y)
        logits = self._forward(model, X)[-1]
        logp = SoftmaxTask._log_softmax(logits)
        return -logp[np.arange(len(y)), y]

    def gradient(self, model, X, y):
        self._check_batch(model, X, y)
        m = len(y)
        a1, h1, a2, h2, logits = self._forward(model, X)
        p = np.exp(SoftmaxTask._log_softmax(logits))
        p[np.arange(m), y] -= 1.0
        p /= m
        g3_w = p.T @ h2
        g3_b = p.sum(axis=0)
        d2 = (p @ model.layer("fc3_w")) * (a2 > 0)
        g2_w = d2.T @ h1
        g2_b = d2.sum(axis=0)
        d1 = (d2 @ model.layer("fc2_w")) * (a1 > 0)
        g1_w = d1.T @ X
        g1_b = d1.sum(axis=0)
        return np.concatenate([
            g1_w.ravel(), g1_b, g2_w.ravel(), g2_b, g3_w.ravel(), g3_b,
        ])

    def predict(self, model, X):
        return self._forward(model, X)[-1].argmax(axis=1)


def evaluate_loss(model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray) -> float:
    """Mean per-sample loss of ``model`` on the batch. Deterministic."""
    return float(task.per_sample_losses(model, X, y).mean())


def sgd_step(
    model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray, lr: float
) -> ModelVector:
    """One stochastic gradient step: ``model - lr * grad(model, batch)``."""
    grad = task.gradient(model, X, y)
    if grad.shape != model.params.shape:
        raise ConfigError(
            f"gradient size {grad.size} does not match model size {model.size}"
        )
    if not np.isfinite(grad).all():
        raise NumericFaultError("gradient contains NaN/Inf")
    return model.with_params(model.params - lr * grad)


def accuracy(model: ModelVector, task: LossTask, X: np.ndarray, y: np.ndarray) -> float:
    return float((task.predict(model, X) == y).mean())
