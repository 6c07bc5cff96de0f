import math

import numpy as np
import pytest

import basilsim.models as models_mod
from basilsim.attacks import hidden_attack
from basilsim.errors import ConfigError, NumericFaultError
from basilsim.models import (
    EvalSet,
    MlpTask,
    ModelVector,
    QuadraticTask,
    SoftmaxTask,
    accuracy,
    average_models,
    evaluate_loss,
    score_wave,
    sgd_step,
    step_winners,
)


def unit_quadratic(dim=2):
    return QuadraticTask(np.ones(dim), np.zeros(dim))


def quad_batch(task, n=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, task.dim))
    X -= X.mean(axis=0)
    return X, np.zeros(n, dtype=np.int64)


def finite_difference_gradient(task, model, X, y, step=1e-5):
    """Central-difference oracle on :func:`plain_loss`, independent of the
    analytic path and of the stacked forward."""
    grad = np.zeros(model.size)
    for i in range(model.size):
        plus = model.params.copy()
        minus = model.params.copy()
        plus[i] += step
        minus[i] -= step
        lp = plain_loss(task, model.with_params(plus), X, y)
        lm = plain_loss(task, model.with_params(minus), X, y)
        grad[i] = (lp - lm) / (2 * step)
    return grad


def wave_gradients(task, models, X, y):
    """Each model's mean gradient on the batch ``X``, ``y`` by the task's
    stacked forward and backward, as :func:`step_winners` takes them: a wave
    with one row per model, every row on the same batch."""
    params = np.array([m.params for m in models])
    X, y = np.repeat(X[None], len(models), axis=0), np.repeat(y[None], len(models), axis=0)
    _, outputs = task.stacked_forward(params[:, None], models[0].shape, X, y)
    outputs = outputs and [h[:, 0] for h in outputs]
    return task.stacked_gradient(params, models[0].shape, outputs, X, y)


class TestModelVector:
    def test_param_count_must_match_shape(self):
        with pytest.raises(ConfigError):
            ModelVector(np.zeros(3), (("x", (2,)),))

    def test_params_are_immutable(self):
        m = ModelVector(np.zeros(2), (("x", (2,)),))
        with pytest.raises(ValueError):
            m.params[0] = 1.0

    def test_composability_requires_identical_shapes(self):
        a = ModelVector(np.zeros(2), (("x", (2,)),))
        b = ModelVector(np.zeros(2), (("y", (2,)),))
        with pytest.raises(ConfigError):
            average_models([a, b])

    def test_average(self):
        a = ModelVector(np.array([1.0, 3.0]), (("x", (2,)),))
        b = ModelVector(np.array([3.0, 5.0]), (("x", (2,)),))
        np.testing.assert_allclose(average_models([a, b]).params, [2.0, 4.0])


class TestSgdStep:
    def test_identity_quadratic_example(self):
        # f(x) = 0.5 ||x||^2, gradient is x itself
        task = unit_quadratic()
        X, y = quad_batch(task)
        model = task.make_model([2.0, 0.0])
        out = sgd_step(model, task, X, y, lr=0.5)
        np.testing.assert_allclose(out.params, [1.0, 0.0])
        np.testing.assert_allclose(model.params, [2.0, 0.0])  # input untouched

    def test_zero_lr_is_identity(self):
        task = unit_quadratic()
        X, y = quad_batch(task)
        model = task.make_model([0.7, -1.2])
        out = sgd_step(model, task, X, y, lr=0.0)
        assert np.array_equal(out.params, model.params)

    def test_softmax_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        task = SoftmaxTask(n_features=3, n_classes=4)
        X = rng.standard_normal((4, 3))
        y = rng.integers(0, 4, size=4)
        model = ModelVector(rng.standard_normal(16) * 0.5, task.model_shape())
        analytic = wave_gradients(task, [model], X, y)[0]
        oracle = finite_difference_gradient(task, model, X, y)
        rel = np.linalg.norm(analytic - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-5

    def test_non_finite_gradient_raises(self):
        task = unit_quadratic()
        X, y = quad_batch(task)
        model = task.make_model([np.inf, 0.0])
        with pytest.raises(NumericFaultError):
            sgd_step(model, task, X, y, lr=0.1)

    def test_shape_mismatch_raises(self):
        task = SoftmaxTask(n_features=3, n_classes=2)
        other = unit_quadratic(4)
        model = other.make_model(np.zeros(4))
        X = np.zeros((2, 3))
        y = np.zeros(2, dtype=np.int64)
        with pytest.raises(Exception):
            sgd_step(model, task, X, y, lr=0.1)


class TestEvaluateLoss:
    def test_quadratic_optimum_is_zero(self):
        task = QuadraticTask(np.array([0.5, 2.0]), np.array([1.0, -1.0]))
        X, y = quad_batch(task)
        assert evaluate_loss(task.optimum(), task, X, y) == 0.0

    def test_uniform_softmax_gives_log_c(self):
        for c in (2, 5, 10):
            task = SoftmaxTask(n_features=6, n_classes=c)
            model = task.initial_model(0)
            rng = np.random.default_rng(c)
            X = rng.standard_normal((8, 6))
            y = rng.integers(0, c, size=8)
            assert evaluate_loss(model, task, X, y) == pytest.approx(math.log(c))

    def test_empty_batch_raises(self):
        task = unit_quadratic()
        with pytest.raises(ConfigError):
            evaluate_loss(task.optimum(), task, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_mlp_matches_independent_recomputation(self):
        # second, straightforward implementation of the forward pass
        task = MlpTask((12, 5, 4, 3))
        model = task.initial_model(0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 12))
        y = rng.integers(0, 3, size=10)

        def reference_loss(model, X, y):
            h = X
            for name in ("fc1", "fc2", "fc3"):
                h = h @ model.layer(f"{name}_w").T + model.layer(f"{name}_b")
                if name != "fc3":
                    h = np.where(h > 0, h, 0.0)
            total = 0.0
            for logits, label in zip(h, y):
                probs = np.exp(logits) / np.exp(logits).sum()
                total += -math.log(probs[label])
            return total / len(y)

        assert evaluate_loss(model, task, X, y) == pytest.approx(
            reference_loss(model, X, y), rel=1e-12)


#: name -> (task, features, classes); the softmax task has the desk run's
#: shape, on which one (B, S*C) product would not match the 3-D matmul
STACK_TASKS = {
    "quadratic": lambda: (QuadraticTask(np.linspace(0.3, 1.0, 6), np.linspace(-1, 1, 6),
                                        noise_scale=0.5), 6, 1),
    "softmax": lambda: (SoftmaxTask(64, 16), 64, 16),
    "mlp": lambda: (MlpTask((32, 24, 16, 8)), 32, 8),
}


def plain_loss(task, model, X, y):
    """One model's mean loss by 2-D numpy, the forward used before stacking."""
    if task.kind == "quadratic-convex":
        delta = model.params - task.x_star
        losses = (0.5 * float(delta @ (task.hessian_diag * delta))
                  + task.noise_scale * (X @ delta))
        return float(losses.mean())
    names = ["fc1", "fc2", "fc3"] if task.kind == "mlp-3fc" else [""]
    h = X
    for i, name in enumerate(names):
        prefix = f"{name}_" if name else ""
        h = h @ model.layer(f"{prefix}w").T + model.layer(f"{prefix}b")
        if i < len(names) - 1:
            h = np.maximum(h, 0.0)
    z = h - h.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float((-logp[np.arange(len(y)), y]).mean())


def score_row(models, task, X, y):
    """The losses of one row of models on one batch: a wave of one batch."""
    return score_wave([models], task, X[None], y[None]).losses[0].tolist()


class TestEvaluateLosses:
    """A row of :func:`score_wave` on one batch must equal the plain-numpy
    losses of each model alone bit for bit: an argmin over candidates breaks
    ties by position, so a last-digit difference can change which model a
    node selects."""

    @pytest.mark.parametrize("kind", sorted(STACK_TASKS))
    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 17, 80])
    def test_stack_equals_one_model_at_a_time(self, kind, batch):
        task, features, classes = STACK_TASKS[kind]()
        rng = np.random.default_rng(batch)
        X = rng.standard_normal((batch, features)) * 2.0
        y = rng.integers(0, classes, size=batch)
        start = task.initial_model(0)
        for count in range(1, 10):
            models = [start.with_params(rng.standard_normal(start.size) * 0.5)
                      for _ in range(count)]
            want = [plain_loss(task, m, X, y) for m in models]
            assert score_row(models, task, X, y) == want
            assert [evaluate_loss(m, task, X, y) for m in models] == want

    def test_non_finite_models_score_infinity_unevaluated(self):
        task = SoftmaxTask(6, 4)
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((9, 6)), rng.integers(0, 4, size=9)
        good = task.initial_model(0).with_params(rng.standard_normal(28) * 0.3)
        nan = good.with_params(np.where(np.arange(28) == 3, np.nan, good.params))
        inf = good.with_params(np.full(28, -np.inf))
        with np.errstate(all="raise"):
            losses = score_row([nan, good, inf], task, X, y)
        assert losses == [math.inf, plain_loss(task, good, X, y), math.inf]

    def test_mismatched_shapes_in_one_stack_rejected(self):
        a = SoftmaxTask(6, 4).initial_model(0)
        b = SoftmaxTask(4, 6).initial_model(0)
        X, y = np.zeros((3, 6)), np.zeros(3, dtype=int)
        # every caller of the one shape check, with the odd model last or first
        for models in ([a, b], [a, a, b], [b, a, a]):
            for check in (lambda: score_row(models, SoftmaxTask(6, 4), X, y),
                          lambda: accuracy(models, SoftmaxTask(6, 4), X, y),
                          lambda: average_models(models),
                          lambda: hidden_attack(models)):
                with pytest.raises(ConfigError, match=r"model shapes differ: .* vs .*"):
                    check()

    def test_empty_batch_raises(self):
        task = SoftmaxTask(6, 4)
        with pytest.raises(ConfigError):
            score_row([task.initial_model(0)], task, np.zeros((0, 6)), np.zeros(0, dtype=int))


class TestGradientChecks:
    @pytest.mark.parametrize("trial", range(10))
    def test_all_tasks_match_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        quad = QuadraticTask(rng.uniform(0.3, 1.5, 3), rng.standard_normal(3),
                             noise_scale=0.2)
        soft = SoftmaxTask(4, 3)
        mlp = MlpTask((6, 5, 4, 3))
        for task in (quad, soft, mlp):
            if task.kind == "quadratic-convex":
                X = rng.standard_normal((5, 3))
                y = np.zeros(5, dtype=np.int64)
                model = quad.make_model(rng.standard_normal(3))
            else:
                dim = 4 if task.kind == "softmax-regression" else 6
                X = rng.standard_normal((5, dim))
                y = rng.integers(0, 3, size=5)
                model = task.initial_model(trial)
                model = model.with_params(model.params + 0.1 * rng.standard_normal(model.size))
            analytic = wave_gradients(task, [model], X, y)[0]
            oracle = finite_difference_gradient(task, model, X, y)
            denom = max(np.linalg.norm(oracle), 1e-12)
            assert np.linalg.norm(analytic - oracle) / denom < 1e-4


def ref_log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def ref_layers(params, shape):
    """Each layer of an ``(S, P)`` stack as an ``(S, *dims)`` view."""
    out, start = {}, 0
    for name, dims in shape:
        n = int(np.prod(dims))
        out[name] = params[:, start:start + n].reshape((len(params),) + dims)
        start += n
    return out


def ref_softmax_logits(params, shape, X):
    layers = ref_layers(params, shape)
    return np.matmul(X, layers["w"].transpose(0, 2, 1)) + layers["b"][:, None, :]


def ref_softmax_gradient(model, X, y):
    p = np.exp(ref_log_softmax(ref_softmax_logits(model.params[None], model.shape, X)[0]))
    p[np.arange(len(y)), y] -= 1.0
    p /= len(y)
    return np.concatenate([(p.T @ X).ravel(), p.sum(axis=0)])


def ref_mlp_forward(params, shape, X):
    layers = ref_layers(params, shape)

    def dense(h, name):
        return (np.matmul(h, layers[f"{name}_w"].transpose(0, 2, 1))
                + layers[f"{name}_b"][:, None, :])

    a1 = dense(X, "fc1")
    h1 = np.maximum(a1, 0.0)
    a2 = dense(h1, "fc2")
    h2 = np.maximum(a2, 0.0)
    return a1, h1, a2, h2, dense(h2, "fc3")


def ref_mlp_gradient(model, X, y):
    m = len(y)
    a1, h1, a2, h2, logits = (a[0] for a in ref_mlp_forward(model.params[None],
                                                             model.shape, X))
    p = np.exp(ref_log_softmax(logits))
    p[np.arange(m), y] -= 1.0
    p /= m
    d2 = (p @ model.layer("fc3_w")) * (a2 > 0)
    d1 = (d2 @ model.layer("fc2_w")) * (a1 > 0)
    return np.concatenate([
        (d1.T @ X).ravel(), d1.sum(axis=0), (d2.T @ h1).ravel(), d2.sum(axis=0),
        (p.T @ h2).ravel(), p.sum(axis=0),
    ])


def ref_logits(task, params, shape, X):
    if task.kind == "softmax-regression":
        return ref_softmax_logits(params, shape, X)
    return ref_mlp_forward(params, shape, X)[-1]


def ref_gradient(task, model, X, y):
    if task.kind == "softmax-regression":
        return ref_softmax_gradient(model, X, y)
    return ref_mlp_gradient(model, X, y)


def models_with_zero_preactivations(task, rng):
    """Random models, the task's initial model, and one whose first hidden
    unit's pre-activation is feature 0 itself (zero on half the samples) and
    whose second hidden unit's is exactly 0; for softmax, the zero model's
    logits are all exactly 0."""
    start = task.initial_model(0)
    models = [start.with_params(rng.standard_normal(start.size) * 0.5) for _ in range(4)]
    models.append(start)
    if task.kind == "mlp-3fc":
        params = models[0].params.copy()
        w1 = params[models[0].layer_slices()["fc1_w"]].reshape(task.layer_dims[1], -1)
        b1 = params[models[0].layer_slices()["fc1_b"]]
        w1[0], b1[0] = np.eye(w1.shape[1])[0], 0.0
        w1[1], b1[1] = 0.0, 0.0
        models.append(start.with_params(params))
    return models


#: tasks pinned against the plain-numpy reference above
REFERENCE_TASKS = [lambda: SoftmaxTask(64, 16), lambda: MlpTask((6, 100, 100, 4)),
                   lambda: MlpTask((12, 5, 4, 3))]


class TestDenseMathsAgainstReference:
    """Forward, gradient and predict equal the plain-numpy formulas bit for
    bit: candidate scoring breaks ties by position, and every run's digest
    depends on the last digit of each step."""

    @pytest.mark.parametrize("make", REFERENCE_TASKS, ids=["64-16", "6-100-100-4", "12-5-4-3"])
    @pytest.mark.parametrize("batch", [1, 8, 80])
    def test_losses_gradient_and_predict(self, make, batch):
        task = make()
        features = task.model_shape()[0][1][1]  # the first weight is (width, features)
        rng = np.random.default_rng([batch, features])
        X = rng.standard_normal((batch, features)) * 2.0
        X[::2, 0] = 0.0
        y = rng.integers(0, task.n_classes, size=batch)
        models = models_with_zero_preactivations(task, rng)
        if task.kind == "mlp-3fc":
            a1 = ref_mlp_forward(models[-1].params[None], models[-1].shape, X)[0][0]
            assert (a1[::2, 0] == 0).all() and (a1[:, 1] == 0).all()
        shape = models[0].shape
        for count in (1, 3, len(models)):
            stack = np.array([m.params for m in models[:count]])
            logp = ref_log_softmax(ref_logits(task, stack, shape, X))
            want = -logp[:, np.arange(batch), y]
            got = task.stacked_forward(stack[None], shape, X[None], y[None])[0][0]
            assert np.array_equal(got, want)
        for model, grad in zip(models, wave_gradients(task, models, X, y)):
            assert np.array_equal(grad, ref_gradient(task, model, X, y))
            assert np.array_equal(task.predict(model, X),
                                  ref_logits(task, model.params[None], shape, X)[0]
                                  .argmax(axis=1))


def ref_step(task, model, X, y, lr):
    """One SGD step by the plain-numpy gradient of each task."""
    if task.kind == "quadratic-convex":
        grad = task.hessian_diag * (model.params - task.x_star) + task.noise_scale * X.mean(axis=0)
    else:
        grad = ref_gradient(task, model, X, y)
    return model.params - lr * grad


def wave_case(kind, batch, shared, seed=0):
    """``T = 3`` batches and their models, ``S = 5`` per batch or one list all
    share: in the first list model 3 ties model 1 exactly and model 4 is NaN,
    and the last list's model 2 scores a NaN loss though it is finite."""
    task, features, classes = STACK_TASKS[kind]()
    rng = np.random.default_rng([seed, batch, features, shared])
    T, S = 3, 5
    X = rng.standard_normal((T, batch, features)) * 2.0
    X[..., 0] = 2.0 + np.abs(X[..., 0])
    y = rng.integers(0, classes, size=(T, batch))
    start = task.initial_model(0)
    rows = [[start.with_params(rng.standard_normal(start.size) * 0.5) for _ in range(S)]
            for _ in range(1 if shared else T)]
    rows[0][3] = rows[0][1].with_params(rows[0][1].params.copy())
    rows[0][4] = start.with_params(np.full(start.size, np.nan))
    if kind == "quadratic":
        # an infinite quadratic term plus a noise term of -inf
        huge = task.x_star.copy()
        huge[0] -= 1e308
    else:
        # the first unit's output overflows to +inf on every sample, and
        # +inf - +inf (or 0 * inf) is NaN
        huge = np.zeros(start.size)
        (weight, _), (bias, _) = start.shape[:2]
        huge[start.layer_slices()[weight].start] = huge[start.layer_slices()[bias].start] = 1e308
    rows[-1][2] = start.with_params(huge)
    return task, rows, X, y


class TestWaveAgainstReference:
    """A wave's scores and steps equal the plain-numpy reference of each
    model alone on its batch, bit for bit: a candidate's loss decides the
    pick, and every run's digest hangs on each step's last digit."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own-lists", "shared-list"])
    @pytest.mark.parametrize("batch", [1, 8, 80])
    @pytest.mark.parametrize("kind", sorted(STACK_TASKS))
    def test_scores_and_steps(self, kind, batch, shared):
        task, rows, X, y = wave_case(kind, batch, shared)
        with np.errstate(all="ignore"):
            scores = score_wave(rows, task, X, y)
            want = [[plain_loss(task, m, x, yy) if np.isfinite(m.params).all() else math.inf
                     for m in rows[0 if shared else t]] for t, (x, yy) in enumerate(zip(X, y))]
        assert np.array_equal(scores.losses, np.array(want), equal_nan=True)
        assert np.isnan(scores.losses[-1, 2]) and scores.losses[0, 4] == math.inf
        assert (scores.losses[0, 3] == scores.losses[0, 1]) and len(scores.params) == len(rows)
        for winners in ([0, 1, 3], [3, 0, 1]):
            stepped = step_winners(scores, winners, 0.1)
            for t, (model, row) in enumerate(zip(stepped, winners)):
                alone = rows[0 if shared else t][row]
                assert np.array_equal(model.params, ref_step(task, alone, X[t], y[t], 0.1))

    @pytest.mark.parametrize("kind", sorted(STACK_TASKS))
    def test_a_shared_list_scores_as_the_list_repeated(self, kind):
        task, rows, X, y = wave_case(kind, 8, True)
        with np.errstate(all="ignore"):
            shared, repeated = (score_wave(r, task, X, y) for r in (rows, rows * len(X)))
        assert np.array_equal(shared.losses, repeated.losses, equal_nan=True)

    @pytest.mark.parametrize("kind", sorted(STACK_TASKS))
    def test_a_nan_loss_or_non_finite_winner_steps_as_alone(self, kind):
        # a NaN gradient raises in the wave, where the reference steps to NaN;
        # the quadratic's NaN-loss model has a finite gradient and steps
        task, rows, X, y = wave_case(kind, 8, False)
        with np.errstate(all="ignore"):
            scores = score_wave(rows, task, X, y)
            for winners in ([0, 0, 2], [4, 0, 0]):
                alone = [ref_step(task, rows[t][row], X[t], y[t], 0.1)
                         for t, row in enumerate(winners)]
                alone = [params if np.isfinite(params).all() else None for params in alone]
                if winners[-1] == 2:
                    assert (alone[-1] is None) == (kind != "quadratic")
                if any(params is None for params in alone):
                    with pytest.raises(NumericFaultError):
                        step_winners(scores, winners, 0.1)
                    continue
                for model, params in zip(step_winners(scores, winners, 0.1), alone):
                    assert np.array_equal(model.params, params)

    def test_a_non_finite_winner_is_forwarded_again(self):
        # a -inf weight whose logit is -inf on every sample of a batch that
        # never has its class: the gradient is finite and the step keeps it
        task = SoftmaxTask(4, 3)
        rng = np.random.default_rng(1)
        X = np.abs(rng.standard_normal((2, 6, 4))) + 0.1
        y = rng.integers(0, 2, size=(2, 6))
        start = task.initial_model(0)
        bad = start.with_params(np.where(np.arange(15) == 8, -np.inf, rng.standard_normal(15)))
        good = start.with_params(rng.standard_normal(15))
        scores = score_wave([[good, bad], [bad, good]], task, X, y)
        assert scores.losses[0, 1] == scores.losses[1, 0] == math.inf
        stepped = step_winners(scores, [1, 1], 0.1)
        for model, alone, x, yy in zip(stepped, (bad, good), X, y):
            assert np.array_equal(model.params, ref_step(task, alone, x, yy, 0.1))
        assert np.isneginf(stepped[0].params[8])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 5, 8), (4, 9, 80), (2, 3, 2000),
                                       (1, 2, 9000)])
    def test_axis_sum_is_each_row_sum(self, shape):
        # score_wave takes a loss as the sum along the last axis; it must add
        # in the order of the 1-D sum row.mean() uses, or a tie could flip
        rng = np.random.default_rng(list(shape))
        rows = rng.standard_normal(shape) * np.logspace(-8, 8, shape[-1]) + 1e-3
        want = [float(np.add.reduce(row)) for row in rows.reshape(-1, shape[-1])]
        assert np.add.reduce(rows, axis=-1).ravel().tolist() == want


class TestSmoothnessWitness:
    def test_descent_at_inverse_smoothness_is_monotone(self):
        rng = np.random.default_rng(3)
        task = QuadraticTask(rng.uniform(0.2, 2.0, 6), rng.standard_normal(6))
        X, y = quad_batch(task, n=8, seed=3)
        model = task.make_model(rng.standard_normal(6) * 3)
        lr = 1.0 / task.smoothness
        losses = [evaluate_loss(model, task, X, y)]
        for _ in range(100):
            model = sgd_step(model, task, X, y, lr)
            losses.append(evaluate_loss(model, task, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_quadratic_smoothness_is_top_eigenvalue(self):
        task = QuadraticTask(np.array([0.4, 2.5, 1.0]), np.zeros(3))
        assert task.smoothness == 2.5


class TestMlpShapes:
    def test_default_matches_mnist_architecture(self):
        task = MlpTask()
        shapes = dict(task.model_shape())
        assert shapes["fc1_w"] == (100, 784)
        assert shapes["fc2_w"] == (100, 100)
        assert shapes["fc3_w"] == (10, 100)

    def test_initialisation_is_seeded_and_bounded(self):
        task = MlpTask((8, 4, 4, 2))
        a = task.initial_model(5)
        b = task.initial_model(5)
        c = task.initial_model(6)
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)
        assert np.all(a.layer("fc1_b") == 0)
        assert np.abs(a.layer("fc1_w")).max() <= 1 / np.sqrt(8)


def test_accuracy_counts_argmax_hits():
    task = SoftmaxTask(2, 2)
    model = ModelVector(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), task.model_shape())
    X = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    y = np.array([0, 1, 1])
    assert accuracy([model], task, X, y) == [pytest.approx(2 / 3)]


def reference_accuracy(model, task, X, y):
    """One model at a time, through the task's own forward and ``argmax``."""
    return float((task.predict(model, X) == y).mean())


def softmax_model(task, w, b):
    return ModelVector(np.concatenate([np.ravel(w), b]), task.model_shape())


def random_models(task, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = task.n_classes * (task.n_features + 1)
    return [ModelVector(scale * rng.standard_normal(n), task.model_shape())
            for _ in range(count)]


def labelled_batch(task, size, seed):
    rng = np.random.default_rng([seed, 1])
    X = rng.standard_normal((size, task.n_features))
    return X, rng.integers(0, task.n_classes, size)


class TestAccuracy:
    """The stacked, certified scoring against the one-model reference."""

    def check(self, models, task, X, y):
        got = accuracy(models, task, X, y)
        assert got == [reference_accuracy(m, task, X, y) for m in models]
        assert accuracy(models, task, X, y, EvalSet(X, y)) == got
        return got

    def test_the_float32_inputs_are_built_once_per_set(self, monkeypatch):
        task = SoftmaxTask(8, 4)
        X, y = labelled_batch(task, 50, 8)
        builds, indexed = [], []
        real, index = models_mod._float32_inputs, models_mod._label_index
        monkeypatch.setattr(models_mod, "_float32_inputs",
                            lambda X, y: builds.append(len(X)) or real(X, y))
        # the rechecks index their own subsets of the labels, never ``y`` itself
        monkeypatch.setattr(models_mod, "_label_index",
                            lambda labels: indexed.append(labels is y) or index(labels))
        inputs, models = EvalSet(X, y), random_models(task, 3, 9)
        for _ in range(3):
            assert accuracy(models, task, X, y, inputs) == accuracy(models, task, X, y)
        # the set's one build, and one per call without a set
        assert len(builds) == 4 and indexed.count(True) == 4
        # the product's right-hand operand: the samples as contiguous float32
        # columns over a row of ones, and the flat index of each label logit
        xt, _, at = inputs.float32
        assert xt.dtype == np.float32 and xt.flags.c_contiguous
        assert np.array_equal(xt, np.vstack([X.T, np.ones(50)]).astype(np.float32))
        assert np.array_equal(at, y * 50 + np.arange(50))
        assert inputs.float32.xt is xt and inputs.float32.at is at
        # a task scored by the reference never builds them
        mlp, other = MlpTask((8, 6, 5, 4)), EvalSet(X, y)
        accuracy([mlp.initial_model(1)], mlp, X, y, other)
        assert "float32" not in vars(other) and len(builds) == 4 and indexed.count(True) == 4

    @pytest.mark.parametrize("D,C,B", [(64, 16, 2000), (8, 4, 50), (100, 4, 300),
                                       (7, 5, 40), (30, 13, 200), (3, 2, 1)])
    def test_random_models(self, D, C, B):
        # C = 5 and 13 are not multiples of 8; at a parameter scale of 1e-44
        # the float32 weights are a few subnormal steps, at 1e-40 subnormal,
        # and at 1e30 the logits near 1e31
        task = SoftmaxTask(D, C)
        X, y = labelled_batch(task, B, D)
        for scale in (1e-44, 1e-40, 1e-3, 1.0, 1e30):
            self.check(random_models(task, 5, D, scale), task, X, y)

    def test_weights_beyond_float32_and_inputs_below_it(self):
        task = SoftmaxTask(8, 4)
        X, _ = labelled_batch(task, 200, 17)
        rng = np.random.default_rng(18)
        # weights that overflow float32 on a batch of norm near 1e-40, so
        # that the logits are near 0.1 and their scale is small; in float32
        # every logit is Inf or NaN
        huge = [softmax_model(task, 1e39 * rng.standard_normal((4, 8)),
                              rng.standard_normal(4)) for _ in range(3)]
        tiny = 1e-41 * X
        y = task.predict(huge[0], tiny)
        y[::5] = (y[::5] + 1) % 4
        assert self.check(huge, task, tiny, y)[0] == 0.8
        # an Inf logit off the label leaves the float32 margin finite: class
        # 2's reference logit 0.4 beats the label's 0, its float32 one is -Inf
        one = SoftmaxTask(1, 3)
        hidden = softmax_model(one, [[0.0], [0.0], [-1e39]], [0.0, -1.0, 0.5])
        assert self.check([hidden], one, np.array([[1e-40]]), np.zeros(1, int)) == [0.0]
        # inputs that float32 rounds to zero, leaving only the biases
        gone = 1e-50 * X
        self.check(random_models(task, 3, 19), task, gone, task.predict(huge[1], tiny))

    def test_zero_model_ties_every_class(self):
        task = SoftmaxTask(6, 4)
        X, y = labelled_batch(task, 80, 1)
        zero = task.initial_model(0)
        # argmax of a tied row is its first class
        assert self.check([zero, zero], task, X, y) == [float((y == 0).mean())] * 2

    def test_identical_weight_rows_tie(self):
        task = SoftmaxTask(5, 4)
        rng = np.random.default_rng(2)
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(4)
        w[3], b[3] = w[1], b[1]
        w[2], b[2] = w[0], b[0]
        X, y = labelled_batch(task, 60, 2)
        self.check([softmax_model(task, w, b)] + random_models(task, 2, 3), task, X, y)

    def test_one_step_from_zero_on_a_batch_missing_classes(self):
        # classes absent from the batch get identical rows, so they tie
        task = SoftmaxTask(6, 5)
        X, _ = labelled_batch(task, 40, 4)
        stepped = sgd_step(task.initial_model(0), task, X, np.arange(40) % 2, lr=0.5)
        Xt, yt = labelled_batch(task, 200, 5)
        self.check([stepped, task.initial_model(0), stepped], task, Xt, yt)

    def test_one_ulp_near_ties(self):
        task = SoftmaxTask(1, 3)
        X = np.array([[1.0], [1.0], [-1.0]])
        y = np.array([0, 1, 2])
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        models = [softmax_model(task, [[1.0], [w1], [0.0]], np.zeros(3))
                  for w1 in (up, down, 1.0)]
        assert self.check(models, task, X, y) == [2 / 3] * 3

    def test_orders_that_disagree_on_the_label(self):
        # the label's reference logit ties class 1's bias; where the stacked
        # product rounds the label's logit lower, only the bound keeps the hit
        task = SoftmaxTask(100, 4)
        X, _ = labelled_batch(task, 300, 6)
        y = np.zeros(300, dtype=np.int64)
        rng = np.random.default_rng(7)
        w = np.zeros((3, 4, 100))
        w[:, 0] = rng.standard_normal((3, 100))
        b = np.tile([0.0, 0.0, -1e3, -1e3], (3, 1))
        stacked = w.reshape(12, 100) @ X.T
        for k in range(3):
            reference = np.matmul(X, w[k].T[None])[0][:, 0]
            lower = np.flatnonzero(stacked[4 * k] < reference)
            b[k, 1] = reference[lower[k]] if len(lower) > k else -1e3
        self.check([softmax_model(task, w[k], b[k]) for k in range(3)], task, X, y)

    def test_float32_logits_that_miss_a_tie(self):
        # class 1 (the label) is all bias, tying class 0's reference logit at
        # one sample per model, and the argmax of a tie is class 0; float32
        # rounds class 0's logit off the tie, so only the bound sends the
        # sample on
        task = SoftmaxTask(100, 2)
        X, _ = labelled_batch(task, 300, 20)
        y = np.ones(300, dtype=np.int64)
        w = np.zeros((8, 2, 100))
        w[:, 0] = np.random.default_rng(21).standard_normal((8, 100))
        b = np.zeros((8, 2))
        b[:, 1] = [np.matmul(X, w[k].T[None])[0][k, 0] for k in range(8)]
        self.check([softmax_model(task, w[k], b[k]) for k in range(8)], task, X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, -1])
    def test_non_finite_parameters(self, bad, where):
        # where 0 is a weight, -1 a bias
        task = SoftmaxTask(4, 3)
        X, y = labelled_batch(task, 30, 8)
        good = random_models(task, 2, 9)
        params = good[0].params.copy()
        params[where] = bad
        self.check([good[1], good[0].with_params(params), good[0]], task, X, y)

    def test_one_model_and_none(self):
        task = SoftmaxTask(8, 4)
        X, y = labelled_batch(task, 50, 10)
        self.check(random_models(task, 1, 11), task, X, y)
        assert accuracy([], task, X, y) == []

    @pytest.mark.parametrize("budget", [1, 2 * 3 * 40 * 8, None])
    def test_more_models_than_one_chunk(self, monkeypatch, budget):
        # budgets of one model, four models, and the default, which holds
        # fewer desk-sized models (16 classes, 2,000 samples) than the 21 here
        task = SoftmaxTask(64, 16) if budget is None else SoftmaxTask(5, 3)
        if budget is not None:
            monkeypatch.setattr(models_mod, "_SCORE_CHUNK_BYTES", budget)
        X, y = labelled_batch(task, 2000 if budget is None else 40, 12)
        per_block = max(1, models_mod._SCORE_CHUNK_BYTES // (task.n_classes * len(X) * 4))
        blocks = []
        chunk = models_mod._chunk_accuracy
        monkeypatch.setattr(models_mod, "_chunk_accuracy",
                            lambda models, *a: blocks.append(len(models)) or chunk(models, *a))
        count = 10 if budget is None else 3
        zero = task.initial_model(0)
        self.check(random_models(task, count, 13) + [zero] + random_models(task, count, 14),
                   task, X, y)
        # once without the set and once with it, each over full blocks and the rest
        total = 2 * count + 1
        full, rest = divmod(total, per_block)
        assert full >= 1 and total > per_block
        assert blocks == 2 * ([per_block] * full + [rest] * (rest > 0))

    def test_default_blocks_score_as_one_model_blocks(self, monkeypatch):
        # the desk shape: blocks of the default budget and of one model each
        task = SoftmaxTask(64, 16)
        X, y = labelled_batch(task, 2000, 22)
        stepped = sgd_step(task.initial_model(0), task, X[:8], y[:8], lr=0.5)
        models = (random_models(task, 9, 23) + [task.initial_model(0), stepped]
                  + random_models(task, 9, 24, scale=1e-3))
        inputs = EvalSet(X, y)
        default = self.check(models, task, X, y)
        assert accuracy(models, task, X, y, inputs) == default
        monkeypatch.setattr(models_mod, "_SCORE_CHUNK_BYTES", 1)
        assert accuracy(models, task, X, y, inputs) == default
        assert accuracy(models, task, X, y) == default

    def test_labels_outside_the_classes_and_other_tasks(self):
        task = SoftmaxTask(4, 3)
        X, y = labelled_batch(task, 30, 15)
        y[:5] = 3
        self.check(random_models(task, 3, 16), task, X, y)
        mlp = MlpTask((4, 6, 5, 3))
        self.check([mlp.initial_model(1), mlp.initial_model(2)], mlp, X, y % 3)

    def test_only_uncertain_models_take_the_reference(self, monkeypatch):
        task = SoftmaxTask(1, 2)
        X, y = np.array([[1.0], [2.0]]), np.array([1, 0])
        near = softmax_model(task, [[1.0], [np.nextafter(1.0, 2.0)]], np.zeros(2))
        # float32 rounds 1 + 1e-9 to 1, so only float64 decides this one
        mid = softmax_model(task, [[1.0], [1.0 + 1e-9]], np.zeros(2))
        clear = softmax_model(task, [[1.0], [2.0]], np.zeros(2))
        scored, rechecked = [], []
        real = models_mod._reference_accuracy
        monkeypatch.setattr(models_mod, "_reference_accuracy",
                            lambda m, *a: scored.append(m) or real(m, *a))
        recheck = models_mod._float64_hits
        monkeypatch.setattr(models_mod, "_float64_hits",
                            lambda w, b, X, *a: rechecked.append(len(X)) or recheck(w, b, X, *a))
        assert accuracy([clear, near, mid, clear], task, X, y) == [0.5] * 4
        assert scored == [near]
        # both samples of near and mid, none of clear
        assert rechecked == [2, 2]
