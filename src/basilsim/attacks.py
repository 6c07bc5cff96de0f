"""Byzantine behaviour generators.

Every attack is a pure function of its inputs and an explicit RNG, so runs
stay reproducible.  ``apply_attack`` is the dispatcher the one activation
(``ring.Driver.activate``) calls in place of a benign node's honest update,
handing a random attack a generator set to the attack's keyed stream.
``ignores_honest_update`` says when that output reads neither the honest
update nor the prior, so that the activation need not compute them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import ModelVector, _layout, require_composable

ATTACK_KINDS = ("none", "gaussian", "random-sign-flip", "hidden", "inverse")

#: rounds of honest behaviour before the hidden attack engages
HIDDEN_DEFAULT_ACTIVATION = 20


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    activation_round: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if self.activation_round < 0:
            raise ConfigError("activation_round must be >= 0")

    @classmethod
    def make(cls, kind: str, activation_round: int | None = None) -> "AttackSpec":
        if activation_round is None:
            activation_round = HIDDEN_DEFAULT_ACTIVATION if kind == "hidden" else 0
        return cls(kind, activation_round)

    def active(self, round_k: int) -> bool:
        return self.kind != "none" and round_k >= max(self.activation_round, 1)

    def draws(self, round_k: int) -> bool:
        """Whether the attack's output in round ``round_k`` is a random draw."""
        return self.kind in ("gaussian", "random-sign-flip") and self.active(round_k)

    def to_manifest(self) -> dict:
        out = {"kind": self.kind, "activation_round": self.activation_round}
        if self.kind == "inverse":
            # definition is implementation-specific, not a published recipe
            out["definition_note"] = "step reflection about the prior model"
        return out


def gaussian_attack(shape, rng: np.random.Generator) -> ModelVector:
    """Model with every entry drawn i.i.d. from N(0, 1)."""
    shape = tuple(shape)
    return ModelVector(rng.standard_normal(_layout(shape).size), shape)


def sign_flip_attack(model: ModelVector, rng: np.random.Generator) -> ModelVector:
    """Per layer, negate all entries with probability 1/2, else keep them."""
    params = model.params.copy()
    for name, sl in model.layer_slices().items():
        if rng.random() < 0.5:
            params[sl] = -params[sl]
    return model.with_params(params)


def hidden_attack(benign_models: list[ModelVector]) -> ModelVector:
    """Craft a degrading model that distance-based filters cannot flag.

    Output is ``mu - eps * z`` where ``mu`` is the benign mean, ``z`` the unit
    direction of ``sign(mu)`` and ``eps`` the largest benign-to-mean distance,
    so the output never sits farther from the mean than some benign model
    already does.
    """
    if not benign_models:
        raise ConfigError("hidden attack needs at least one benign model")
    require_composable(*benign_models)
    stacked = np.stack([m.params for m in benign_models])
    mu = stacked.mean(axis=0)
    eps = float(np.linalg.norm(stacked - mu, axis=1).max())
    direction = np.sign(mu)
    norm = np.linalg.norm(direction)
    z = direction / norm if norm > 0 else direction
    out = mu - eps * z
    assert np.linalg.norm(out - mu) <= eps * (1 + 1e-12) + 1e-12
    return benign_models[0].with_params(out)


def inverse_attack(honest_update: ModelVector, prior: ModelVector) -> ModelVector:
    """Reflect the honest step about the prior: ``prior - (honest - prior)``."""
    require_composable(honest_update, prior)
    return prior.with_params(2.0 * prior.params - honest_update.params)


def ignores_honest_update(
    spec: AttackSpec, *, benign_models: list[ModelVector], round_k: int
) -> bool:
    """Whether ``apply_attack`` with these arguments emits the same model for
    every ``honest_update`` and ``prior`` of the run's shape: the active
    gaussian attack, and the active hidden attack over a nonempty pool."""
    return spec.active(round_k) and (
        spec.kind == "gaussian" or (spec.kind == "hidden" and bool(benign_models)))


def apply_attack(
    spec: AttackSpec,
    *,
    honest_update: ModelVector,
    prior: ModelVector,
    benign_models: list[ModelVector],
    round_k: int,
    rng: np.random.Generator | None,
) -> ModelVector:
    """What a Byzantine node emits instead of ``honest_update`` in round
    ``round_k``; an attack that ``spec.draws`` there draws from ``rng``,
    which the others do not read."""
    if not spec.active(round_k):
        return honest_update
    if spec.kind == "gaussian":
        return gaussian_attack(honest_update.shape, rng)
    if spec.kind == "random-sign-flip":
        return sign_flip_attack(honest_update, rng)
    if spec.kind == "hidden":
        if not benign_models:
            return honest_update
        return hidden_attack(benign_models)
    if spec.kind == "inverse":
        return inverse_attack(honest_update, prior)
    return honest_update
