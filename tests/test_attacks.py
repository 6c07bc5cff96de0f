import ast
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import basilsim
import basilsim.models as models
from basilsim.attacks import (
    ATTACK_KINDS,
    AttackSpec,
    apply_attack,
    gaussian_attack,
    hidden_attack,
    ignores_honest_update,
    inverse_attack,
    sign_flip_attack,
)
from basilsim.errors import ConfigError
from basilsim.models import ModelVector
from basilsim.streams import keyed_states, set_state

SHAPE_1 = (("x", (4,)),)
SHAPE_3 = (("a", (5,)), ("b", (3,)), ("c", (2,)))


def mv(values, shape=SHAPE_1):
    return ModelVector(np.asarray(values, dtype=float), shape)


class TestGaussian:
    def test_moments_over_a_million_entries(self):
        shape = (("x", (1_000_000,)),)
        out = gaussian_attack(shape, np.random.default_rng(0))
        assert -0.005 < out.params.mean() < 0.005
        assert 0.99 < out.params.var() < 1.01

    def test_seed_determinism(self):
        a = gaussian_attack(SHAPE_3, np.random.default_rng(11))
        b = gaussian_attack(SHAPE_3, np.random.default_rng(11))
        assert np.array_equal(a.params, b.params)

    def test_shape_preserved(self):
        out = gaussian_attack(SHAPE_3, np.random.default_rng(1))
        assert out.shape == SHAPE_3
        assert out.size == 10


class TestSignFlip:
    def test_forced_flip_negates_layer(self):
        model = mv([1.0, -2.0, 3.0, 4.0])

        class AlwaysFlip:
            def random(self):
                return 0.0

        out = sign_flip_attack(model, AlwaysFlip())
        np.testing.assert_array_equal(out.params, -model.params)

    def test_forced_keep_is_identity(self):
        model = mv([1.0, -2.0, 3.0, 4.0])

        class NeverFlip:
            def random(self):
                return 0.99

        out = sign_flip_attack(model, NeverFlip())
        assert np.array_equal(out.params, model.params)

    def test_per_layer_flip_frequency_is_half(self):
        model = ModelVector(np.ones(10), SHAPE_3)
        rng = np.random.default_rng(123)
        flips = np.zeros(3)
        trials = 10_000
        for _ in range(trials):
            out = sign_flip_attack(model, rng)
            for i, name in enumerate(("a", "b", "c")):
                if out.layer(name)[0] < 0:
                    flips[i] += 1
        for freq in flips / trials:
            assert 0.48 < freq < 0.52

    def test_layers_flip_independently(self):
        model = ModelVector(np.ones(10), SHAPE_3)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            out = sign_flip_attack(model, rng)
            seen.add(tuple(np.sign(out.layer(n))[0] for n in ("a", "b", "c")))
        assert len(seen) > 4  # mixed patterns, not all-or-nothing


class TestHidden:
    def test_identical_benign_models_pass_through(self):
        model = mv([0.5, -1.0, 2.0, 0.0])
        out = hidden_attack([model, model, model])
        np.testing.assert_allclose(out.params, model.params)

    def test_output_stays_within_benign_spread(self):
        a, b = mv([1.0, 1.0], (("x", (2,)),)), mv([-1.0, -1.0], (("x", (2,)),))
        out = hidden_attack([a, b])
        assert np.linalg.norm(out.params - np.zeros(2)) <= np.sqrt(2) + 1e-12

    def test_distance_bound_on_random_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            models = [mv(rng.standard_normal(4)) for _ in range(6)]
            mu = np.mean([m.params for m in models], axis=0)
            max_dist = max(np.linalg.norm(m.params - mu) for m in models)
            out = hidden_attack(models)
            assert np.linalg.norm(out.params - mu) <= max_dist + 1e-9

    def test_empty_benign_set_rejected(self):
        with pytest.raises(ConfigError):
            hidden_attack([])

    def test_before_activation_round_behaves_honestly(self):
        spec = AttackSpec.make("hidden")  # activates at round 20
        honest = mv([1.0, 2.0, 3.0, 4.0])
        out = apply_attack(
            spec, honest_update=honest, prior=honest,
            benign_models=[mv([9.0, 9.0, 9.0, 9.0])],
            round_k=19, rng=None,
        )
        assert np.array_equal(out.params, honest.params)


class TestInverse:
    def test_no_step_reflects_to_prior(self):
        prior = mv([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(inverse_attack(prior, prior).params, prior.params)

    def test_scalar_reflection(self):
        prior = mv([0.0], (("x", (1,)),))
        honest = mv([1.0], (("x", (1,)),))
        np.testing.assert_array_equal(inverse_attack(honest, prior).params, [-1.0])

    def test_involution_about_prior(self):
        rng = np.random.default_rng(2)
        prior = mv(rng.standard_normal(4))
        honest = mv(rng.standard_normal(4))
        twice = inverse_attack(inverse_attack(honest, prior), prior)
        np.testing.assert_allclose(twice.params, honest.params)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            inverse_attack(mv(np.zeros(4)), mv(np.zeros(10), SHAPE_3))


class TestSpecAndDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="meteor")

    def test_hidden_defaults_to_round_twenty(self):
        assert AttackSpec.make("hidden").activation_round == 20
        assert AttackSpec.make("gaussian").activation_round == 0

    def test_attacks_are_deterministic_under_fixed_seeds(self):
        spec = AttackSpec.make("gaussian")
        honest = mv([1.0, 2.0, 3.0, 4.0])
        outs = [
            apply_attack(spec, honest_update=honest, prior=honest,
                         benign_models=[], round_k=3, rng=np.random.default_rng([4, 2])).params
            for _ in range(2)
        ]
        assert np.array_equal(outs[0], outs[1])

    def test_random_attacks_draw_from_the_keyed_generator(self):
        honest = ModelVector(np.arange(1.0, 11.0), SHAPE_3)
        key = [7, 0xA3, 2, 5]
        for kind, want in (
            ("gaussian", gaussian_attack(SHAPE_3, np.random.default_rng(key))),
            ("random-sign-flip", sign_flip_attack(honest, np.random.default_rng(key))),
        ):
            out = apply_attack(AttackSpec.make(kind), honest_update=honest, prior=honest,
                               benign_models=[], round_k=1, rng=np.random.default_rng(key))
            assert out.params.tobytes() == want.params.tobytes(), kind
            assert out.shape == want.shape

    @pytest.mark.parametrize("key", [(7, 0xA3, 2, 5), (0, 0xA3, 0, 0), (2**33 + 1, 0xC2, 1, 4, 3)])
    def test_random_attacks_equal_their_default_rng_streams(self, key):
        # from the bulk-hashed state, set on one reused generator
        honest = ModelVector(np.arange(1.0, 11.0), SHAPE_3)
        state, other = keyed_states([key, (1, 2, 3, 4)])
        generator = np.random.Generator(np.random.PCG64(0))
        for kind, want in (
            ("gaussian", gaussian_attack(SHAPE_3, np.random.default_rng(list(key)))),
            ("random-sign-flip", sign_flip_attack(honest, np.random.default_rng(list(key)))),
        ):
            # a half-used 32-bit draw of another stream leaves nothing behind
            set_state(generator, other).integers(0, 7, size=3)
            out = apply_attack(AttackSpec.make(kind), honest_update=honest, prior=honest,
                               benign_models=[], round_k=1, rng=set_state(generator, state))
            assert out.params.tobytes() == want.params.tobytes(), kind

    def test_all_attacks_preserve_shape(self):
        honest = ModelVector(np.ones(10), SHAPE_3)
        for kind in ("gaussian", "random-sign-flip", "hidden", "inverse"):
            spec = AttackSpec.make(kind, activation_round=0)
            out = apply_attack(spec, honest_update=honest, prior=honest,
                               benign_models=[honest], round_k=5, rng=np.random.default_rng(0))
            assert out.shape == SHAPE_3

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_ignored_update_is_exactly_what_the_dispatch_ignores(self, kind):
        # two (honest update, prior) pairs give the same output exactly where
        # the predicate holds, over rounds before and from activation and an
        # empty and a nonempty benign pool
        rng = np.random.default_rng(9)
        pairs = [[ModelVector(rng.standard_normal(10), SHAPE_3) for _ in range(2)]
                 for _ in range(2)]
        held = []
        for activation_round in (0, 1, 3):
            spec = AttackSpec.make(kind, activation_round)
            for round_k in range(5):
                for pool in ([], [ModelVector(rng.standard_normal(10), SHAPE_3)]):
                    outs = [apply_attack(spec, honest_update=honest, prior=prior,
                                         benign_models=pool, round_k=round_k,
                                         rng=np.random.default_rng([5, round_k]))
                            .params.tobytes()
                            for honest, prior in pairs]
                    ignored = ignores_honest_update(spec, benign_models=pool, round_k=round_k)
                    assert (outs[0] == outs[1]) == ignored, (activation_round, round_k, pool)
                    if ignored:
                        held.append((activation_round, round_k, len(pool)))
        active = [(a, k) for a in (0, 1, 3) for k in range(5) if k >= max(a, 1)]
        assert held == {"gaussian": [(a, k, n) for a, k in active for n in (0, 1)],
                        "hidden": [(a, k, 1) for a, k in active]}.get(kind, [])

    def test_inverse_definition_flagged_in_manifest(self):
        manifest = AttackSpec.make("inverse").to_manifest()
        assert "definition_note" in manifest


def callers(name: str, sources: dict[str, str] | None = None) -> set[str]:
    """``module.qualname`` of each function (or module body) of ``sources``,
    module name to source, the package's by default, with a call of
    ``name``.  An undotted name, such as ``apply_attack``, matches a call of
    any function or method of that name.  A dotted one matches on its
    receiver: ``history.selections.append`` is a call of ``append`` on
    ``history.selections``, reached from anything (``driver.history``), and
    not on another list whose name ends the same (a local ``selections``)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and f".{ast.unparse(child.func)}".endswith(f".{name}"):
                found.add(scope)
            visit(child, scope)

    trees = package_trees() if sources is None else {
        module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        visit(tree, module)
    return found


@cache
def package_trees() -> dict[str, ast.Module]:
    """Each package module's syntax tree, by module name, parsed once."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(basilsim.__file__).parent.glob("*.py"))}


def test_a_dotted_name_is_matched_on_its_receiver():
    source = """
def pick(candidates):
    selections = []
    selections.append(candidates[0])

class Driver:
    def activate(self, driver):
        driver.history.selections.append(1)
        self.history.selections.append(2)

def mix(dataset, other):
    other.batch(1)
    return dataset.batch(0)
"""
    assert callers("history.selections.append", {"m": source}) == {"m.Driver.activate"}
    assert callers("selections.append", {"m": source}) == {"m.pick", "m.Driver.activate"}
    assert callers("dataset.batch", {"m": source}) == {"m.mix"}
    assert callers("batch", {"m": source}) == {"m.mix"}


#: (call, its only callers): the ring, the Basil+ stages and both waves of a
#: graph round share one activation, which alone appends a pick's record,
#: that of a pick its attack skips included; the batches it picks on are
#: drawn at the start of the pass, and their samples gathered in one call
#: per batch length (epochs mode gathers its own passes).  Every loss
#: and gradient is computed by one score-and-step path: a task's stacked
#: forward runs only in ``score_wave`` (and in ``step_winners`` for a
#: non-finite winner), its stacked backward only in ``step_winners``, which
#: steps from that forward.  Its callers are the picks of a wave (the ring's
#: and the graph's Byzantine nodes' ``basil_select``, gossip's average and
#: UBAR's pick, whose one forward scores each node's own model with its pool),
#: a pass's train losses, the one shared step of a wave's picks, and
#: ``sgd_step`` and ``evaluate_loss``, each a wave of one model: ``sgd_step``
#: for the local passes of epochs mode alone, and ``evaluate_loss`` for no
#: caller in the package.  Every batch, random attack and epoch order draws
#: from a stream whose state the bulk hash computed, for a pass's keys in one
#: call at its start, and taken from that table by one method.  One method
#: decides which Byzantine turns skip their pick, for the activation and for
#: the batches drawn ahead of it
SOLE_CALLERS = [
    ("activate", {"ring.run_rings", "basil_plus.BasilPlusDriver._stage",
                  "baselines.GraphDriver.run_round"}),
    ("ignores_honest_update", {"ring.Driver._skips"}),
    ("_skips", {"ring.Driver.activate", "ring.Driver._prepare"}),
    ("apply_attack", {"ring.Driver.activate"}),
    ("local_batch", {"ring.Driver._prepare"}),
    ("dataset.batch", {"ring.Driver._prepare", "ring.BasilRing._local_passes"}),
    ("history.selections.append", {"ring.Driver.activate"}),
    ("stacked_forward", {"models.score_wave", "models.step_winners"}),
    ("stacked_gradient", {"models.step_winners"}),
    ("score_wave", {"ring.basil_select", "ring.Driver._end_pass", "baselines._average",
                    "baselines.ubar_rule.pick", "models.evaluate_loss", "models.sgd_step"}),
    ("step_winners", {"ring.step_picks", "models.sgd_step"}),
    ("sgd_step", {"ring.BasilRing._local_passes"}),
    ("evaluate_loss", set()),
    # the one step of a wave's picks, which gossip and the graph's Byzantine
    # nodes take as their update outright
    ("step_picks", {"ring.BasilRing._update", "baselines.ubar_rule.update"}),
    # the keyed draws: each pass's keys hashed in one call, and each state set
    # on the driver's generator as its draw takes it, a batch's in the same
    # call, an attack's in the activation and an epoch order's in the update
    ("keyed_states", {"ring.Driver._prepare"}),
    ("set_state", {"ring.Driver._keyed"}),
    ("_keyed", {"ring.Driver._prepare", "ring.Driver.activate", "ring.BasilRing._update"}),
    ("_prepare", {"ring.run_rings", "basil_plus.BasilPlusDriver.run_global_round",
                  "baselines.GraphDriver.run_round"}),
]


@pytest.mark.parametrize("name, expected", [pytest.param(*c, id=c[0]) for c in SOLE_CALLERS])
def test_one_activation_decides_and_applies_the_attack(name, expected):
    # a second caller would fork the Byzantine path or the pick again
    assert callers(name) == expected


def test_batch_and_attack_draws_build_no_generator_of_their_own():
    # they draw from the generator they are handed, set to a bulk-hashed
    # state, with no default_rng path and no hashing of their own
    for name in ("default_rng", "Generator", "PCG64", "keyed_states", "set_state"):
        assert not callers(name) & {"ring.local_batch", "attacks.apply_attack",
                                    "ring.BasilRing._local_passes"}, name


def test_the_ring_builds_a_generator_only_for_its_order_and_placement():
    # every other draw of the drivers takes the driver's one generator
    assert {c for c in callers("default_rng") if c.startswith("ring.")} == {
        "ring.agree_order", "ring.sample_byzantine_ids"}


def test_no_task_computes_a_gradient_beside_the_wave():
    # a task's one backward is its stacked one, which step_winners alone calls
    tasks = [c for c in vars(models).values()
             if isinstance(c, type) and issubclass(c, models.LossTask)]
    assert {models.QuadraticTask, models.DenseTask, models.SoftmaxTask, models.MlpTask} < set(tasks)
    assert [c.__name__ for c in tasks if hasattr(c, "gradient")] == []
