from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from basilsim.analytics import (
    _bounded_integers,
    _byzantine_rows,
    basil_failure_prob,
    basil_plus_failure_case1,
    basil_plus_failure_prob,
    basil_plus_training_time,
    basil_training_time,
    basil_training_time_recursion,
    monte_carlo_basil_plus_failure,
    monte_carlo_ring_failure,
    ubar_training_time,
)
from basilsim.errors import ConfigError
from oracles import (
    case1_failure_exact,
    circular_max_run,
    circular_no_run_count,
    grouped_run_failure_exact,
)


def exact_ring_failure(N, b, S):
    """Brute-force oracle: enumerate every placement of b Byzantine nodes on a
    ring of N and count those with a circular run of >= S."""
    hits = 0
    total = 0
    for byz in combinations(range(N), b):
        total += 1
        mask = [False] * N
        for i in byz:
            mask[i] = True
        if circular_max_run(mask) >= S:
            hits += 1
    return hits / total


def exact_grouped_failure(N, b, G, group_fails):
    """Brute-force oracle: enumerate every placement of b Byzantine nodes over
    G consecutive groups and count those where ``group_fails`` holds for
    some group's member mask."""
    n = N // G
    hits = 0
    total = 0
    for byz in combinations(range(N), b):
        total += 1
        mask = [p in byz for p in range(N)]
        if any(group_fails(mask[g * n:(g + 1) * n]) for g in range(G)):
            hits += 1
    return Fraction(hits, total)


class TestRingFailureBound:
    def test_reference_values(self):
        assert basil_failure_prob(100, 33, 15).probability == pytest.approx(
            4.0940e-7, rel=1e-3)
        assert basil_failure_prob(100, 33, 10).probability == pytest.approx(
            5.3472e-4, rel=1e-3)

    def test_impossible_run_is_exactly_zero(self):
        assert basil_failure_prob(100, 33, 34).probability == 0.0
        assert basil_failure_prob(10, 3, 4).raw_bound == 0.0

    def test_bound_dominates_exhaustive_enumeration(self):
        for N, b, S in [(8, 3, 2), (9, 4, 3), (10, 5, 2), (7, 2, 2)]:
            exact = exact_ring_failure(N, b, S)
            assert basil_failure_prob(N, b, S).probability >= exact - 1e-12

    def test_raw_bound_reported_when_above_one(self):
        res = basil_failure_prob(10, 9, 1)
        assert res.probability == 1.0
        assert res.raw_bound == pytest.approx(9.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            basil_failure_prob(10, 11, 2)
        with pytest.raises(ConfigError):
            basil_failure_prob(10, 5, 0)


class TestGroupedFailureBounds:
    def test_case1_reference_values(self):
        assert basil_plus_failure_case1(100, 33, 20, 5).probability == pytest.approx(
            5.1712e-10, rel=1e-3)
        # exact value of the stated formula at (100, 33, 10, 10)
        assert basil_plus_failure_case1(100, 33, 10, 10).probability == pytest.approx(
            1.54622e-3, rel=1e-3)

    def test_case1_vanishes_when_groups_cannot_fill(self):
        assert basil_plus_failure_case1(100, 8, 10, 10).probability == 0.0

    def test_prop5_reference_values(self):
        assert basil_plus_failure_prob(400, 60, 100, 4, 10).probability == pytest.approx(
            1.16899e-6, rel=1e-3)
        assert basil_plus_failure_prob(400, 60, 100, 4, 7).probability == pytest.approx(
            5.00974e-4, rel=1e-3)

    def test_prop5_zero_without_byzantines(self):
        assert basil_plus_failure_prob(400, 0, 100, 4, 10).probability == 0.0

    def test_prop5_exact_on_tiny_instance(self):
        # N=6, b=2, n=3, G=2, S=2: a ring of three makes any two Byzantine
        # members adjacent, so failure = some group holds both. 6/15 placements.
        assert basil_plus_failure_prob(6, 2, 3, 2, 2).probability == pytest.approx(0.4)

    def test_group_shape_validated(self):
        with pytest.raises(ConfigError):
            basil_plus_failure_case1(100, 33, 30, 5)
        with pytest.raises(ConfigError):
            basil_plus_failure_prob(100, 33, 20, 5, 20)


class TestExactOracles:
    def test_circular_no_run_counts_match_enumeration(self):
        for n in range(1, 11):
            masks = [list(bits) for bits in product([False, True], repeat=n)]
            for S in range(1, n + 1):
                for i in range(n + 1):
                    brute = sum(1 for m in masks
                                if sum(m) == i and circular_max_run(m) < S)
                    assert circular_no_run_count(n, i, S) == brute, (n, i, S)

    @pytest.mark.parametrize("N, G", [(8, 2), (9, 3)])
    def test_grouped_oracles_match_enumeration(self, N, G):
        n = N // G
        for b in range(N + 1):
            brute = exact_grouped_failure(N, b, G, lambda m: sum(m) >= n - 1)
            assert case1_failure_exact(N, b, n, G) == brute, b
            for S in range(1, n + 1):
                brute = exact_grouped_failure(
                    N, b, G, lambda m: circular_max_run(m) >= S)
                assert grouped_run_failure_exact(N, b, n, G, S) == brute, (b, S)

    def test_grouped_oracle_matches_hand_count(self):
        # the tiny instance of test_prop5_exact_on_tiny_instance: 6 of the
        # C(6, 2) = 15 placements put both Byzantine nodes in one group
        assert grouped_run_failure_exact(6, 2, 3, 2, 2) == Fraction(6, comb(6, 2))

    def test_criterion_1_parameter_sets(self):
        assert float(case1_failure_exact(100, 33, 10, 10)) == pytest.approx(
            1.54612e-3, rel=1e-5)
        assert float(grouped_run_failure_exact(400, 60, 100, 4, 7)) == pytest.approx(
            4.33371e-4, rel=1e-5)


class TestMonteCarlo:
    def test_zero_frequency_when_run_longer_than_b(self):
        est, se = monte_carlo_ring_failure(50, 5, 6, trials=20_000, seed=0)
        assert est == 0.0 and se == 0.0

    def test_all_byzantine_always_fails(self):
        est, _ = monte_carlo_ring_failure(20, 20, 7, trials=5_000, seed=0)
        assert est == 1.0

    def test_matches_exhaustive_enumeration(self):
        exact = exact_ring_failure(8, 3, 2)  # 5/7
        est, se = monte_carlo_ring_failure(8, 3, 2, trials=200_000, seed=1)
        assert abs(est - exact) <= 4 * se

    def test_estimate_never_exceeds_bound_on_random_queries(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            N = int(rng.integers(20, 90))
            b = int(rng.integers(3, max(N // 2, 4)))
            S = int(rng.integers(2, min(b, 6) + 1))
            bound = basil_failure_prob(N, b, S)
            if bound.probability < 1e-5:
                continue
            est, se = monte_carlo_ring_failure(N, b, S, trials=20_000, seed=checked)
            assert est <= bound.raw_bound + 3 * max(se, 1e-9)
            checked += 1

    def test_grouped_estimator_matches_exact_tiny_case(self):
        est, se = monte_carlo_basil_plus_failure(6, 2, 3, 2, 2, trials=100_000, seed=2)
        assert abs(est - 0.4) <= 4 * max(se, 1e-9)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            monte_carlo_ring_failure(20, 5, 2, trials=0, seed=0)
        with pytest.raises(ConfigError, match="trials"):
            monte_carlo_basil_plus_failure(6, 2, 3, 2, 2, trials=0, seed=0)

    def test_run_longer_than_ring_never_occurs(self):
        # the bound is exactly zero, and the estimate must not depend on how
        # far the detector wraps round
        assert basil_failure_prob(5, 5, 7).raw_bound == 0.0
        for S in (6, 7, 11):
            assert monte_carlo_ring_failure(5, 5, S, trials=100, seed=0) == (0.0, 0.0)
        assert monte_carlo_basil_plus_failure(8, 8, 4, 2, 6, trials=100, seed=0) == (0.0, 0.0)
        assert monte_carlo_basil_plus_failure(8, 8, 4, 2, 4, trials=100, seed=0) == (1.0, 0.0)

    def test_zero_run_length_rejected(self):
        with pytest.raises(ConfigError, match="S >= 1"):
            monte_carlo_ring_failure(20, 5, 0, trials=10, seed=0)
        with pytest.raises(ConfigError, match="S >= 1"):
            monte_carlo_basil_plus_failure(6, 2, 3, 2, 0, trials=10, seed=0)

    def test_estimates_do_not_depend_on_block_size(self, monkeypatch):
        import basilsim.analytics as analytics

        def both():
            return (monte_carlo_ring_failure(60, 12, 4, trials=3_001, seed=5),
                    monte_carlo_basil_plus_failure(60, 12, 15, 4, 3, trials=2_003, seed=3),
                    # b > N/2 draws the benign subset; S = 10 keeps the
                    # estimate off 1 (exact 0.645)
                    monte_carlo_ring_failure(60, 45, 10, trials=3_001, seed=5))

        default = both()
        # one row per block, then a budget that leaves a ragged last block
        for elements in (1, 7 * 60 + 13):
            monkeypatch.setattr(analytics, "_BLOCK_ELEMENTS", elements)
            assert both() == default
        monkeypatch.undo()
        # the same for the chunk of bounded draws: one row per chunk (odd
        # k = 15 carries a spare half into the next chunk), then two rows of
        # k = 12 or one of k = 15 with a ragged last chunk
        for chunk in (1, 29):
            monkeypatch.setattr(analytics, "_DRAW_CHUNK", chunk)
            assert both() == default

    def test_grouped_bound_dominates_estimate(self):
        bound = basil_plus_failure_prob(60, 12, 15, 4, 3)
        est, se = monte_carlo_basil_plus_failure(60, 12, 15, 4, 3,
                                                 trials=100_000, seed=3)
        assert est <= bound.raw_bound + 3 * max(se, 1e-9)


#: chi-square 0.999 quantile at 14 degrees of freedom (15 subsets of two of six)
CHI2_14_999 = 36.12


class TestByzantineRows:
    @pytest.mark.parametrize("N, b", [(10, 0), (10, 10), (10, 3), (10, 5), (10, 8),
                                      (100, 33), (100, 67), (1, 0), (1, 1)])
    def test_every_row_holds_b_ones(self, N, b):
        rows = _byzantine_rows(np.random.default_rng(4), 2_000, N, b)
        assert rows.shape == (2_000, N) and rows.dtype == bool
        assert (rows.sum(axis=1) == b).all()

    @pytest.mark.parametrize("b", [2, 4])  # 4 of 6 is the complement of a 2-subset
    def test_subsets_of_six_are_uniform(self, b):
        m = 30_000
        rows = _byzantine_rows(np.random.default_rng(11), m, 6, b)
        counts = {}
        for row in rows:
            key = tuple(np.flatnonzero(row).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == list(combinations(range(6), b))
        expected = m / comb(6, b)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 <= CHI2_14_999


def _drawn_like_numpy(seed, high, m, spare):
    """Draw the same block with numpy and with the bulk helper from equal
    generators, then check the block and the generators left behind."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if spare:  # one bounded draw leaves half a raw word in the generator
        for gen in (ours, theirs):
            gen.integers(0, np.array([5]))
            assert gen.bit_generator.state["has_uint32"] == 1
    expected = theirs.integers(0, np.asarray(high), size=(m, len(high)))
    got = _bounded_integers(ours, np.asarray(high), m)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state
    # a spare half left behind goes to the next call
    after = [(gen.integers(0, np.array([7, 9, 11]), size=(3, 3)), gen.random(3))
             for gen in (ours, theirs)]
    assert np.array_equal(after[0][0], after[1][0])
    assert np.array_equal(after[0][1], after[1][1])


#: numpy rejects 30% and 42% of the first draws for the two large bounds
REJECTING = [3_000_000_001, 2_500_000_000, 7]


class TestBoundedIntegers:
    @pytest.mark.parametrize("high, m", [
        (list(range(68, 101)), 1_000),  # the ring oracle's bounds, odd m * k
        (list(range(341, 401)), 250),
        ([5], 1), ([5], 7),             # k = 1
        ([9, 10, 11], 1),               # m = 1
        ([2, 3], 4),
        (REJECTING, 1), (REJECTING, 501),
        ([2**32, 2**32 - 1, 2**31 + 1], 300),
    ])
    @pytest.mark.parametrize("spare", [False, True])
    def test_equals_numpy_and_leaves_its_state(self, high, m, spare):
        for seed in range(3):
            _drawn_like_numpy(seed, high, m, spare)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_chunks_split_rows_without_moving_draws(self, monkeypatch, chunk):
        import basilsim.analytics as analytics

        monkeypatch.setattr(analytics, "_DRAW_CHUNK", chunk)
        for high in ([3, 5, 9], REJECTING):
            for spare in (False, True):
                _drawn_like_numpy(4, high, 41, spare)

    def test_rejecting_bounds_take_extra_draws(self):
        # 3 * 501 draws without a rejection would use 752 raw words; numpy's
        # redraws use more, so the equality above follows each of them
        rng = np.random.default_rng(0)
        _bounded_integers(rng, np.array(REJECTING), 501)
        plain = np.random.default_rng(0)
        plain.bit_generator.random_raw(752)
        assert rng.bit_generator.state["state"] != plain.bit_generator.state["state"]

    def test_empty_and_invalid_bounds(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert _bounded_integers(rng, np.array([5, 6]), 0).shape == (0, 2)
        assert rng.bit_generator.state == state
        # numpy takes no draw for a bound of 1, and 64-bit draws above 2**32
        for high in ([1, 5], [2**32 + 1]):
            with pytest.raises(ValueError, match="bounds"):
                _bounded_integers(rng, np.array(high), 3)
        assert rng.bit_generator.state == state
        with pytest.raises(TypeError, match="PCG64"):
            _bounded_integers(np.random.Generator(np.random.MT19937(0)), np.array([5]), 3)


#: (N, b, S, trials, seed) -> (estimate, se), pinned to the bit: run detection
#: may be rewritten without moving them; a new sampling stream re-pins them,
#: and TestPinnedEstimates holds every pin within 4 SE of the exact value
RING_ESTIMATES = {
    (100, 33, 10, 120_000, 7): (0.00044166666666666665, 6.065418350659624e-05),
    (8, 3, 2, 50_000, 1): (0.7152, 0.002018360522800622),
    (60, 12, 4, 30_000, 5): (0.053733333333333334, 0.0013018712458383666),
    (10, 7, 6, 20_000, 9): (0.25435, 0.0030794161581377726),
    (20, 3, 1, 20_000, 2): (1.0, 0.0),  # S = 1
    (12, 5, 12, 5_000, 3): (0.0, 0.0),  # S = n
    (12, 12, 12, 5_000, 3): (1.0, 0.0),  # S = n = b
    (30, 30, 7, 3_000, 4): (1.0, 0.0),  # b = N
}

#: (N, b, n, G, S, trials, seed) -> (estimate, se)
GROUPED_ESTIMATES = {
    (400, 60, 100, 4, 7, 45_000, 3): (0.0002888888888888889, 8.01117874665375e-05),
    (6, 2, 3, 2, 2, 20_000, 2): (0.40005, 0.003464173765127841),
    (60, 12, 15, 4, 3, 20_000, 3): (0.29895, 0.0032371198425452216),
    (12, 7, 6, 2, 4, 20_000, 10): (0.55025, 0.0035176337039265473),
    (20, 5, 5, 4, 1, 10_000, 8): (1.0, 0.0),  # S = 1
    (8, 6, 4, 2, 4, 10_000, 5): (0.4309, 0.004952021708353064),  # S = n
    (8, 8, 4, 2, 3, 2_000, 6): (1.0, 0.0),  # b = N
}


class TestPinnedEstimates:
    @pytest.mark.parametrize("case", RING_ESTIMATES)
    def test_ring_estimate_is_bit_identical(self, case):
        N, b, S, trials, seed = case
        assert monte_carlo_ring_failure(N, b, S, trials, seed=seed) == RING_ESTIMATES[case]

    @pytest.mark.parametrize("case", GROUPED_ESTIMATES)
    def test_grouped_estimate_is_bit_identical(self, case):
        N, b, n, G, S, trials, seed = case
        assert (monte_carlo_basil_plus_failure(N, b, n, G, S, trials, seed=seed)
                == GROUPED_ESTIMATES[case])

    @pytest.mark.parametrize("case", [*RING_ESTIMATES, *GROUPED_ESTIMATES])
    def test_pinned_estimate_is_near_the_exact_probability(self, case):
        if case in RING_ESTIMATES:
            N, b, S = case[:3]
            n, G = N, 1
            est, se = RING_ESTIMATES[case]
        else:
            N, b, n, G, S = case[:5]
            est, se = GROUPED_ESTIMATES[case]
        exact = float(grouped_run_failure_exact(N, b, n, G, S))
        if exact in (0.0, 1.0):
            assert (est, se) == (exact, 0.0)
        else:
            assert abs(est - exact) <= 4 * se


class TestTimeModels:
    def test_sequential_bound_with_unit_times(self):
        assert basil_training_time(1, 25, 1, 1, 1, 1) == 75
        assert basil_training_time(2, 10, 3, 0, 0, 0) == 0

    def test_grouped_time_hand_substitutions(self):
        assert basil_plus_training_time(1, 25, 16, 6, 1, 1, 1) == 187
        assert basil_plus_training_time(1, 25, 1, 6, 1, 1, 1) == 82
        assert basil_plus_training_time(1, 5, 2, 2, 0, 0, 0) == 0
        # the grouped driver runs tau = 0: a global round of the hand-off alone
        assert basil_plus_training_time(0, 25, 16, 6, 1, 1, 1) == 17 + 6 * 16 - 1

    def test_recursion_replay_stays_within_bound(self):
        replay = basil_training_time_recursion(1, 6, 3, 1, 1, 1)
        bound = basil_training_time(1, 6, 1, 1, 1, 1)
        assert replay == 17
        assert bound == 18
        assert replay <= bound

    def test_recursion_matches_bound_structure_on_later_rounds(self):
        # after warm-up every activation costs t_comm + t_perf + t_sgd
        one = basil_training_time_recursion(1, 8, 3, 1.0, 0.5, 0.25)
        two = basil_training_time_recursion(2, 8, 3, 1.0, 0.5, 0.25)
        assert two - one == pytest.approx(8 * (0.5 + 1.0 + 0.25))

    def test_ubar_time(self):
        one = ubar_training_time(1, 5, 100, 1e6, 1, 1, 1, 1)
        assert ubar_training_time(3, 5, 100, 1e6, 1, 1, 1, 1) == 3 * one
        assert ubar_training_time(1, 1, 32, 1024, 0, 0, 0, 0) == pytest.approx(1.0)
        comp = 0.027 + 0.012 + 0.002 + 0.006  # measured per-round computation parts
        # at unbounded bandwidth a round costs its computation alone
        assert ubar_training_time(1, 1, 1, float("inf"), 0.027, 0.012, 0.002, 0.006) == (
            pytest.approx(comp))
        assert comp == pytest.approx(0.047)

    @pytest.mark.parametrize("formula, args, name", [
        (basil_training_time, (-1, 2, 2, 1, 1, 1), "tau"),
        (basil_training_time, (1, 0, 2, 1, 1, 1), "n"),
        (basil_training_time, (1, 2, 0, 1, 1, 1), "G"),
        (basil_plus_training_time, (-1, 5, 2, 2, 1, 1, 1), "tau"),
        (basil_plus_training_time, (1, 5, 2, 0, 1, 1, 1), "S"),
        (ubar_training_time, (0, 5, 100, 1e6, 1, 1, 1, 1), "K"),
        (ubar_training_time, (1, 0, 100, 1e6, 1, 1, 1, 1), "S"),
        (ubar_training_time, (1, 5, 0, 1e6, 1, 1, 1, 1), "d"),
    ])
    def test_counts_below_range_rejected(self, formula, args, name):
        # tau = 0 is a grouped round with no ring round; every other count is >= 1
        with pytest.raises(ConfigError, match=f"^{name} must be >= "):
            formula(*args)

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigError):
            basil_training_time(1, 2, 3, -1, 0, 0)
        # a NaN cost printed "time": NaN, which is not JSON
        for costs in ((float("nan"), 1, 1), (1, float("nan"), 1), (1, 1, float("nan"))):
            with pytest.raises(ConfigError):
                basil_training_time(1, 2, 3, *costs)
        with pytest.raises(ConfigError, match="bandwidth"):
            ubar_training_time(1, 1, 1, float("nan"), 1, 1, 1, 1)
