"""Property tests: the Monte-Carlo run detector against the loop oracle."""

import numpy as np
import pytest

from basilsim.analytics import _circular_run_hits
from oracles import circular_max_run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def expected_hits(rows, S):
    return [circular_max_run(list(row)) >= S for row in rows]


def check_every_width(rows):
    block = np.array(rows, dtype=bool)
    n = block.shape[1]
    for S in range(1, n + 1):
        assert _circular_run_hits(block, S).tolist() == expected_hits(rows, S), S
    # a ring of n holds no run longer than n, not even when every entry is set
    for S in (n + 1, 2 * n + 1):
        assert not _circular_run_hits(block, S).any(), S


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.integers(1, 24).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                       min_size=1, max_size=6)))
def test_random_rows_match_the_loop_oracle(rows):
    check_every_width(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_uniform_rows(n):
    check_every_width([[True] * n, [False] * n])


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_runs_across_the_wrap(n):
    # a run of k that starts at n - j and wraps to the front, for every split
    rows = []
    for k in range(1, n):
        for j in range(1, k + 1):
            rows.append([p >= n - j or p < k - j for p in range(n)])
    check_every_width(rows)


@pytest.mark.parametrize("n", [3, 7, 12, 100])
def test_large_blocks_match_row_by_row(n):
    # many rows in one flat buffer, so windows that cross from one row into
    # the next exist and must not count
    rng = np.random.default_rng(n)
    block = rng.random((300, n)) < 0.7
    block[::7] = True   # some full rows: every start position hits
    for S in (1, 2, n - 1, n, n + 1):
        expected = [circular_max_run(row.tolist()) >= S for row in block]
        assert _circular_run_hits(block, S).tolist() == expected, S
