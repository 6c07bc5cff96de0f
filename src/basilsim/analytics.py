"""Closed-form reliability and cost calculators with Monte-Carlo oracles.

The analytic failure probabilities are union bounds computed in exact
rational arithmetic (big integers).  The Monte-Carlo estimators sample the
underlying placement events directly, in one loop for the ring and the
grouped rings, and serve as independent oracles for the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ProbabilityBound:
    """Clamped probability plus the raw (possibly > 1) union bound."""

    probability: float
    raw_bound: float


def _clamped(raw: Fraction) -> ProbabilityBound:
    raw_f = float(raw)
    return ProbabilityBound(min(max(raw_f, 0.0), 1.0), raw_f)


def basil_failure_prob(N: int, b: int, S: int) -> ProbabilityBound:
    """Union bound on ``S`` Byzantine nodes landing consecutively on the ring.

    Exact zero when ``S > b`` (a run that long is impossible).
    """
    if N < 1 or not 0 <= b <= N or S < 1:
        raise ConfigError("need N >= 1, 0 <= b <= N, S >= 1")
    if S > b:
        return ProbabilityBound(0.0, 0.0)
    raw = Fraction(
        math.factorial(b) * math.factorial(N - S),
        math.factorial(b - S) * math.factorial(N - 1),
    )
    return _clamped(raw)


def basil_plus_failure_case1(N: int, b: int, n: int, G: int) -> ProbabilityBound:
    """Failure bound for fully connected groups (``S = n - 1``).

    A group fails only when it contains ``n`` or ``n - 1`` Byzantine members;
    group composition is hypergeometric, and the ``G`` groups are
    union-bounded.
    """
    _check_group_args(N, b, n, G)
    raw = Fraction(G) * Fraction(
        math.comb(b, n) + math.comb(b, n - 1) * math.comb(N - b, 1),
        math.comb(N, n),
    )
    return _clamped(raw)


def basil_plus_failure_prob(N: int, b: int, n: int, G: int, S: int) -> ProbabilityBound:
    """Failure bound for grouped rings with relaxed connectivity ``S < n - 1``.

    Conditions on the hypergeometric number ``i`` of Byzantine members in a
    group; given ``i``, the chance that ``S`` specific consecutive ring slots
    are all Byzantine is ``prod_s (i - s) / (n - s)``, union-bounded over the
    ``n`` start positions and the ``G`` groups.
    """
    _check_group_args(N, b, n, G)
    if not 1 <= S <= n - 1:
        raise ConfigError("need 1 <= S <= n-1")
    total = Fraction(0)
    denom = math.comb(N, n)
    for i in range(0, min(b, n) + 1):
        run = Fraction(n)
        for s in range(S):
            run *= Fraction(max(i - s, 0), n - s)
        if run == 0:
            continue
        total += run * Fraction(math.comb(b, i) * math.comb(N - b, n - i), denom)
    return _clamped(Fraction(G) * total)


def _check_group_args(N: int, b: int, n: int, G: int) -> None:
    if N < 1 or not 0 <= b <= N:
        raise ConfigError("need N >= 1 and 0 <= b <= N")
    if n < 1 or G < 1 or n * G != N:
        raise ConfigError("need n * G == N with positive n, G")


#: elements sampled per block of trials; estimates do not depend on it,
#: because each row takes its own draws in order
_BLOCK_ELEMENTS = 1 << 20

#: bounded draws computed at once; the draws do not depend on it, and a
#: chunk this small keeps its temporaries from faulting in fresh pages
_DRAW_CHUNK = 1 << 16


def _circular_run_hits(placements: np.ndarray, S: int) -> np.ndarray:
    """Row mask: does a circular run of >= S consecutive nonzero entries appear?

    A ring of ``n`` holds at most ``n`` consecutive distinct nodes, so a run
    longer than the row never appears.
    """
    rows, n = placements.shape
    hit = np.zeros(rows, dtype=bool)
    if S > n:
        return hit
    # wrap the first S-1 columns round and convert to bool in one pass
    width = n + S - 1
    run = np.empty((rows, width), dtype=bool)
    run[:, :n] = placements
    run[:, n:] = placements[:, : S - 1]
    # shift-AND on the flat buffer: run[p] holds "entries p..p+w-1 all set";
    # double w, then one overlapping step reaches width S.  A window that
    # starts in column c < n stays inside its row; the others are not read
    run = run.reshape(-1)
    w = 1
    while 2 * w <= S:
        run = run[:-w] & run[w:]
        w *= 2
    if w < S:
        run = run[: w - S] & run[S - w:]
    pos = np.flatnonzero(run)
    hit[pos[pos % width < n] // width] = True
    return hit


def _bounded_integers(rng: np.random.Generator, high: np.ndarray, m: int) -> np.ndarray:
    """Exactly ``rng.integers(0, high, size=(m, len(high)))``, computed in bulk.

    For a bound in ``[2, 2**32]`` numpy draws each element by 32-bit Lemire
    rejection over ``next_uint32``, which hands out the low, then the high
    half of each raw PCG64 word and keeps a spare half in the generator
    state.  This multiplies raw words by the bounds a chunk at a time and
    redraws only where numpy rejects (p < bound / 2**32 per draw), so the
    values and the generator left behind are numpy's own.  A bound of 1
    takes no draw in numpy and is refused here.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError("bulk bounded draws follow the PCG64 stream only")
    high = np.asarray(high, dtype=np.uint64).reshape(-1)
    if high.min() < 2 or high.max() > 1 << 32:
        raise ValueError("bounds must lie in [2, 2**32]")
    k = high.size
    out = np.empty(m * k, dtype="<u8")
    rows = min(max(_DRAW_CHUNK // k, 1), m)
    bound = np.tile(high, rows + 1)
    # numpy rejects a product whose low half is below its column's threshold
    threshold = ((1 << 32) - high) % high
    lowest = int(threshold.max())
    state = bits.state
    # the stream of 32-bit halves still to be used, ahead of fresh raw words
    carry = np.array([state["uinteger"]] * state["has_uint32"], dtype="<u4")
    last = None
    pos = 0
    while pos < out.size:
        d = min(rows * k, out.size - pos)
        b = bound[pos % k:][:d]
        dst = out[pos:pos + d]
        c = min(carry.size, d)
        words = bits.random_raw((d - c + 1) // 2).astype("<u8", copy=False).view("<u4")
        if words.size:
            last = words[-1]
        np.multiply(carry[:c], b[:c], out=dst[:c])
        np.multiply(words[:d - c], b[c:], out=dst[c:])
        low = dst.view("<u4")[::2]
        rejected = np.flatnonzero(low < lowest)
        if rejected.size:
            rejected = rejected[low[rejected] < threshold[(pos + rejected) % k]]
        if not rejected.size:
            dst >>= 32
            carry = carry[d:] if carry.size > d else words[d - c:]
            pos += d
            continue
        # redraw the first rejected element from the halves after it, as
        # numpy does; the elements after it are redone from where it stops
        e = int(rejected[0])
        stream = np.concatenate((carry, words))[e + 1:]
        used = 0
        while True:
            if used == stream.size:
                more = bits.random_raw(1).astype("<u8", copy=False).view("<u4")
                last = more[-1]
                stream = np.concatenate((stream, more))
            product = int(stream[used]) * int(b[e])
            used += 1
            if product & 0xFFFFFFFF >= threshold[(pos + e) % k]:
                break
        dst[:e] >>= 32
        dst[e] = product >> 32
        carry = stream[used:]
        pos += e + 1
    # numpy keeps the high half of its last raw word, spare or spent
    state = bits.state
    state["has_uint32"] = carry.size
    if last is not None:
        state["uinteger"] = int(last)
    bits.state = state
    return out.view("<i8").reshape(m, k)


def _byzantine_rows(rng: np.random.Generator, m: int, N: int, b: int) -> np.ndarray:
    """``(m, N)`` bool block: each row marks a uniform ``b``-subset of ``N``.

    Floyd's algorithm draws a ``k``-subset, ``k = min(b, N - b)``, with
    ``k`` bounded integers per row: for ``j = N-k .. N-1`` take ``t`` in
    ``[0, j]`` and add ``t``, or ``j`` if ``t`` is already in.  Each
    ``k``-subset has probability exactly ``1 / C(N, k)``, and the complement
    of a uniform ``(N - b)``-subset is a uniform ``b``-subset.  The draws are
    taken in row order, so rows drawn in one block or split over several
    get the same draws.
    """
    k = min(b, N - b)
    if not k:  # b = 0 or b = N
        return np.full((m, N), b > 0)
    # draw before the mask exists, so the two do not add to the peak
    draws = _bounded_integers(rng, np.arange(N - k + 1, N + 1), m)
    mask = np.zeros(m * N, dtype=bool)
    row_base = np.arange(0, m * N, N)
    for i, j in enumerate(range(N - k, N)):
        v = draws[:, i] + row_base
        mask[np.where(mask[v], row_base + j, v)] = True
    mask = mask.reshape(m, N)
    return mask if k == b else ~mask


def _monte_carlo_failure(N: int, b: int, n: int, G: int, S: int, trials: int,
                         seed: int, tag: int) -> tuple[float, float]:
    """Share of uniform placements of ``b`` Byzantine among ``N`` positions,
    split into ``G`` consecutive rings of ``n``, where some ring holds a
    circular run of >= S Byzantine.  Returns (estimate, binomial std error)."""
    if trials < 1:
        raise ConfigError("trials must be positive")
    if S < 1:
        raise ConfigError("need S >= 1")
    rng = np.random.default_rng([int(seed), tag])
    block = max(_BLOCK_ELEMENTS // N, 1)
    hits = 0
    done = 0
    while done < trials:
        m = min(block, trials - done)
        placements = _byzantine_rows(rng, m, N, b)
        fail = _circular_run_hits(placements.reshape(m * G, n), S).reshape(m, G)
        hits += int(np.count_nonzero(fail.any(axis=1)))
        done += m
    est = hits / trials
    return est, math.sqrt(est * (1.0 - est) / trials)


def monte_carlo_ring_failure(
    N: int, b: int, S: int, trials: int, seed: int
) -> tuple[float, float]:
    """Frequency of >= S consecutive Byzantine positions on a ring of N.

    Samples uniform placements of ``b`` Byzantine nodes; the run check wraps
    around the ring, and ``S > N`` never occurs.  Returns (estimate,
    binomial standard error).
    """
    if not 0 <= b <= N:
        raise ConfigError("need 0 <= b <= N")
    return _monte_carlo_failure(N, b, N, 1, S, trials, seed, 0xE0)


def monte_carlo_basil_plus_failure(
    N: int, b: int, n: int, G: int, S: int, trials: int, seed: int
) -> tuple[float, float]:
    """Frequency of any group containing a circular run of >= S Byzantine nodes.

    Group compositions arise from a uniform permutation split (hypergeometric
    per group); the within-group ring order is the random split order, and
    ``S > n`` never occurs.
    """
    _check_group_args(N, b, n, G)
    return _monte_carlo_failure(N, b, n, G, S, trials, seed, 0xE1)


def basil_training_time(
    tau: int, n: int, G: int, t_perf: float, t_comm: float, t_sgd: float
) -> float:
    """Upper bound on one global round of sequential ring training."""
    _check_inputs(t_perf, t_comm, t_sgd, tau=tau, n=n, G=G)
    return tau * n * G * (t_perf + t_comm + t_sgd)


def basil_training_time_recursion(
    tau: int, N: int, S: int, t_perf: float, t_comm: float, t_sgd: float
) -> float:
    """Exact completion-time recursion for sequential ring training.

    Replays the per-node finish times: the first ring pass ramps up (node i
    evaluates only i-1 received models until the queue is full), later passes
    evaluate ``S`` models each.  Returns the finish time of the last node in
    round ``tau``.
    """
    _check_inputs(t_perf, t_comm, t_sgd)
    if tau < 1 or N < 1 or not 1 <= S <= max(N - 1, 1):
        raise ConfigError("need tau >= 1, N >= 1, 1 <= S <= N-1")
    t_comp = t_perf + t_sgd
    finish = t_sgd  # first node updates the shared start model directly
    for i in range(2, N + 1):
        if i <= S:
            finish += t_comm + (i - 1) * t_perf + t_sgd
        else:
            finish += t_comm + t_comp
    for _ in range(2, tau + 1):
        for _ in range(N):
            finish += t_comm + t_comp
    return finish


def basil_plus_training_time(
    tau: int, n: int, G: int, S: int, t_perf: float, t_comm: float, t_sgd: float
) -> float:
    """One global round of grouped training: parallel rings, circular
    aggregation, and the final multicast."""
    _check_inputs(t_perf, t_comm, t_sgd, tau=tau, n=n, G=G, S=S)
    return (
        (tau * n + G + 1) * t_perf
        + (S * G + tau * n - 1) * t_comm
        + (tau * n) * t_sgd
    )


def ubar_training_time(
    K: int, S: int, d: int, R: float,
    t_dist: float, t_perf: float, t_agg: float, t_sgd: float,
) -> float:
    """Total graph-baseline training time over ``K`` parallel rounds."""
    _check_inputs(t_dist, t_perf, t_agg, t_sgd, K=K, S=S, d=d)
    if not R > 0:  # NaN too
        raise ConfigError("bandwidth R must be positive")
    return K * (t_dist + t_perf + t_agg + t_sgd + S * 32.0 * d / R)


def _check_inputs(*times: float, **counts: int) -> None:
    """Times >= 0, ``tau`` >= 0 (a global round may run no ring round) and
    any other count >= 1."""
    if not all(t >= 0 for t in times):  # NaN too
        raise ConfigError("times must be nonnegative")
    for name, value in counts.items():
        least = 0 if name == "tau" else 1
        if value < least:
            raise ConfigError(f"{name} must be >= {least}")
