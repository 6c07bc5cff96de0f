"""Exact event probabilities for the grouped failure bounds.

Independent of ``basilsim.analytics``: everything here is exact rational
arithmetic over ``math.comb`` counts, so a test can compare a calculator's
union bound with the true probability of the event it bounds.

Placement model (the one the calculators and the Monte-Carlo estimators
use): ``b`` of ``N`` positions are Byzantine, every subset equally likely;
the ``G`` groups are consecutive blocks of ``n = N / G`` positions, and each
group's ring order is its position order, closed into a circle.
"""

from fractions import Fraction
from math import comb


def circular_max_run(mask):
    """Longest run of True on the ring closed from the list ``mask``."""
    run = best = 0
    for v in (mask + mask)[: 2 * len(mask) - 1]:
        run = run + 1 if v else 0
        best = max(best, run)
    return min(best, len(mask))


def _poly_mul(a, b, cap):
    """Product of two coefficient lists, truncated above degree ``cap``."""
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            out[i + j] += x * y
    return out


def bounded_compositions(total, parts, largest):
    """Ways to write ``total`` as ``parts`` ordered summands in 0..largest."""
    poly = [1]
    for _ in range(parts):
        poly = _poly_mul(poly, [1] * (largest + 1), total)
    return poly[total] if total < len(poly) else 0


def circular_no_run_count(n, i, S):
    """Circular binary strings of length ``n`` (positions labelled) with ``i``
    ones and no circular run of ``>= S`` consecutive ones.

    With ``k = n - i >= 1`` zeros, a string marked at one of its zeros is
    the same as a start position (``n`` choices) plus the ``k`` gaps read
    clockwise from there, each holding 0..S-1 ones.  Every string has ``k``
    zeros to mark, hence ``n * compositions / k``.  All ones is a run of
    length ``n``.
    """
    if i == n:
        return 0 if S <= n else 1
    k = n - i
    marked = n * bounded_compositions(i, k, S - 1)
    assert marked % k == 0
    return marked // k


def grouped_failure_exact(N, b, G, safe_count):
    """P(some group is unsafe) when ``safe_count(i)`` of the ``C(n, i)``
    member patterns with ``i`` Byzantine members are safe.

    The safe placements of ``b`` Byzantine nodes are the coefficient of
    ``x^b`` in ``(sum_i safe_count(i) x^i)^G``: a convolution of the
    multivariate hypergeometric split over the groups.
    """
    n = N // G
    assert n * G == N
    per_group = [safe_count(i) for i in range(n + 1)]
    safe = [1]
    for _ in range(G):
        safe = _poly_mul(safe, per_group, b)
    safe_b = safe[b] if b < len(safe) else 0
    return 1 - Fraction(safe_b, comb(N, b))


def case1_failure_exact(N, b, n, G):
    """P(some group of ``n`` holds ``>= n - 1`` Byzantine members)."""
    assert n * G == N
    return grouped_failure_exact(N, b, G, lambda i: comb(n, i) if i <= n - 2 else 0)


def grouped_run_failure_exact(N, b, n, G, S):
    """P(some group ring holds a circular run of ``>= S`` Byzantine members)."""
    assert n * G == N
    return grouped_failure_exact(N, b, G, lambda i: circular_no_run_count(n, i, S))
