"""Exact counts of the coprime pairs (p, q) with |p|, q <= N where an
integer quadratic form is negative, taken row by row instead of pair by
pair.  On a row a quadratic is negative on at most two runs of p, whose
ends follow exactly from math.isqrt and floor division; the p coprime to q
in a run are counted by Moebius inversion over the squarefree divisors of q,
which are built only for the rows that have a run.  The count of all pairs
is one closed form per box, not a sum over rows.
"""

from __future__ import annotations

import math

from .slopes import Slope

__all__ = ["count_negative"]

Piece = tuple[Slope | None, Slope | None, int, int, int]


def count_negative(pieces: list[Piece], limit: int) -> tuple[int, int, tuple[int, int] | None]:
    """Classes where the forms are negative, all classes, and the first
    negative class in sweep order, over |p| <= limit, 1 <= q <= limit.

    A piece (lower, upper, alpha, beta, gamma) covers the p in a row with
    lower <= p/q < upper, for finite slopes lower and upper; None leaves
    that side unbounded.  Pieces must be disjoint and listed in
    increasing order; a part of a row under no piece counts as not negative.

    All classes number 1 + 2*sum over d of mu(d)*(limit // d)^2, computed
    once (0 for limit <= 0).  A row q is factored only when one of its
    pieces has a negative run, and the prime-factor table of 1..limit is
    sieved on the first such row: a sweep with no negative run builds no
    table, and a row with none costs only its piece bounds and
    _negative_runs calls.  A piece is visited only on the rows where it can
    meet the box: one with a lower side above 0 or an upper side below 0
    leaves the box after a last row, found once per call by floor
    division, and is dropped from the rows past it.
    """
    factor = None  # factor[n] is a prime factor of n, once a run needs divisors
    # each side as an integer pair; an unbounded side as one past the box,
    # -limit/1 below and (limit + 1)/1 above, which every row clips to the box
    sides = []
    for lower, upper, alpha, beta, gamma in pieces:
        lower_p, lower_q = (-limit, 1) if lower is None else (lower.p, lower.q)
        upper_p, upper_q = (limit + 1, 1) if upper is None else (upper.p, upper.q)
        # the last row where the piece can meet the box: past it a lower
        # side above 0 has lower*q > limit, an upper side below 0 has
        # upper*q <= -limit, and the row's slice is empty
        if lower_p > 0:
            last = limit * lower_q // lower_p
        elif upper_p < 0:
            last = -(limit * upper_q // upper_p) - 1
        else:
            last = limit
        sides.append((last, lower_p, lower_q, upper_p, upper_q, alpha, beta, gamma))
    # in increasing order, the last rows grow over the pieces below 0, are
    # limit over the pieces that span 0 and shrink over those above it, so
    # the pieces to drop are at the two ends and the earliest kept last row
    # is at one of them
    drop = 0
    negative = 0
    first = None
    for q in range(1, limit + 1):
        if q > drop:
            while sides and sides[-1][0] < q:
                sides.pop()
            while sides and sides[0][0] < q:
                del sides[0]
            drop = min(sides[0][0], sides[-1][0]) if sides else limit
        divisors = None  # squarefree divisors d of q with mu(d), once a run needs them
        for _, lower_p, lower_q, upper_p, upper_q, alpha, beta, gamma in sides:
            lo = -(-q * lower_p // lower_q)
            if lo < -limit:
                lo = -limit
            hi = -(-q * upper_p // upper_q) - 1
            if hi > limit:
                hi = limit
            if lo > hi:
                continue
            for x, y in _negative_runs(alpha, q * beta, q * q * gamma, lo, hi):
                if divisors is None:
                    if factor is None:
                        factor = _prime_factors(limit)
                    divisors = [(1, 1)]
                    n = q
                    while n > 1:
                        prime = factor[n]
                        while n % prime == 0:
                            n //= prime
                        divisors += [(d * prime, -mu) for d, mu in divisors]
                count = _count_coprime(divisors, x, y)
                negative += count
                if count and first is None:
                    # x is coprime to q: the forms are homogeneous and the sides
                    # rays, so a negative d*(p, q) has (p, q) negative on an earlier row
                    first = (x, q)
    return negative, _coprime_total(limit), first


def _prime_factors(limit: int) -> list[int]:
    """A prime factor of each n in 2..limit, at index n (entries 0 and 1
    are 0 and 1)."""
    factor = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if factor[i] == i:
            factor[i * i :: i] = [i] * len(range(i * i, limit + 1, i))
    return factor


def _coprime_total(limit: int) -> int:
    """How many p/q with |p| <= limit, 1 <= q <= limit are in lowest terms:
    0/1 and twice the C(limit) coprime pairs in [1, limit]^2, where
    C(n) = n^2 - sum over d >= 2 of C(n // d), since the pairs in [1, n]^2
    with gcd d are d times the coprime pairs in [1, n // d]^2.  The d with
    one quotient n // d are taken as one block.
    """
    memo = {}

    def pairs(n: int) -> int:
        if n not in memo:
            total, d = n * n, 2
            while d <= n:
                quotient = n // d
                end = n // quotient
                total -= (end - d + 1) * pairs(quotient)
                d = end + 1
            memo[n] = total
        return memo[n]

    return 2 * pairs(limit) + 1 if limit > 0 else 0


def _count_coprime(divisors: list[tuple[int, int]], x: int, y: int) -> int:
    """How many p in [x, y] are coprime to q, given the squarefree divisors
    d of q with their Moebius values."""
    return sum(mu * (y // d - (x - 1) // d) for d, mu in divisors)


def _negative_runs(alpha: int, beta: int, gamma: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """The maximal runs of integers p in [lo, hi] where
    alpha*p^2 + 2*beta*p + gamma < 0, in increasing order.

    Exact: alpha*f(p) = (alpha*p + beta)^2 - D with D = beta^2 - alpha*gamma,
    so with s = isqrt(D) each run end is one floor division.
    """
    if alpha == 0:
        if beta == 0:
            return [(lo, hi)] if gamma < 0 and lo <= hi else []
        if beta > 0:
            y = min(hi, (-gamma - 1) // (2 * beta))
            return [(lo, y)] if lo <= y else []
        x = max(lo, gamma // (-2 * beta) + 1)
        return [(x, hi)] if x <= hi else []
    disc = beta * beta - alpha * gamma
    if alpha > 0:
        if disc <= 0:
            return []
        s = math.isqrt(disc)
        s -= s * s == disc
        # |alpha*p + beta| <= s
        x = max(lo, -((s + beta) // alpha))
        y = min(hi, (s - beta) // alpha)
        return [(x, y)] if x <= y else []
    if disc < 0:
        return [(lo, hi)] if lo <= hi else []
    s = math.isqrt(disc) + 1
    # |alpha*p + beta| >= s, with alpha < 0
    y = min(hi, (s - beta) // alpha)
    x = max(lo, -((s + beta) // alpha))
    runs = [(lo, y)] if lo <= y else []
    if x <= hi:
        runs.append((x, hi))
    return runs
