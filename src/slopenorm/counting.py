"""Exact counts of the coprime pairs (p, q) with |p|, q <= N where an
integer quadratic form is negative, taken row by row instead of pair by
pair.  On a row a quadratic is negative on at most two runs of p, whose
ends follow exactly from math.isqrt and floor division; the p coprime to q
in a run are counted by Moebius inversion over the squarefree divisors of q.
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
    """
    # factor[n] is a prime factor of n, for 2 <= n <= limit
    factor = list(range(limit + 1))
    for i in range(2, math.isqrt(max(limit, 0)) + 1):
        if factor[i] == i:
            factor[i * i :: i] = [i] * len(range(i * i, limit + 1, i))
    negative = total = 0
    first = None
    for q in range(1, limit + 1):
        divisors = [(1, 1)]  # squarefree divisors d of q with mu(d)
        n = q
        while n > 1:
            prime = factor[n]
            while n % prime == 0:
                n //= prime
            divisors += [(d * prime, -mu) for d, mu in divisors]
        total += _count_coprime(divisors, -limit, limit)
        for lower, upper, alpha, beta, gamma in pieces:
            lo = -limit if lower is None else max(-limit, -(-q * lower.p // lower.q))
            hi = limit if upper is None else min(limit, -(-q * upper.p // upper.q) - 1)
            for x, y in _negative_runs(alpha, q * beta, q * q * gamma, lo, hi):
                count = _count_coprime(divisors, x, y)
                negative += count
                if count and first is None:
                    while math.gcd(x, q) != 1:  # stops by y, since count > 0
                        x += 1
                    first = (x, q)
    return negative, total, first


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
            runs = [(lo, hi)] if gamma < 0 else []
        elif beta > 0:
            runs = [(lo, (-gamma - 1) // (2 * beta))]
        else:
            runs = [(gamma // (-2 * beta) + 1, hi)]
    else:
        disc = beta * beta - alpha * gamma
        if alpha > 0:
            if disc <= 0:
                return []
            s = math.isqrt(disc)
            s -= s * s == disc
            # |alpha*p + beta| <= s
            runs = [(-((s + beta) // alpha), (s - beta) // alpha)]
        elif disc < 0:
            runs = [(lo, hi)]
        else:
            s = math.isqrt(disc) + 1
            # |alpha*p + beta| >= s, with alpha < 0
            runs = [(lo, (s - beta) // alpha), (-((s + beta) // alpha), hi)]
    clipped = [(max(x, lo), min(y, hi)) for x, y in runs]
    return [(x, y) for x, y in clipped if x <= y]
