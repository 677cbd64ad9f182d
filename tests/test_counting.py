import math
import random
from fractions import Fraction

from slopenorm import HOLDS, Slope, counting, fig8_dataset
from slopenorm.counting import _count_coprime, _negative_runs, _prime_factors, count_negative
from slopenorm.verify import sweep_norm_vs_length
from test_verify import brute_force_sweep, stretched, sweep_fields, thm1_manifold


def test_negative_runs_match_scan():
    rng = random.Random(47)
    for _ in range(3000):
        alpha = rng.choice((0, rng.randint(-30, 30)))
        beta = rng.randint(-60, 60)
        gamma = rng.randint(-400, 400)
        lo = rng.randint(-40, 10)
        hi = lo + rng.randint(-2, 60)
        negative = [p for p in range(lo, hi + 1) if alpha * p * p + 2 * beta * p + gamma < 0]
        covered = [p for x, y in _negative_runs(alpha, beta, gamma, lo, hi) for p in range(x, y + 1)]
        assert covered == negative, (alpha, beta, gamma, lo, hi)


def test_count_coprime_matches_gcd():
    # divisors of 60 that are squarefree, with their Moebius values
    divisors = [(1, 1), (2, -1), (3, -1), (5, -1), (6, 1), (10, 1), (15, 1), (30, -1)]
    for x, y in ((-60, 60), (-7, -1), (0, 0), (1, 59), (13, 12)):
        assert _count_coprime(divisors, x, y) == sum(math.gcd(p, 60) == 1 for p in range(x, y + 1))


def test_count_negative_pieces():
    # the form is p^2 - 4q^2 below the slope 1/1 and -2pq + 2q^2 from it on
    pieces = [(None, Slope(1, 1), 1, 0, -4), (Slope(1, 1), None, 0, -1, 2)]
    limit = 12
    want = []
    for q in range(1, limit + 1):
        for p in range(-limit, limit + 1):
            if math.gcd(p, q) == 1:
                value = p * p - 4 * q * q if p < q else -2 * p * q + 2 * q * q
                want.append(((p, q), value < 0))
    negative, total, first = count_negative(pieces, limit)
    assert total == len(want)
    assert negative == sum(bad for _, bad in want)
    assert first == next(s for s, bad in want if bad)
    assert count_negative(pieces, 0) == (0, 0, None)


def random_pieces(rng):
    """Disjoint pieces in increasing order between random finite sides (some
    with q > 1, so that narrow pieces are empty on some rows), with gaps
    and unbounded ends, and forms with alpha = 0, alpha < 0 and alpha > 0."""
    values = {Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))}
    sides = [None, *(Slope(v.numerator, v.denominator) for v in sorted(values)), None]
    pieces = []
    for lower, upper in zip(sides, sides[1:]):
        if rng.random() < 0.8:
            alpha = rng.choice((0, rng.randint(-9, -1), rng.randint(1, 9)))
            pieces.append((lower, upper, alpha, rng.randint(-20, 20), rng.randint(-60, 60)))
    return pieces


def enumerate_negative(pieces, limit):
    """count_negative by visiting every coprime pair in sweep order."""
    negative = total = 0
    first = None
    for q in range(1, limit + 1):
        for p in range(-limit, limit + 1):
            if math.gcd(p, q) != 1:
                continue
            total += 1
            for lower, upper, alpha, beta, gamma in pieces:
                if (lower is None or lower.p * q <= p * lower.q) and (upper is None or p * upper.q < upper.p * q):
                    if alpha * p * p + 2 * beta * p * q + gamma * q * q < 0:
                        negative += 1
                        first = first or (p, q)
                    break
    return negative, total, first


def test_count_negative_matches_enumeration():
    rng = random.Random(53)
    for case in range(600):
        pieces = random_pieces(rng)
        limit = rng.randint(0, 25)
        sides = sorted({(s.p, s.q) for piece in pieces for s in piece[:2] if s is not None})
        if sides and rng.random() < 0.5:
            # on row q a side p/q then lands on +-limit or next to it, where
            # the row bounds are clipped to the box
            p, _ = rng.choice(sides)
            limit = max(0, abs(p) + rng.choice((-1, 0, 1)))
        assert count_negative(pieces, limit) == enumerate_negative(pieces, limit), (case, pieces, limit)


def test_sweep_without_runs_builds_no_sieve(monkeypatch):
    # the figure-eight holds everywhere, so no row needs divisors and the
    # prime-factor table of 1..10^5 is never built
    calls = []

    def counted(limit):
        calls.append(limit)
        return _prime_factors(limit)

    monkeypatch.setattr(counting, "_prime_factors", counted)
    assert sweep_norm_vs_length(fig8_dataset(), 10**5).status == HOLDS
    assert calls == []


def test_total_matches_gcd_enumeration():
    # the box for n adds row q = n and the columns p = +-n of the rows below
    want = 0
    for n in range(-3, 301):
        if n > 0:
            want += sum(math.gcd(p, n) == 1 for p in range(-n, n + 1))
            want += 2 * sum(math.gcd(n, q) == 1 for q in range(1, n))
        assert count_negative([], n)[1] == want, n


def test_total_is_a_totient_sum():
    limit = 5000
    phi = list(range(limit + 1))
    for k in range(2, limit + 1):
        if phi[k] == k:
            for j in range(k, limit + 1, k):
                phi[j] -= phi[j] // k
    # 0/1 and +-p/q for the 2*sum(phi) - 1 coprime pairs in [1, limit]^2
    assert count_negative([], limit)[1] == 4 * sum(phi[1:]) - 1


def test_divisors_only_for_rows_with_runs(monkeypatch):
    calls = []

    def counted(divisors, x, y):
        calls.append((x, y))
        return _count_coprime(divisors, x, y)

    monkeypatch.setattr(counting, "_count_coprime", counted)
    fig8 = fig8_dataset()
    assert sweep_fields(fig8, 500)[0] == HOLDS
    assert calls == []
    m = thm1_manifold(stretched(fig8.cusp, fig8.norm), fig8.norm)
    assert sweep_fields(m, 20) == brute_force_sweep(m, 20)
    assert calls
