"""The p-adic helpers behind univariate_roots."""

from __future__ import annotations

from itertools import islice

from poissonore.polycore.padic import (
    _reduced_basis,
    _short_vector,
    scaled_root_candidates,
    split_primes,
    sqrt_minus_one,
)


def test_split_primes_and_square_roots_of_minus_one():
    primes = list(islice(split_primes(), 11))
    assert primes == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    for p in primes:
        assert sqrt_minus_one(p) ** 2 % p == p - 1


def test_short_vector_recovers_everything_inside_the_bound():
    # every w with 4*|w|^2 < m is read back from its image in Z/m
    for p, k in ((5, 1), (5, 4), (13, 2), (17, 3)):
        m = p**k
        iota = next(s for s in range(m) if (s * s + 1) % m == 0)
        basis = _reduced_basis(m, iota)
        r = int((m / 4) ** 0.5) + 1
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if 4 * (x * x + y * y) < m:
                    assert _short_vector((x + y * iota) % m, basis) == (x, y), (m, x, y)


def _times(f, g):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for j, (a, b) in enumerate(f):
        for k, (c, d) in enumerate(g):
            re, im = out[j + k]
            out[j + k] = (re + a * c - b * d, im + a * d + b * c)
    return out


def test_candidates_hold_lc_times_each_root_when_the_first_primes_divide_lc():
    # lc = (4+7i)(2-3i) has norm 65*13, so 5 and 13 are skipped; the
    # roots are v/u for the factors u*t - v
    factors = [((4, 7), (1, -2)), ((2, -3), (-5, 9)), ((1, 0), (3, 0))]
    f = [(1, 0)]
    for u, v in factors:
        f = _times(f, [(-v[0], -v[1]), u])
    lc = f[-1]
    cands = scaled_root_candidates(f)
    for u, v in factors:
        # lc*v/u is a Gaussian integer, since u divides lc
        n = u[0] ** 2 + u[1] ** 2
        w = _times([lc], [(v[0] * u[0] + v[1] * u[1], v[1] * u[0] - v[0] * u[1])])[0]
        assert w[0] % n == 0 and w[1] % n == 0
        assert (w[0] // n, w[1] // n) in cands
