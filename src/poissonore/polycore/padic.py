"""p-adic tools over the Gaussian integers Z[i].

Every rational prime p = 1 mod 4 splits in Z[i].  With iota a square root
of -1 mod p^k, the ring map a + b*i -> a + b*iota onto Z/p^k has kernel
P^k, for the prime P = (p, i - iota) of norm p.  A polynomial over Z[i]
thus reduces to one over F_p, Newton iteration lifts its simple roots to
Z/p^k, and an element of Z[i] is read back from its image in Z/p^k as
the short vector of a two-dimensional lattice (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 14-15).

Gaussian integers are pairs (re, im) of ints; polynomials are lists of
coefficients in ascending degree.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt

GaussInt = tuple[int, int]


def split_primes() -> Iterator[int]:
    """The primes p = 1 mod 4 in increasing order: 5, 13, 17, 29, ..."""
    p = 5
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo the prime p = 1 mod 4."""
    for c in range(2, p):
        s = pow(c, (p - 1) // 4, p)
        if s * s % p == p - 1:  # c is a non-residue
            return s
    raise ValueError(f"{p} is not a prime = 1 mod 4")


def _eval(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a by b over F_p; b has a nonzero leading coefficient."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] = (a[shift + k] - q * c) % p
        _trim(a)
    return a


def _squarefree_mod(f: list[int], p: int) -> bool:
    """Whether f, reduced mod p with a nonzero leading coefficient, is squarefree over F_p."""
    a, b = f, _trim([k * c % p for k, c in enumerate(f)][1:])
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) == 1


def _round_div(n: int, d: int) -> int:
    """The integer nearest n/d."""
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


def _dot(u: GaussInt, v: GaussInt) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _reduced_basis(m: int, iota: int) -> tuple[GaussInt, GaussInt]:
    """A Lagrange-Gauss reduced basis of the lattice {(x, y) : x + y*iota = 0 mod m}."""
    u, v = (m, 0), (-iota, 1)
    if _dot(u, u) < _dot(v, v):
        u, v = v, u
    while True:
        q = _round_div(_dot(u, v), _dot(v, v))
        u = (u[0] - q * v[0], u[1] - q * v[1])
        if _dot(u, u) >= _dot(v, v):
            return v, u
        u, v = v, u


def _short_vector(c: int, basis: tuple[GaussInt, GaussInt]) -> GaussInt:
    """(c, 0) minus the lattice vector found by rounding its coordinates in the basis."""
    (a, b), (e, f) = basis
    det = a * f - b * e
    s, t = _round_div(c * f, det), _round_div(-c * b, det)
    return c - s * a - t * e, -s * b - t * f


def _reductions(f: list[GaussInt]) -> Iterator[tuple[int, int, list[int]]]:
    """(p, iota, f mod P) for each split prime p not dividing N(lc), in increasing order."""
    lc_norm = _dot(f[-1], f[-1])
    for p in split_primes():
        if lc_norm % p:
            iota = sqrt_minus_one(p)
            yield p, iota, [(a + b * iota) % p for a, b in f]


def squarefree_at_first_prime(f: list[GaussInt]) -> bool:
    """Whether f mod P is squarefree for the first split prime p not dividing N(lc).

    If so, f has no repeated factor over QQ(i).  By Gauss's lemma over
    the factorial ring Z[i], a repeated factor would give f = h^2 * k
    with h of degree >= 1 in Z[i][t].  P does not divide lc(f), so it
    does not divide lc(h) either: h mod P keeps its degree, and its
    square divides f mod P.
    """
    p, _, fm = next(_reductions(f))
    return _squarefree_mod(fm, p)


def scaled_root_candidates(f: list[GaussInt]) -> list[GaussInt]:
    """Gaussian integers among which lc*r lies for every root r in QQ(i) of f.

    f has degree >= 1, coefficients in Z[i] and no repeated factor over
    QQ(i); lc is its leading coefficient.  A candidate need not come from
    a root, so callers check each one exactly.

    Method: take the first prime p = 1 mod 4 with p not dividing N(lc) and
    f mod P squarefree, for P = (p, i - iota); find the roots of f mod P
    in F_p by trying every residue; Newton-lift each of them, and iota,
    to Z/p^k with p^k > 4*B^2, where B = |lc| + max |a_j| (j < n = deg f)
    is Cauchy's bound on |lc*r|; multiply each lifted root by lc to get
    c in Z/p^k, and read c back as the short vector of (c, 0) + L for the
    lattice L = {(x, y) : x + y*iota = 0 mod p^k}.  Such a prime exists:
    f mod P is squarefree of degree n unless P divides lc or the
    discriminant of f, which is nonzero.

    Completeness.  Let r be a root in QQ(i).  Then w = lc*r is a root of
    the monic lc^(n-1) * f(t/lc), so w lies in Z[i], and |w| <= B.  P does
    not divide lc, so r reduces to a root of f mod P, and that root is
    simple.  Hensel's lemma lifts a simple root uniquely, so the lift is
    the image of r in Z[i]/P^k = Z/p^k, and c is the image of w, that is
    (x, y) = w lies in (c, 0) + L.  L is the ideal P^k = (pi^k), where
    P = (pi), and is closed under multiplication by i: a square lattice
    whose shortest vectors, pi^k times a unit, have length p^(k/2).  Its
    Lagrange-Gauss reduced basis is therefore orthogonal with both vectors
    of that length, so rounding the coordinates of (c, 0) in it subtracts
    the lattice vector nearest (c, 0), and that leaves w whenever
    |w| < p^(k/2) / 2, which p^k > 4*B^2 guarantees.
    """
    bound = isqrt(_dot(f[-1], f[-1])) + 1 + isqrt(max(_dot(a, a) for a in f[:-1])) + 1
    p, iota, fm = next(r for r in _reductions(f) if _squarefree_mod(r[2], r[0]))
    m = p
    roots = [x for x in range(p) if not _eval(fm, x, p)]
    while roots and m <= 4 * bound * bound:
        m *= m
        iota = (iota - (iota * iota + 1) * pow(2 * iota, -1, m)) % m
        fm = [(a + b * iota) % m for a, b in f]
        df = [k * c for k, c in enumerate(fm)][1:]
        roots = [(r - _eval(fm, r, m) * pow(_eval(df, r, m), -1, m)) % m for r in roots]
    basis = _reduced_basis(m, iota)
    return [_short_vector(fm[-1] * r % m, basis) for r in roots]
