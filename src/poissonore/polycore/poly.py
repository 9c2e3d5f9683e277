"""Sparse multivariate polynomials over QQ(i), with monomial orders.

A ring is just an ordered tuple of variable names; exponent vectors are
tuples aligned with it.  Polynomials are immutable once built and keep a
canonical term map (no zero coefficients), so structural equality is
mathematical equality.

Division has one loop, `_remainder`, which runs fraction-free over Z[i];
`exact_divide` and `groebner`'s reductions scale its results back, so
callers see only Polys over QQ(i).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, le, neg, sub
from typing import Callable, Iterable, Mapping, Union

from .scalars import GaussRat, ONE, ZERO, _reduce as _gauss, render_coeff

Expvec = tuple[int, ...]
Coeff = Union[GaussRat, int, Fraction]

# precedence of the named ring variables; internal/auxiliary variables
# sort after these, alphabetically
_CANON = {"x": 0, "y": 1, "z": 2, "h": 3}


def canonical_ring(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=lambda v: (_CANON.get(v, len(_CANON)), v)))


def fresh_names(ring: tuple[str, ...], names: list[str]) -> tuple[str, ...]:
    """Auxiliary variable names for an extension of ring.

    Each name is suffixed with underscores until it is neither a ring
    variable nor an earlier name; names that do not clash come back as
    they are.
    """
    taken = set(ring)
    out = []
    for v in names:
        while v in taken:
            v += "_"
        taken.add(v)
        out.append(v)
    return tuple(out)


# -- monomial orders ---------------------------------------------------


class MonomialOrder:
    """Total order on exponent vectors, exposed as a sort key."""

    tag: str

    def key(self, e: Expvec) -> tuple:
        raise NotImplementedError


class Grevlex(MonomialOrder):
    tag = "grevlex"

    def key(self, e: Expvec) -> tuple:
        return (sum(e), *map(neg, reversed(e)))


class Lex(MonomialOrder):
    tag = "lex"

    def key(self, e: Expvec) -> tuple:
        return e


class BlockElim(MonomialOrder):
    """Grevlex on a leading block of variables, then grevlex on the rest.

    Any monomial touching the leading block exceeds every monomial that
    does not, which is what elimination needs.
    """

    def __init__(self, head: int):
        self.head = head
        self.tag = f"elim:{head}"

    def key(self, e: Expvec) -> tuple:
        a, b = e[: self.head], e[self.head :]
        return (sum(a), *map(neg, reversed(a)), sum(b), *map(neg, reversed(b)))


GREVLEX = Grevlex()
LEX = Lex()

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_by_tag(tag: str) -> MonomialOrder:
    try:
        return _ORDERS[tag]
    except KeyError:
        raise ValueError(f"unknown monomial order {tag!r}") from None


def mono_divides(a: Expvec, b: Expvec) -> bool:
    return all(map(le, a, b))


def mono_div(a: Expvec, b: Expvec) -> Expvec:
    return tuple(map(sub, a, b))


def mono_mul(a: Expvec, b: Expvec) -> Expvec:
    return tuple(map(add, a, b))


def mono_lcm(a: Expvec, b: Expvec) -> Expvec:
    return tuple(map(max, a, b))


def _add_term(out: dict[Expvec, GaussRat], e: Expvec, c: GaussRat) -> None:
    """out[e] += c, dropping e when the sum cancels."""
    s = out.get(e)
    if s is None:
        out[e] = c
    else:
        s = s + c
        if s:
            out[e] = s
        else:
            del out[e]


# -- polynomials -------------------------------------------------------

_new = object.__new__


class Poly:
    """A polynomial over QQ(i): a ring and a canonical term map.

    The constructor validates and cleans its input: every exponent
    vector must have one non-negative entry per ring variable, and
    coefficients are coerced with zeros dropped.  Internal code that
    builds term maps already in that form uses Poly._raw instead.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: tuple[str, ...], terms: Mapping[Expvec, Coeff]):
        ring = tuple(ring)
        n = len(ring)
        cleaned: dict[Expvec, GaussRat] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"exponent vector {e} does not fit ring {ring}")
            c = GaussRat.coerce(c)
            if c:
                cleaned[e] = c
        _set_ring(self, ring)
        _set_terms(self, cleaned)

    @classmethod
    def _raw(cls, ring: tuple[str, ...], terms: dict[Expvec, GaussRat]) -> "Poly":
        """Trusted constructor: terms is taken as it is, without a copy.

        Every key must be an exponent tuple of len(ring) non-negative
        ints and every value a nonzero GaussRat.
        """
        p = _new(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: tuple[str, ...]) -> "Poly":
        return Poly._raw(tuple(ring), {})

    @staticmethod
    def constant(ring: tuple[str, ...], c: Coeff) -> "Poly":
        c = GaussRat.coerce(c)
        return Poly._raw(tuple(ring), {(0,) * len(ring): c} if c else {})

    @staticmethod
    def one(ring: tuple[str, ...]) -> "Poly":
        return Poly.constant(ring, 1)

    @staticmethod
    def var(ring: tuple[str, ...], name: str) -> "Poly":
        i = ring.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(ring)))
        return Poly(ring, {e: ONE})

    @staticmethod
    def monomial(ring: tuple[str, ...], exps: Mapping[str, int], c: Coeff = 1) -> "Poly":
        e = tuple(exps.get(v, 0) for v in ring)
        return Poly(ring, {e: GaussRat.coerce(c)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        z = (0,) * len(self.ring)
        return all(e == z for e in self.terms)

    def uses(self, name: str) -> bool:
        i = self.ring.index(name)
        return any(e[i] for e in self.terms)

    def used_vars(self) -> tuple[str, ...]:
        seen = [False] * len(self.ring)
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    seen[i] = True
        return tuple(v for v, s in zip(self.ring, seen) if s)

    # -- degrees and leading data ---------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.ring.index(name)
        return max(e[i] for e in self.terms)

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Expvec, GaussRat]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Expvec:
        return self.leading_term(order)[0]

    def leading_coeff(self, order: MonomialOrder = GREVLEX) -> GaussRat:
        return self.leading_term(order)[1]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Poly":
        if not self.terms:
            return self
        return self * self.leading_coeff(order).inverse()

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Expvec, GaussRat]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.constant(self.ring, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, c)
        return Poly._raw(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.constant(self.ring, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, -c)
        return Poly._raw(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            if not c:
                return Poly.zero(self.ring)
            return Poly._raw(self.ring, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out: dict[Expvec, GaussRat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(out, mono_mul(e1, e2), c1 * c2)
        return Poly._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.constant(self.ring, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self.is_constant():  # hashed like the scalar it equals
            return hash(self.terms.get((0,) * len(self.ring), ZERO))
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus --------------------------------------------------------

    def partial(self, name: str) -> "Poly":
        i = self.ring.index(name)
        out: dict[Expvec, GaussRat] = {}
        for e, c in self.terms.items():
            if e[i]:  # distinct e give distinct e2
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return Poly._raw(self.ring, out)

    # -- ring changes ------------------------------------------------------

    def embed(self, ring: tuple[str, ...]) -> "Poly":
        """Reinterpret in another ring; every used variable must exist there."""
        if ring == self.ring:
            return self
        pos = {}
        for i, v in enumerate(self.ring):
            if v in ring:
                pos[i] = ring.index(v)
        out: dict[Expvec, GaussRat] = {}
        for e, c in self.terms.items():
            e2 = [0] * len(ring)
            for i, x in enumerate(e):
                if not x:
                    continue
                if i not in pos:
                    raise ValueError(
                        f"variable {self.ring[i]!r} does not exist in ring {ring}"
                    )
                e2[pos[i]] = x
            out[tuple(e2)] = c
        return Poly._raw(ring, out)

    def substitute(self, name: str, value: "Poly | Coeff") -> "Poly":
        """Substitute value for one variable; the result ring drops that variable.

        Horner's rule over the strata in name, from the top one down:
        out = out*value + s_k.  A polynomial free of name comes back
        re-keyed, with no scalar arithmetic.  An unknown name, or a value
        that uses name, raises ValueError.
        """
        i = self.ring.index(name)
        ring2 = self.ring[:i] + self.ring[i + 1 :]
        if isinstance(value, (int, Fraction, GaussRat)):
            value = GaussRat.coerce(value)
        else:
            value = value.embed(ring2)
        strata = self.strata(name)
        top = max(strata, default=0)
        out = strata.get(top, Poly._raw(ring2, {}))
        for k in range(top - 1, -1, -1):
            out = out * value
            if k in strata:
                out = out + strata[k]
        return out

    def evaluate(self, assignment: Mapping[str, GaussRat]) -> GaussRat:
        missing = [v for v in self.used_vars() if v not in assignment]
        if missing:
            raise ValueError(f"no value for {missing}")
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for i, x in enumerate(e):
                if x:
                    val = val * assignment[self.ring[i]] ** x
            total = total + val
        return total

    def strata(self, name: str) -> dict[int, "Poly"]:
        """Coefficients of powers of one variable, over the smaller ring."""
        i = self.ring.index(name)
        ring2 = self.ring[:i] + self.ring[i + 1 :]
        out: dict[int, dict[Expvec, GaussRat]] = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + e[i + 1 :]] = c
        return {k: Poly._raw(ring2, t) for k, t in sorted(out.items())}

    @staticmethod
    def from_strata(ring: tuple[str, ...], name: str, strata: Mapping[int, "Poly"]) -> "Poly":
        """Sum of strata[k] * name^k; a stratum may use name itself."""
        i = ring.index(name)
        out: dict[Expvec, GaussRat] = {}
        for k, coeff in strata.items():
            for e, c in coeff.embed(ring).terms.items():
                _add_term(out, e[:i] + (e[i] + k,) + e[i + 1 :], c)
        return Poly._raw(ring, out)

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return render(self)


_set_ring = Poly.ring.__set__
_set_terms = Poly.terms.__set__


# -- division over Z[i] ---------------------------------------------------------

# The division loop's private form of a polynomial: a term map from
# exponent vectors to Gaussian integers a + b*i, stored as pairs (a, b).
_ZiTerms = dict[Expvec, tuple[int, int]]
# A divisor: its leading monomial, its leading coefficient (a positive
# integer), its other terms as triples (e, a, b), and its whole term map.
_Element = tuple[Expvec, int, list[tuple[Expvec, int, int]], _ZiTerms]


class _Keys(dict):
    """order.key of each exponent vector, computed on first use."""

    def __init__(self, order: MonomialOrder):
        self.order = order

    def __missing__(self, e: Expvec) -> tuple:
        k = self[e] = self.order.key(e)
        return k


def _integral(p: Poly) -> tuple[_ZiTerms, int]:
    """p times the lcm d of its denominators, as a Z[i] term map, and d."""
    d = 1
    for c in p.terms.values():
        d = lcm(d, c.d)
    return {e: (c.a * (d // c.d), c.b * (d // c.d)) for e, c in p.terms.items()}, d


def _rational(terms: _ZiTerms, k: GaussRat) -> dict[Expvec, GaussRat]:
    """The Z[i] terms times the scalar k, as a term map over QQ(i)."""
    a, b, d = k.a, k.b, k.d
    return {e: _gauss(x * a - y * b, x * b + y * a, d) for e, (x, y) in terms.items()}


def _element(terms: _ZiTerms, lm: Expvec) -> _Element:
    """terms as a divisor: times the conjugate of their leading coefficient, over their content."""
    a, b = terms[lm]
    if b:
        terms = {e: (x * a + y * b, y * a - x * b) for e, (x, y) in terms.items()}
    elif a < 0:
        terms = {e: (-x, -y) for e, (x, y) in terms.items()}
    g = 0
    for x, y in terms.values():
        g = gcd(g, x, y)
        if g == 1:
            break
    else:
        terms = {e: (x // g, y // g) for e, (x, y) in terms.items()}
    return lm, terms[lm][0], [(e, x, y) for e, (x, y) in terms.items() if e != lm], terms


def _sub_scaled(work: _ZiTerms, u: int, v: int, m: Expvec, tail: list) -> None:
    """work -= (u + v*i) * x^m * tail, in place, dropping the terms that cancel."""
    for t, x, y in tail:
        t = tuple(map(add, m, t))
        p, q = u * x - v * y, u * y + v * x
        old = work.get(t)
        if old is None:
            work[t] = (-p, -q)
        else:
            p, q = old[0] - p, old[1] - q
            if p or q:
                work[t] = (p, q)
            else:
                del work[t]


def _remainder(
    work: _ZiTerms, divisors: list[_Element], key: Callable, quotient: _ZiTerms | None = None
) -> tuple[_ZiTerms, int]:
    """The remainder of work by the divisors, times s, and the positive integer s.

    The division algorithm (Cox, Little, O'Shea, Ideals, Varieties, and
    Algorithms, Thm. 2.3.3) without fractions: the first divisor whose
    leading monomial divides the leading term (u + v*i)*x^e of what is
    left cancels it, or else that term moves to the remainder.  With the
    divisor's leading term a*x^lm, everything left and the remainder so
    far are multiplied by the integer a/g, and (u + v*i)/g * x^(e - lm)
    times the divisor is subtracted, where g = gcd(a, u, v); s is the
    product of those factors.  The remainder comes out in descending
    order, its leading term first.  work is consumed.  With one divisor
    D, a dict passed as quotient collects the Q with s*work = Q*D + rem.
    """
    rem: _ZiTerms = {}
    parts = (work, rem) if quotient is None else (work, rem, quotient)
    s = 1
    while work:
        e = max(work, key=key)
        for lm, a, tail, _ in divisors:
            if all(map(le, lm, e)):
                u, v = work.pop(e)
                g = gcd(a, u, v)
                if g != a:
                    f = a // g
                    s *= f
                    for part in parts:
                        for t, (x, y) in part.items():
                            part[t] = (x * f, y * f)
                m = tuple(map(sub, e, lm))
                if quotient is not None:
                    quotient[m] = (u // g, v // g)
                _sub_scaled(work, u // g, v // g, m, tail)
                break
        else:
            rem[e] = work.pop(e)
    return rem, s


def exact_divide(p: Poly, d: Poly) -> Poly | None:
    """The quotient p/d when d divides p exactly, else None; it is unique.

    For the divisor D = (a/lc(d))*d, `_remainder` gives s*den*p = Q*D + R.
    """
    p._check_ring(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    key = _Keys(GREVLEX).__getitem__
    divisor = _element(_integral(d)[0], max(d.terms, key=key))
    work, den = _integral(p)
    quotient: _ZiTerms = {}
    rem, s = _remainder(work, [divisor], key, quotient)
    if rem:
        return None
    scale = _gauss(divisor[1], 0, s * den) / d.terms[divisor[0]]
    return Poly._raw(p.ring, _rational(quotient, scale))


# -- canonical rendering ------------------------------------------------------


def _mono_str(ring: tuple[str, ...], e: Expvec) -> str:
    parts = []
    for v, x in zip(ring, e):
        if x == 1:
            parts.append(v)
        elif x > 1:
            parts.append(f"{v}^{x}")
    return "*".join(parts)


def render(p: Poly, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form: terms descending in the given order.

    The output parses back to the same polynomial under the expression
    grammar (explicit * and ^, no implicit multiplication).
    """
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for e, c in p.sorted_terms(order):
        mono = _mono_str(p.ring, e)
        body = render_coeff(c)
        if mono:
            if c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{body}*{mono}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-") and not body.startswith("-("):
            chunks.append(f" - {body[1:]}")
        else:
            chunks.append(f" + {body}")
    return "".join(chunks)
