"""Shared plumbing for the benchmark scripts: import paths and seeded draws.

The draws mirror the distributions of the acceptance criteria in
tests/test_acceptance.py, but live here so that the benchmark's inputs do
not change when the test helpers do.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA_DIR = BENCH_DIR / "data"
BASE = ("x", "y")


def use_checkout() -> None:
    """Make the checkout's package and its test oracles importable."""
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


use_checkout()

from poissonore import GaussRat, Poly  # noqa: E402


def rand_gauss(rng: random.Random, span: int = 4, imag: bool = True) -> GaussRat:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im = (
        Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if imag and rng.random() < 0.3
        else Fraction(0)
    )
    return GaussRat(re, im)


def rand_poly(
    rng: random.Random,
    ring: tuple[str, ...],
    deg: int,
    terms: int = 4,
    span: int = 3,
    imag: bool = False,
) -> Poly:
    """A sparse random polynomial, drawn exactly as the test suite draws it."""
    acc: dict[tuple[int, ...], GaussRat] = {}
    for _ in range(terms):
        e = [0] * len(ring)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(ring))] += 1
        c = rand_gauss(rng, span, imag)
        key = tuple(e)
        acc[key] = acc.get(key, GaussRat()) + c
    return Poly(ring, {e: c for e, c in acc.items() if c})
