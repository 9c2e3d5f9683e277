"""Exact dense linear algebra over QQ(i): just enough for coefficient matching."""

from __future__ import annotations

from .scalars import GaussRat, ZERO


def rref(rows: list[list[GaussRat]]) -> tuple[list[list[GaussRat]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_linear(
    rows: list[list[GaussRat]], rhs: list[GaussRat]
) -> list[GaussRat] | None:
    """One solution of rows * x = rhs, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        if c == n:
            return None  # pivot in the rhs column: inconsistent
        x[c] = red[i][n]
    return x

