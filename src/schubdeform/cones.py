"""Exact cone membership.

No floating point anywhere.  A cone is given by generators, and membership
is a fraction-free phase-one simplex with Bland's rule, so it terminates.

The simplex is revised: every tableau row is a combination of the initial
rows, whose artificial block is the identity, so a row is kept as that
block (its coefficients over the initial rows) and its rhs, and a column is
computed only when it enters.  The reduced costs are y.column for a
generator column and y_k + alpha for artificial k, kept as the integer
vector (y, alpha).  Each kept vector stands for a positive multiple of the
rational one.  A pivot replaces row i by piv*T[i] - T[i][enter]*T[leave]
divided by its gcd and leaves the pivot row as it is.  Positive row scaling
keeps every sign and every per-row ratio, so Bland's choices and the verdict
are those of the rational simplex on the full tableau.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Sequence


def _clear_denominators(v: Sequence) -> list[int]:
    """The rational vector times the lcm of its denominators."""
    if all(type(x) is int for x in v):
        return list(v)
    from fractions import Fraction

    fr = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _eliminate(row: list[int], pivot_row: list[int], piv: int, f: int) -> list[int]:
    """piv*row - f*pivot_row, divided by the gcd of its entries."""
    out = [piv * a - f * b for a, b in zip(row, pivot_row)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def cone_contains(target: Sequence, generators: Sequence[Sequence]) -> bool:
    """Whether target lies in the nonnegative rational span of the generators."""
    m = len(target)
    n = len(generators)
    for g in generators:
        if len(g) != m:
            raise ValueError("generator dimension mismatch")
    # initial tableau rows [generator columns | artificial identity | rhs], one
    # per coordinate, scaled to integers and signed so that the rhs is >= 0;
    # its generator and rhs columns are kept, and each current row as
    # [coefficients over the initial rows | rhs]
    rows = []
    for i in range(m):
        row = _clear_denominators([g[i] for g in generators] + [target[i]])
        if row[-1] < 0:
            row = [-x for x in row]
        rows.append(row)
    columns = [tuple(row[j] for row in rows) for j in range(n + 1)]
    T = [[int(i == k) for k in range(m)] + [rows[i][n]] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-one reduced costs (unit cost on the artificials) as [y | alpha]
    dual = [-1] * m + [1]
    while True:
        enter = None
        for j in range(n):
            cost = sum(map(mul, dual, columns[j]))
            if cost < 0:
                enter = j
                break
        else:
            enter = next((n + k for k in range(m) if dual[k] + dual[m] < 0), None)
            if enter is None:
                break
            cost = dual[enter - n] + dual[m]
        if enter < n:
            col = [sum(map(mul, row, columns[enter])) for row in T]
        else:
            col = [row[enter - n] for row in T]
        # ratio test rhs/col[i] by cross-multiplication (denominators > 0)
        leave = None
        for i, row in enumerate(T):
            a = col[i]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = row[m] * col[leave]
                rhs = T[leave][m] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective unbounded below")
        pivot_row = T[leave]
        piv = col[leave]
        for i, row in enumerate(T):
            if i != leave and col[i]:
                T[i] = _eliminate(row, pivot_row, piv, col[i])
        dual = _eliminate(dual, pivot_row[:m] + [0], piv, cost)
        basis[leave] = enter
    return sum(map(mul, dual, columns[n])) == 0
