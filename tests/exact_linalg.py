"""Small dense exact-rational linear algebra for the tests.

The `Fraction` row reduction behind `reference.simple_coefficients`, and the
kernels that tests compute from rational matrices (dimensions stay small).
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(a) -> list[list[Fraction]]:
    """Basis of the right nullspace of `a` (list of coefficient vectors)."""
    m, pivots = rref(a)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis
