"""Test-side references for facts the package does not compute itself.

`simple_coefficients` solves for simple-root coefficients with a
`Fraction` row reduction, independent of the package's height walk;
`is_parallel` is the proportionality test that `orbits` replaces by a
lookup; the Wolf ratio, the delta-string depth and the nullity bound
state facts of the paper's setting that the tests check against
`rootsys` and `orbits`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from exact_linalg import rref

from gaussorbits.rootsys import InvariantViolation, RootSystem, RootVec, inner, norm_sq


def rootvec(*coords) -> RootVec:
    return RootVec(coords)


@lru_cache(maxsize=None)
def _left_inverse(system: RootSystem):
    # rref of [S | I], S with the simple roots as columns: its first rank
    # rows end in functionals reading off the coefficients of a vector of
    # the span, and the other rows in functionals that vanish on the span.
    dim, rank = system.ambient_dim, system.rank
    rows = [
        [s.coords[k] for s in system.simple_roots] + [int(j == k) for j in range(dim)]
        for k in range(dim)
    ]
    reduced, pivots = rref(rows)
    if pivots[:rank] != list(range(rank)):
        raise ValueError(f"the simple roots of {system.rstype.label()} are dependent")
    return [row[rank:] for row in reduced[:rank]], [row[rank:] for row in reduced[rank:]]


def simple_coefficients(system: RootSystem, v: RootVec) -> tuple[Fraction, ...]:
    """Coefficients of v in the simple-root basis (v must lie in the span)."""
    if v.dim != system.ambient_dim:
        raise ValueError(f"dimension mismatch: {system.ambient_dim} vs {v.dim}")
    coeffs, normals = _left_inverse(system)
    x = v.coords
    if any(sum(map(operator.mul, row, x)) for row in normals):
        raise ValueError(f"{v!r} is not in the span of the simple roots")
    return tuple(sum(map(operator.mul, row, x)) for row in coeffs)


WOLF_ORTHOGONAL = "orthogonal"
WOLF_HALF = "half"
WOLF_HIGHEST = "highest"


def wolf_ratio(system: RootSystem, lam: RootVec) -> Fraction:
    return inner(lam, system.highest_root) / norm_sq(system.highest_root)


def wolf_class(system: RootSystem, lam: RootVec) -> str:
    """Value class of <lam, delta>/|delta|^2, which is 0, 1/2 or 1.

    Any other ratio is impossible in a correctly built system, so it
    raises InvariantViolation.
    """
    if not system.contains_positive(lam):
        raise ValueError(f"{lam!r} is not a positive root of {system.rstype.label()}")
    r = wolf_ratio(system, lam)
    if r == 0:
        return WOLF_ORTHOGONAL
    if r == Fraction(1, 2):
        return WOLF_HALF
    if r == 1:
        return WOLF_HIGHEST
    raise InvariantViolation(
        f"{system.rstype.label()}: Wolf ratio of {lam!r} is {r}, outside {{0, 1/2, 1}}"
    )


def delta_string_depth(system: RootSystem, lam: RootVec) -> int:
    """Largest -p with lam - p*delta still in the delta-string through lam.

    The string may pass through zero (that happens exactly for lam equal
    to the highest root).
    """
    depth = 0
    v = lam - system.highest_root
    while system.contains(v) or v.is_zero():
        depth -= 1
        v = v - system.highest_root
    return depth


def is_parallel(a: RootVec, b: RootVec) -> bool:
    """True when a and b are nonzero multiples of each other (either sign)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    an, bn = a._num, b._num
    j = next((i for i, x in enumerate(bn) if x), None)
    if j is None or not any(an):
        return False
    aj, bj = an[j], bn[j]
    return all(x * bj == aj * y for x, y in zip(an, bn))


def nullity_upper_bound(pair, H: RootVec) -> int:
    """Sum of m(mu) over positive roots mu on the line of H.

    This is the a-priori bound on the relative nullity; for BC pairs at
    the long-root orbit it strictly exceeds the actual nullity because
    both e_1 and 2e_1 contribute.
    """
    if H.is_zero():
        raise ValueError("H must be nonzero")
    return sum(
        pair.multiplicity(mu)
        for mu in pair.system().positive_roots
        if is_parallel(mu, H)
    )
