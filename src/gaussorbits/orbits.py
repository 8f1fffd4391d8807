"""Tangential-degeneracy classification of isotropy orbits.

The orbit through a chamber point H is tangentially degenerate exactly
when H points along a long restricted root, or along a short root when
the restricted system is G2; the degeneracy then equals the multiplicity
of that root.  Everything else is non-degenerate.  `classify` applies
that rule after folding H into the closed chamber, records the orbit
dimension, Gauss rank and nullity, and cross-checks the sufficient
root-combinatorial conditions (a)/(b) on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import pairdb, rootsys
from .rootsys import InvariantViolation, RootSystem, RootVec, inner, is_orthogonal

RULE_LONG_ROOT = "LongRoot"
RULE_G2_SHORT_ROOT = "G2ShortRoot"
RULE_NOT_PARALLEL = "NotParallelToRoot"
RULE_SHORT_NON_G2 = "ShortRootNonG2"

ORBIT_SPECS = ("highest", "long", "short", "middle")


@dataclass(frozen=True)
class OrbitReport:
    pair: str
    H: RootVec
    degenerate: bool
    l: int
    r: int
    nullity: int
    rule: str
    root_class: str | None = None
    satisfies_ab: bool | None = None

    def __post_init__(self):
        if self.nullity != self.l - self.r or self.nullity < 0:
            raise InvariantViolation(f"inconsistent report: {self}")
        if self.degenerate != (self.nullity > 0):
            raise InvariantViolation(f"inconsistent report: {self}")
        if self.degenerate and self.rule not in (RULE_LONG_ROOT, RULE_G2_SHORT_ROOT):
            raise InvariantViolation(f"degenerate orbit with rule {self.rule}")


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Shape-operator eigenvalues with multiplicities, summing to l."""

    entries: tuple[tuple[Fraction, int], ...]


def weyl_fold(system: RootSystem, H: RootVec) -> RootVec:
    """The closed-chamber representative of the Weyl orbit of H."""
    if H.dim != system.ambient_dim:
        raise ValueError(f"dimension mismatch: {H.dim} vs {system.ambient_dim}")
    if H.is_zero():
        raise ValueError("H must be nonzero")
    current = H
    while True:
        num = current._num
        for alpha, support in zip(system.simple_roots, system.simple_support):
            dot = 0
            for i, x in support:
                dot += x * num[i]
            if dot < 0:
                current = rootsys.reflect(current, alpha)
                break
        else:
            return current


def _orbit_facts(system: RootSystem, H: RootVec):
    """The facts of the orbit through the chamber point H that no pair changes.

    One pass over the positive roots gives, per class of
    CLASSES[family], the number of positive roots not orthogonal to H,
    and the longest positive root lam on the line of H (in a BC system
    both e_1 and 2e_1 lie on one line; the longer one is kept so the rule
    sees the long root).  Returns (counts, lam, root class of lam, (a)
    and (b) at lam); the last three are None when no root is on the line.

    Each <mu, H> reads only the nonzero coordinates of H, and the walk
    starts at the top, where a highest-root H meets its lam first; the
    counts are sums and lam is the longest root on the line of H, so the
    order does not change the result.
    """
    if H.dim != system.ambient_dim:
        raise ValueError(f"dimension mismatch: {H.dim} vs {system.ambient_dim}")
    support = [(i, x) for i, x in enumerate(H._num) if x]
    counts = [0] * len(rootsys.CLASSES[system.rstype.family])
    lam = lam_norm = None
    for mu, c, norm in zip(
        reversed(system.positive_roots),
        reversed(system.positive_classes),
        reversed(system.positive_norms),
    ):
        num = mu._num
        dot = 0
        for i, x in support:
            dot += x * num[i]
        if not dot:
            continue
        counts[c] += 1
        if (lam is None or norm > lam_norm) and rootsys.is_parallel(mu, H):
            lam, lam_norm = mu, norm
    counts = tuple(counts)
    if lam is None:
        return counts, None, None, None
    return counts, lam, system.root_class(lam), cond_a(system, lam) and cond_b(system, lam)


@lru_cache(maxsize=4096)
def cond_a(system: RootSystem, lam: RootVec) -> bool:
    """2*lam is not a root."""
    if not system.contains(lam):
        raise ValueError(f"{lam!r} is not a root")
    return not system.contains(2 * lam)


@lru_cache(maxsize=4096)
def cond_b(system: RootSystem, lam: RootVec) -> bool:
    """No positive root orthogonal to lam gives a root when added/subtracted."""
    if not system.contains(lam):
        raise ValueError(f"{lam!r} is not a root")
    # For nu orthogonal to lam, |lam + nu|^2 = |lam|^2 + |nu|^2, so lam + nu
    # can be a root only when that sum is a class length; for a long lam
    # no class passes.
    lengths = [length for _, length, _ in rootsys.CLASSES[system.rstype.family]]
    lam_length = lengths[system.class_index(lam)]
    passing = {c for c, length in enumerate(lengths) if lam_length + length in lengths}
    # Walked from the top: a short lam's witness sits there (e_1 - e_2 for
    # lam = e_1 + e_2 in C_p), and the answer does not depend on the order.
    for nu, c in zip(reversed(system.positive_roots), reversed(system.positive_classes)):
        # For nu orthogonal to lam the reflection in nu swaps lam + nu and
        # lam - nu, so one is a root exactly when the other is.
        if c in passing and is_orthogonal(nu, lam) and system.contains(lam + nu):
            return False
    return True


@lru_cache(maxsize=1024)
def _canonical_class_rep(system: RootSystem, spec: str) -> RootVec:
    # positive_roots ascend in sort_key order, so the last root of the
    # class is its maximum.
    for v in reversed(system.positive_roots):
        if system.root_class(v) == spec:
            return v
    raise ValueError(f"no {spec} roots in {system.rstype.label()}")


def resolve_orbit(pair: pairdb.Pair, spec) -> RootVec:
    """Turn an orbit spec (vector or one of ORBIT_SPECS) into a chamber point."""
    system = pair.system()
    if isinstance(spec, RootVec):
        return spec
    if spec in ("highest", "long"):
        return system.highest_root
    if spec in ("short", "middle"):
        try:
            return _canonical_class_rep(system, spec)
        except ValueError as exc:
            raise ValueError(f"{pair.key}: {exc}") from None
    raise ValueError(f"unknown orbit spec {spec!r}")


def classify(pair: pairdb.Pair, H: RootVec, memo: dict | None = None) -> OrbitReport:
    """Full degeneracy report for the orbit through H.

    The report is scale-free: H is folded into the closed chamber and
    rescaled to the primitive integer vector on its ray, so reports of
    Weyl-equivalent and positively proportional inputs compare equal.

    A caller that classifies the same (system, folded H) for many pairs
    may pass one dict as memo to all those calls; it then holds the
    pair-free facts of each orbit, and the pass over the roots runs once
    per key.  Everything that depends on the pair is computed per call.
    """
    if H.is_zero():
        raise ValueError("H must be nonzero")
    system = pair.system()
    memo = {} if memo is None else memo
    # Keys are folded primitive rays, which fold onto themselves.
    facts = memo.get((system, H))
    if facts is None:
        H = rootsys.primitive_ray(weyl_fold(system, H))
        if (system, H) not in memo:
            memo[system, H] = _orbit_facts(system, H)
        facts = memo[system, H]
    counts, lam, root_class, ab = facts
    # l = dim Ad(K)H: the sum of m(mu) over the positive mu not orthogonal to H.
    l = sum(count * m for count, (_, m) in zip(counts, pair.mult_by_class))
    if lam is None:
        return OrbitReport(
            pair=pair.label(),
            H=H,
            degenerate=False,
            l=l,
            r=l,
            nullity=0,
            rule=RULE_NOT_PARALLEL,
        )
    if root_class == "long":
        rule, degenerate = RULE_LONG_ROOT, True
    elif system.rstype.family == "G2":
        rule, degenerate = RULE_G2_SHORT_ROOT, True
    else:
        rule, degenerate = RULE_SHORT_NON_G2, False
    if ab and not degenerate:
        raise InvariantViolation(
            f"{pair.key}: {lam!r} satisfies (a) and (b) but was not classified "
            f"degenerate"
        )
    nullity = pair.multiplicity(lam) if degenerate else 0
    return OrbitReport(
        pair=pair.label(),
        H=H,
        degenerate=degenerate,
        l=l,
        r=l - nullity,
        nullity=nullity,
        rule=rule,
        root_class=root_class,
        satisfies_ab=ab,
    )


def principal_curvatures(pair: pairdb.Pair, H: RootVec, xi: RootVec) -> CurvatureSpectrum:
    """Eigenvalues -<lam,xi>/<lam,H> of the shape operator A_xi, merged.

    xi must be a normal direction inside the flat: <xi, H> = 0.
    """
    if H.is_zero():
        raise ValueError("H must be nonzero")
    system = pair.system()
    if xi.dim != H.dim or H.dim != system.ambient_dim:
        raise ValueError("dimension mismatch")
    if not is_orthogonal(xi, H):
        raise ValueError(f"xi={xi!r} is not orthogonal to H={H!r}")
    spectrum: dict[Fraction, int] = {}
    for lam in system.positive_roots:
        denom = inner(lam, H)
        if denom == 0:
            continue
        value = -inner(lam, xi) / denom
        spectrum[value] = spectrum.get(value, 0) + pair.multiplicity(lam)
    entries = tuple(sorted(spectrum.items()))
    return CurvatureSpectrum(entries=entries)
