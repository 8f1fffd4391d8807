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
from math import gcd
from operator import itemgetter, mul

from . import pairdb, rootsys
from .rootsys import InvariantViolation, RootSystem, RootVec, inner, is_orthogonal

RULE_LONG_ROOT = "LongRoot"
RULE_G2_SHORT_ROOT = "G2ShortRoot"
RULE_NOT_PARALLEL = "NotParallelToRoot"
RULE_SHORT_NON_G2 = "ShortRootNonG2"
DEGENERATE_RULES = (RULE_LONG_ROOT, RULE_G2_SHORT_ROOT)

ORBIT_SPECS = ("highest", "long", "short", "middle")

# The families whose Weyl group is every signed permutation (B, C, BC) or
# those with an even number of sign changes (D); see weyl_fold.
_SIGNED_PERMUTATIONS = frozenset(("B", "C", "BC", "D"))


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
        if self.degenerate and self.rule not in DEGENERATE_RULES:
            raise InvariantViolation(f"degenerate orbit with rule {self.rule}")


def weyl_fold(system: RootSystem, H: RootVec) -> RootVec:
    """The closed-chamber representative of the Weyl orbit of H.

    Each Weyl orbit meets the closed chamber in exactly one point.  For
    the classical families the Weyl group acts by signed permutations of
    the coordinates (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates
    I-IV; Humphreys, Reflection Groups and Coxeter Groups, 2.10), so that
    point is a sort:
      - A (simple roots e_i - e_i+1): the coordinates in descending order;
      - B, C, BC (all sign changes): their absolute values, descending;
      - D (even sign changes only): the same, with the last entry negated
        when H has an odd number of negative entries.  With a zero entry
        the last one is 0 and the flip changes nothing, as it must: a sign
        change of that coordinate fixes the parity.
    A signed permutation keeps H's numerators in lowest terms over its
    denominator.

    E6-E8, F4 and G2 reflect in the first simple root with a negative
    pairing until none is left.  The walk runs on one list of numerators
    over a common denominator: with n / m = 2<V, A> / <A, A> in lowest
    terms, as in `rootsys.reflect`, a reflection is V -> m V - n A, which
    touches only the support of A when m is 1.  It visits the same rational
    vectors as repeated `reflect` calls, and builds one RootVec at the end.
    """
    if H.is_zero():
        raise ValueError("H must be nonzero")
    if H.dim != system.ambient_dim:
        raise ValueError(f"dimension mismatch: {H.dim} vs {system.ambient_dim}")
    family = system.rstype.family
    if family == "A":
        return rootsys._reduced(tuple(sorted(H._num, reverse=True)), H._den)
    if family in _SIGNED_PERMUTATIONS:
        num = sorted(map(abs, H._num), reverse=True)
        if family == "D" and sum(x < 0 for x in H._num) % 2:
            num[-1] = -num[-1]
        return rootsys._reduced(tuple(num), H._den)
    num, den = list(H._num), H._den
    while True:
        for support in system.simple_support:
            dot = 0
            for i, x in support:
                dot += x * num[i]
            if dot < 0:
                n = 2 * dot
                m = sum(x * x for _, x in support)
                g = gcd(n, m)
                n //= g
                m //= g
                if m != 1:
                    num = [m * x for x in num]
                    den *= m
                for i, x in support:
                    num[i] -= n * x
                break
        else:
            return RootVec._raw(tuple(num), den)


# Class counts per (system, walls of H); see _orbit_facts.  Bounded like
# cond_b: once full, the oldest entry goes.
_WALL_COUNTS_MAX = 4096
_wall_counts: dict = {}


def _orbit_facts(system: RootSystem, H: RootVec):
    """The facts of the orbit through the primitive chamber ray H that no pair changes.

    Returns (counts, lam, class index of lam, (a) and (b) at lam): counts
    holds, per class of CLASSES[family], the number of positive roots not
    orthogonal to H, and lam is the longest root on the line of H (in a
    BC system e_1 and 2e_1 share a line; the rule must see the long one).
    The last three are None when no root is on the line.

    For a chamber point every <alpha_i, H> >= 0 and every positive root
    has coefficients c_i >= 0, so <beta, H> = sum c_i <alpha_i, H> is a sum
    of non-negative terms (Humphreys, Introduction to Lie Algebras, 10.1):
    the roots orthogonal to H, hence the counts, depend only on the walls
    {i : <alpha_i, H> = 0}.  One pass over the positive roots counts them
    for each new (system, walls).  A root on the line of H is dominant,
    hence the highest root of its class (Humphreys 10.3), so lam is
    looked up by H among those roots' primitive rays.  An H outside the
    closed chamber, which a wrong fold would give, raises ValueError.
    """
    num = H._num
    walls = []
    for support in system.simple_support:
        dot = 0
        for i, x in support:
            dot += x * num[i]
        if dot < 0:
            raise ValueError(
                f"{H!r} is not in the closed chamber of {system.rstype.label()}"
            )
        walls.append(not dot)
    key = (system, tuple(walls))
    counts = _wall_counts.get(key)
    if counts is None:
        support = [(i, x) for i, x in enumerate(num) if x]
        tally = [0] * len(rootsys.CLASSES[system.rstype.family])
        for mu, c in zip(system.positive_roots, system.positive_classes):
            mu_num = mu._num
            dot = 0
            for i, x in support:
                dot += x * mu_num[i]
            if dot:
                tally[c] += 1
        counts = tuple(tally)
        if len(_wall_counts) >= _WALL_COUNTS_MAX:
            del _wall_counts[next(iter(_wall_counts))]
        _wall_counts[key] = counts
    lam, c = system._ray_highest.get(H, (None, None))
    # (a), that 2 lam is no root, holds by construction: 2 lam is longer
    # and on the same ray, which keeps its longest root.  (a) and (b) is (b).
    return counts, lam, c, None if lam is None else cond_b(system, lam)


@lru_cache(maxsize=4096)
def cond_b(system: RootSystem, lam: RootVec) -> bool:
    """No positive root orthogonal to lam gives a root when added/subtracted."""
    # For nu orthogonal to lam, |lam + nu|^2 = |lam|^2 + |nu|^2, so lam + nu
    # can be a root only when that sum is a class length; for a long lam
    # no class passes.
    lengths = [length for _, length, _ in rootsys.CLASSES[system.rstype.family]]
    lam_length = lengths[system.class_index(lam)]
    passing = {c for c, length in enumerate(lengths) if lam_length + length in lengths}
    if not passing:
        return True
    # Walked from the top: a short lam's witness sits there (e_1 - e_2 for
    # lam = e_1 + e_2 in C_p), and the answer does not depend on the order.
    for nu, c in zip(reversed(system.positive_roots), reversed(system.positive_classes)):
        # For nu orthogonal to lam the reflection in nu swaps lam + nu and
        # lam - nu, so one is a root exactly when the other is.
        if c in passing and is_orthogonal(nu, lam) and system.contains(lam + nu):
            return False
    return True


def resolve_orbit(pair: pairdb.Pair, spec: str) -> RootVec:
    """The highest root of the class one of ORBIT_SPECS names ("highest" is "long")."""
    system = pair.system()
    if spec not in ORBIT_SPECS:
        raise ValueError(f"unknown orbit spec {spec!r}")
    root = system._class_highest.get("long" if spec == "highest" else spec)
    if root is None:
        raise ValueError(f"{pair.family.key}: no {spec} roots in {system.rstype.label()}")
    return root


def _check_span(system: RootSystem, v: RootVec) -> None:
    """Refuse a v outside the root span; reflections keep v's normal part."""
    for normal in system.normals:
        if rootsys._dot_sign_num(v, normal):  # v's dimension is checked
            label = system.rstype.label()
            raise ValueError(f"{v!r} is not in the span of the roots of {label}")


def _profile(system: RootSystem, H: RootVec):
    """(ray, facts): the primitive ray of H folded into the chamber, and its `_orbit_facts`."""
    folded = weyl_fold(system, H)  # refuses a zero or misdimensioned H first
    _check_span(system, H)
    ray = rootsys.primitive_ray(folded)
    return ray, _orbit_facts(system, ray)


def rule_for(root_class: str | None, family: str) -> str:
    """The theorem's rule for an orbit whose line's longest root has length label
    root_class, None for no root: degenerate exactly when it is long or the family G2."""
    if root_class is None:
        return RULE_NOT_PARALLEL
    if root_class == "long":
        return RULE_LONG_ROOT
    return RULE_G2_SHORT_ROOT if family == "G2" else RULE_SHORT_NON_G2


def _report(pair: pairdb.Pair, system: RootSystem, ray: RootVec, facts) -> OrbitReport:
    """The report of pair's orbit through the chamber ray, from its pair-free facts."""
    counts, lam, c, ab = facts
    # l = dim Ad(K)H: the sum of m(mu) over the positive mu not orthogonal to H.
    l = sum(map(mul, counts, map(itemgetter(1), pair.mult_by_class)))
    root_class = system._class_labels.get(c)  # None when no root is on the line
    rule = rule_for(root_class, system.rstype.family)
    degenerate = rule in DEGENERATE_RULES
    if ab and not degenerate:
        raise InvariantViolation(
            f"{pair.family.key}: {lam!r} satisfies (a) and (b) but was not classified "
            f"degenerate"
        )
    nullity = pair.mult_by_class[c][1] if degenerate else 0
    return OrbitReport(
        pair=pair.label(),
        H=ray,
        degenerate=degenerate,
        l=l,
        r=l - nullity,
        nullity=nullity,
        rule=rule,
        root_class=root_class,
        satisfies_ab=ab,
    )


def classify(pair: pairdb.Pair, H: RootVec) -> OrbitReport:
    """Full degeneracy report for the orbit through H.

    The report is scale-free: H is folded into the closed chamber and
    rescaled to the primitive integer vector on its ray, so reports of
    Weyl-equivalent and positively proportional inputs compare equal.
    """
    system = pair.system()
    ray, facts = _profile(system, H)
    return _report(pair, system, ray, facts)


def sweep(pairs, specs=lambda pair: ("highest",)):
    """(pair, spec, report) for each pair and each orbit spec specs(pair) names.

    A spec names one point per system, so the sweep resolves, folds and
    profiles each (system, spec) once; every row then adds only its pair.
    """
    profiles: dict = {}
    for pair in pairs:
        system = pair.system()
        for spec in specs(pair):
            profile = profiles.get((system, spec))
            if profile is None:
                profile = profiles[system, spec] = _profile(system, resolve_orbit(pair, spec))
            yield pair, spec, _report(pair, system, *profile)


def principal_curvatures(
    pair: pairdb.Pair, H: RootVec, xi: RootVec
) -> tuple[tuple[Fraction, int], ...]:
    """Eigenvalues -<lam,xi>/<lam,H> of the shape operator A_xi, merged.

    Returns the sorted (value, multiplicity) pairs; the multiplicities sum
    to l.  xi must be a normal direction inside the flat: <xi, H> = 0.
    """
    if H.is_zero():
        raise ValueError("H must be nonzero")
    system = pair.system()
    for name, v in (("H", H), ("xi", xi)):
        if v.dim != system.ambient_dim:
            raise ValueError(f"dimension mismatch: {name} {v.dim} vs {system.ambient_dim}")
    _check_span(system, xi)
    if not is_orthogonal(xi, H):
        raise ValueError(f"xi={xi!r} is not orthogonal to H={H!r}")
    spectrum: dict[Fraction, int] = {}
    for lam, c in zip(system.positive_roots, system.positive_classes):
        denom = inner(lam, H)
        if denom == 0:
            continue
        value = -inner(lam, xi) / denom
        spectrum[value] = spectrum.get(value, 0) + pair.mult_by_class[c][1]
    return tuple(sorted(spectrum.items()))
