"""Quaternionic decomposition data and root-system projection.

From a simple root system R of rank >= 2 with highest root delta, the
positive roots alpha with <alpha, delta>/|delta|^2 = 1/2 span the -1
eigenspace of the involution attached to delta.  A greedy pass over that
set (always removing the lexicographically lowest root together with
everything not strongly orthogonal to it) produces pairwise strongly
orthogonal roots gamma_1..gamma_s whose span plays the role of a maximal
abelian subspace.  Orthogonal projection onto that span,

    alpha  |->  ( <alpha, gamma_i> / |gamma_i|^2 )_i,

sends R onto a (generally smaller) root system together with
multiplicities given by preimage counts.  Everything here works at the
level of roots; no Lie-algebra vectors or structure constants appear.

Projected vectors are coefficient tuples against the orthogonal basis
lambda_1..lambda_s with |lambda_i|^2 = |gamma_i|^2; inner products in the
projected space use those squared lengths, so they stay exact even when
the gamma_i have different lengths (the G2 case).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import rootsys
from .rootsys import (
    InvariantViolation,
    RootSystem,
    RootSystemType,
    RootVec,
    inner,
    norm_sq,
)

Projected = tuple[Fraction, ...]


def m_roots(system: RootSystem) -> tuple[RootVec, ...]:
    """Positive roots with ratio 1/2 against the highest root, in lex order."""
    delta = system.highest_root
    top = norm_sq(delta)
    return tuple(v for v in system.positive_roots if 2 * inner(v, delta) == top)


def strongly_orthogonal(Q, system: RootSystem) -> tuple[RootVec, ...]:
    """Greedy extraction of pairwise strongly orthogonal roots from Q.

    Repeatedly takes the lowest remaining root gamma and keeps only the
    roots beta with beta +- gamma both outside the system.
    """
    gammas: list[RootVec] = []
    remaining = list(Q)
    if any(not system.contains_positive(v) for v in remaining):
        raise ValueError("Q must consist of positive roots of the system")
    while remaining:
        gamma = min(remaining, key=system.sort_key)
        gammas.append(gamma)
        remaining = [
            b
            for b in remaining
            if b != gamma
            and not system.contains_positive(b + gamma)
            and not system.contains(b - gamma)
        ]
    return tuple(gammas)


def project(alpha: RootVec, gammas) -> Projected:
    """Coefficients of the orthogonal projection of alpha onto span(gammas)."""
    return tuple(inner(alpha, g) / norm_sq(g) for g in gammas)


def projected_inner(a: Projected, b: Projected, gamma_norms) -> Fraction:
    return sum(x * y * n for x, y, n in zip(a, b, gamma_norms))


@dataclass(frozen=True)
class ProjectionDatum:
    """Outcome of projecting a full root system onto span(gamma_1..gamma_s)."""

    ambient: RootSystem
    m_plus: tuple[RootVec, ...]
    gammas: tuple[RootVec, ...]
    gamma_norms: tuple[Fraction, ...]
    preimages: dict[Projected, frozenset[RootVec]] = field(compare=False)
    length_labels: dict[Fraction, str] = field(compare=False)
    projected_type: RootSystemType = field(compare=False)

    def preimage(self, value: Projected) -> frozenset[RootVec]:
        if value not in self.preimages:
            raise ValueError(f"{value!r} is not a projected root")
        return self.preimages[value]

    def projected_class(self, value: Projected) -> str:
        return self.length_labels[projected_inner(value, value, self.gamma_norms)]


def _identify_type(values: set[Projected], gamma_norms) -> RootSystemType:
    # Extract simple roots of the projected set under coefficient-lex
    # positivity, then match the Cartan matrix against built systems of
    # the same rank up to a permutation of the simple roots.
    zero = tuple([Fraction(0)] * len(gamma_norms))
    positive = sorted(v for v in values if v > zero)
    pos_set = set(positive)

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    # v is the sum of two positives p, q exactly when some v - p is positive.
    simples = [
        v for v in positive if not any(sub(v, p) in pos_set for p in positive)
    ]
    rank = len(simples)

    def cartan(basis, ip):
        return [
            [2 * ip(a, b) / ip(b, b) for b in basis]
            for a in basis
        ]

    got = cartan(simples, lambda a, b: projected_inner(a, b, gamma_norms))
    for family in rootsys.FAMILIES:
        try:
            sys2 = rootsys.build(family, rank)
        except ValueError:
            continue
        if len(sys2.positive_roots) != len(positive):
            continue
        want = cartan(sys2.simple_roots, inner)
        for perm in itertools.permutations(range(rank)):
            if all(
                got[perm[i]][perm[j]] == want[i][j]
                for i in range(rank)
                for j in range(rank)
            ):
                return sys2.rstype
    raise InvariantViolation("projected set matches no known root system type")


def restricted_from_projection(system: RootSystem) -> ProjectionDatum:
    """Full projection datum for a simple ambient system.

    Raises InvariantViolation when the nonzero projected vectors fail the
    root-system axioms (closure under their own reflections).
    """
    mp = m_roots(system)
    gammas = strongly_orthogonal(mp, system)
    gamma_norms = tuple(norm_sq(g) for g in gammas)
    all_roots = list(system.positive_roots) + [-v for v in system.positive_roots]
    zero = tuple([Fraction(0)] * len(gammas))

    preimages: dict[Projected, set[RootVec]] = {}
    for alpha in all_roots:
        val = project(alpha, gammas)
        if val == zero:
            continue
        preimages.setdefault(val, set()).add(alpha)

    values = set(preimages)
    # The axioms in integers: each value scaled by the common denominator
    # of all coefficients, each gamma norm by that of the norms, so the
    # pairing 2<y,x>/<x,x> is a quotient of integer sums.
    den = lcm(*(c.denominator for v in values for c in v))
    norm_den = lcm(*(n.denominator for n in gamma_norms))
    norms = [int(n * norm_den) for n in gamma_norms]
    scaled = [(v, tuple(int(c * den) for c in v)) for v in values]
    members = {vs for _, vs in scaled}
    for x, xs in scaled:
        weighted = list(map(operator.mul, xs, norms))
        nx = sum(map(operator.mul, xs, weighted))
        for y, ys in scaled:
            pairing = 2 * sum(map(operator.mul, ys, weighted))
            c, rest = divmod(pairing, nx)
            if rest:
                raise InvariantViolation(
                    f"projected set of {system.rstype.label()} is not "
                    f"crystallographic: pairing of {y} against {x} is "
                    f"{Fraction(pairing, nx)}"
                )
            if tuple(b - c * a for a, b in zip(xs, ys)) not in members:
                raise InvariantViolation(
                    f"projected set of {system.rstype.label()} is not closed under "
                    f"reflection: s_{x}({y}) missing"
                )

    return ProjectionDatum(
        ambient=system,
        m_plus=mp,
        gammas=gammas,
        gamma_norms=gamma_norms,
        preimages={v: frozenset(p) for v, p in preimages.items()},
        length_labels=rootsys.length_labels(
            projected_inner(v, v, gamma_norms) for v in values
        ),
        projected_type=_identify_type(values, gamma_norms),
    )


def sum_lands_on_delta(system: RootSystem) -> bool:
    """When two ratio-1/2 roots sum to a root, that root is the highest one."""
    mp = m_roots(system)
    delta = system.highest_root
    for i, a in enumerate(mp):
        for b in mp[i:]:
            s = a + b
            if system.contains_positive(s) and s != delta:
                return False
    return True


def maximal_abelian_ok(datum: ProjectionDatum) -> bool:
    """No non-gamma member of m_plus is strongly orthogonal to every gamma."""
    system = datum.ambient
    chosen = set(datum.gammas)
    for beta in datum.m_plus:
        if beta in chosen:
            continue
        if all(
            not system.contains_positive(beta + g) and not system.contains(beta - g)
            for g in datum.gammas
        ):
            return False
    return True


def projection_contracts(datum: ProjectionDatum) -> bool:
    """|pi(alpha)|^2 <= |alpha|^2, equality exactly on span(gamma_1..gamma_s)."""
    system = datum.ambient
    for alpha in system.positive_roots:
        coeffs = project(alpha, datum.gammas)
        pnorm = projected_inner(coeffs, coeffs, datum.gamma_norms)
        anorm = norm_sq(alpha)
        if pnorm > anorm:
            return False
        recon = alpha
        for c, g in zip(coeffs, datum.gammas):
            recon = recon - c * g
        if (pnorm == anorm) != recon.is_zero():
            return False
    return True


# Short-root preimage checks: the projected short root and a projected
# short root orthogonal to it, both named by simple-root coefficients of
# an ambient representative.  Only the F4-type exceptional projections
# admit them (the other ambient systems project with multiplicity one).
SHORT_ROOT_CHECKS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "E6": ((1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1)),
    "E7": ((0, 0, 0, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0)),
    "E8": ((1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 2, 2, 2, 1, 0)),
}

EXPECTED_GAMMA_COUNT = {"G2": 2, "F4": 4, "E6": 4, "E7": 4, "E8": 4}
EXPECTED_PROJECTED_TYPE = {"G2": "G2", "F4": "F4", "E6": "F4", "E7": "F4", "E8": "F4"}


@dataclass(frozen=True)
class AppendixVerification:
    """Checked facts about one ambient algebra's projection, for reporting."""

    algebra: str
    gammas: tuple[RootVec, ...]
    gamma_count_ok: bool
    equal_gamma_lengths: bool
    projected_type: str
    projected_type_ok: bool
    multiplicities: tuple[tuple[str, int], ...]
    preimage_cardinalities: tuple[int, int] | None
    nu_orthogonal_to_lam: bool | None
    identities_ok: bool | None
    sum_to_delta_ok: bool
    maximal_abelian: bool
    contraction_ok: bool
    m_plus_even: bool

    @property
    def ok(self) -> bool:
        named = (
            self.preimage_cardinalities is None
            or (self.identities_ok and self.nu_orthogonal_to_lam)
        )
        return bool(
            self.gamma_count_ok
            and self.projected_type_ok
            and self.multiplicities
            and self.sum_to_delta_ok
            and self.maximal_abelian
            and self.contraction_ok
            and self.m_plus_even
            and named
        )


def verify_appendix(system: RootSystem) -> AppendixVerification:
    """Run every projection check for one ambient simple system."""
    label = system.rstype.label()
    datum = restricted_from_projection(system)
    mult_by_class: dict[str, int] = {}
    consistent = True
    for value, pre in datum.preimages.items():
        cls = datum.projected_class(value)
        if mult_by_class.setdefault(cls, len(pre)) != len(pre):
            consistent = False
    named = SHORT_ROOT_CHECKS.get(label)
    cards = orth = identities = None
    if named is not None:
        lam_rep = system.simple_combination(named[0])
        nu_rep = system.simple_combination(named[1])
        lam = project(lam_rep, datum.gammas)
        nu = project(nu_rep, datum.gammas)
        pre_lam = datum.preimage(lam)
        pre_nu = datum.preimage(nu)
        cards = (len(pre_lam), len(pre_nu))
        orth = projected_inner(lam, nu, datum.gamma_norms) == 0
        identities = rootset_identities(system, pre_nu, pre_lam).ok
    return AppendixVerification(
        algebra=label,
        gammas=datum.gammas,
        gamma_count_ok=len(datum.gammas) == EXPECTED_GAMMA_COUNT[label],
        equal_gamma_lengths=len(set(datum.gamma_norms)) == 1,
        projected_type=datum.projected_type.label(),
        projected_type_ok=(
            datum.projected_type.label() == EXPECTED_PROJECTED_TYPE[label]
        ),
        multiplicities=tuple(sorted(mult_by_class.items())) if consistent else (),
        preimage_cardinalities=cards,
        nu_orthogonal_to_lam=orth,
        identities_ok=identities,
        sum_to_delta_ok=sum_lands_on_delta(system),
        maximal_abelian=maximal_abelian_ok(datum),
        contraction_ok=projection_contracts(datum),
        m_plus_even=len(datum.m_plus) % 2 == 0,
    )


@dataclass(frozen=True)
class IdentityStep:
    """One elimination step: base root, allowed set, and the +- witnesses."""

    base: RootVec
    excluded: frozenset[RootVec]
    plus_witnesses: frozenset[RootVec]
    minus_witnesses: frozenset[RootVec]

    @property
    def ok(self) -> bool:
        return len(self.plus_witnesses) == 1 and len(self.minus_witnesses) == 1


@dataclass(frozen=True)
class IdentityReport:
    steps: tuple[IdentityStep, ...]
    exhausted: bool

    @property
    def ok(self) -> bool:
        return self.exhausted and all(step.ok for step in self.steps)


def rootset_identities(
    system: RootSystem,
    nu_preimage,
    lam_preimage,
    bases=None,
) -> IdentityReport:
    """Run the elimination argument pairing preimage roots of nu and lam.

    Walks the nu-preimage (in lex order, or in the explicit `bases` order
    when given); at each step, among the not yet eliminated lam-preimage
    roots alpha, collects those with base+alpha (resp. base-alpha) a
    root.  A clean run has exactly one witness of each sign per step and
    eliminates the whole lam-preimage.
    """
    if bases is None:
        bases = sorted(nu_preimage, key=system.sort_key)
    elif any(b not in set(nu_preimage) for b in bases):
        raise ValueError("explicit bases must come from the nu-preimage")
    remaining = set(lam_preimage)
    steps: list[IdentityStep] = []
    excluded: set[RootVec] = set()
    for base in bases:
        if not remaining:
            break
        plus = frozenset(a for a in remaining if system.contains(base + a))
        minus = frozenset(a for a in remaining if system.contains(base - a))
        steps.append(
            IdentityStep(
                base=base,
                excluded=frozenset(excluded),
                plus_witnesses=plus,
                minus_witnesses=minus,
            )
        )
        if len(plus) != 1 or len(minus) != 1:
            return IdentityReport(steps=tuple(steps), exhausted=False)
        excluded |= plus | minus
        remaining -= plus | minus
    return IdentityReport(steps=tuple(steps), exhausted=not remaining)
