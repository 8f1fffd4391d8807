"""Quaternionic decomposition data and root-system projection.

From a simple root system R of rank >= 2 with highest root delta, the
positive roots alpha with <alpha, delta>/|delta|^2 = 1/2 span the -1
eigenspace of the involution attached to delta.  A greedy pass over that
set (always removing the lexicographically lowest root together with
everything not strongly orthogonal to it) produces pairwise strongly
orthogonal roots gamma_1..gamma_s whose span plays the role of a maximal
abelian subspace.  Orthogonal projection onto that span,

    alpha  |->  sum_i ( <alpha, gamma_i> / |gamma_i|^2 ) gamma_i,

sends R onto a (generally smaller) root system together with
multiplicities given by preimage counts.  Everything here works at the
level of roots; no Lie-algebra vectors or structure constants appear.
The projected roots are `RootVec`s of the ambient space, so lengths,
pairings and reflections are those of `rootsys`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import rootsys
from .rootsys import (
    InvariantViolation,
    RootSystem,
    RootSystemType,
    RootVec,
    _dot_sign_num,
    inner,
    is_orthogonal,
    norm_sq,
)


def m_roots(system: RootSystem) -> tuple[RootVec, ...]:
    """Positive roots with ratio 1/2 against the highest root, in lex order."""
    delta = system.highest_root
    top = norm_sq(delta)
    return tuple(v for v in system.positive_roots if 2 * inner(v, delta) == top)


def _strongly_orthogonal_to(system: RootSystem, beta: RootVec, gamma: RootVec) -> bool:
    # For positive roots beta and gamma: neither beta + gamma nor beta - gamma
    # is a root.
    return not system.contains_positive(beta + gamma) and not system.contains(beta - gamma)


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
            b for b in remaining if b != gamma and _strongly_orthogonal_to(system, b, gamma)
        ]
    return tuple(gammas)


def project(alpha: RootVec, gammas) -> RootVec:
    """The orthogonal projection of alpha onto span(gammas)."""
    # With alpha = A / a and gamma_i = G_i / g_i the g_i drop out: the image
    # is sum_i (A.G_i) (L / G_i.G_i) G_i / (a L), L = lcm of the G_i.G_i.
    norms = [_dot_sign_num(g, g) for g in gammas]
    big = lcm(*norms)
    num = [0] * alpha.dim
    for g, n in zip(gammas, norms):
        c = _dot_sign_num(alpha, g) * (big // n)
        num = [x + c * y for x, y in zip(num, g._num)]
    return RootVec._raw(tuple(num), alpha._den * big)


@dataclass(frozen=True)
class ProjectionDatum:
    """Outcome of projecting a full root system onto span(gamma_1..gamma_s)."""

    ambient: RootSystem
    m_plus: tuple[RootVec, ...]
    gammas: tuple[RootVec, ...]
    preimages: dict[RootVec, frozenset[RootVec]] = field(compare=False)
    length_labels: dict[Fraction, str] = field(compare=False)
    projected_type: RootSystemType = field(compare=False)

    def preimage(self, value: RootVec) -> frozenset[RootVec]:
        if value not in self.preimages:
            raise ValueError(f"{value!r} is not a projected root")
        return self.preimages[value]

    def projected_class(self, value: RootVec) -> str:
        return self.length_labels[norm_sq(value)]


def _identify_type(values: set[RootVec], system: RootSystem) -> RootSystemType:
    # Extract simple roots of the projected set under the lex positivity of
    # the ambient system, then match the Cartan matrix against built systems
    # of the same rank up to a permutation of the simple roots.
    positive = [v for v in values if system.sort_key(v) > system.sort_key(-v)]
    pos_set = set(positive)
    # v is the sum of two positives p, q exactly when some v - p is positive.
    simples = [v for v in positive if not any(v - p in pos_set for p in positive)]
    rank = len(simples)

    def cartan(basis):
        return [[2 * inner(a, b) / inner(b, b) for b in basis] for a in basis]

    got = cartan(simples)
    for family in rootsys.FAMILIES:
        try:
            sys2 = rootsys.build(family, rank)
        except ValueError:
            continue
        if len(sys2.positive_roots) != len(positive):
            continue
        want = cartan(sys2.simple_roots)
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
    preimages: dict[RootVec, set[RootVec]] = {}
    for alpha in system.positive_roots + tuple(-v for v in system.positive_roots):
        val = project(alpha, gammas)
        if not val.is_zero():
            preimages.setdefault(val, set()).add(alpha)

    # The axioms in integers: with x = X / a and y = Y / b the pairing
    # 2<y, x>/<x, x> is 2 (Y.X) a / (b X.X).
    for x in preimages:
        nx = _dot_sign_num(x, x)
        for y in preimages:
            pairing, den = 2 * _dot_sign_num(y, x) * x._den, y._den * nx
            if pairing % den:
                raise InvariantViolation(
                    f"projected set of {system.rstype.label()} is not "
                    f"crystallographic: pairing of {y} against {x} is "
                    f"{Fraction(pairing, den)}"
                )
            if rootsys.reflect(y, x) not in preimages:
                raise InvariantViolation(
                    f"projected set of {system.rstype.label()} is not closed under "
                    f"reflection: s_{x}({y}) missing"
                )

    return ProjectionDatum(
        ambient=system,
        m_plus=mp,
        gammas=gammas,
        preimages={v: frozenset(p) for v, p in preimages.items()},
        length_labels=rootsys.length_labels(map(norm_sq, preimages)),
        projected_type=_identify_type(set(preimages), system),
    )


def sum_lands_on_delta(datum: ProjectionDatum) -> bool:
    """When two ratio-1/2 roots sum to a root, that root is the highest one."""
    system, mp = datum.ambient, datum.m_plus
    delta = system.highest_root
    lengths = [length for _, length, _ in rootsys.CLASSES[system.rstype.family]]
    norms = [lengths[system.class_index(a)] for a in mp]
    for i, a in enumerate(mp):
        for j in range(i, len(mp)):
            # a + b can be a root only when |a + b|^2 = |a|^2 + |b|^2 + 2<a, b>,
            # which is square / den, is a class length.
            b = mp[j]
            den = a._den * b._den
            square = (norms[i] + norms[j]) * den + 2 * _dot_sign_num(a, b)
            if square % den or square // den not in lengths:
                continue
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
        if all(_strongly_orthogonal_to(system, beta, g) for g in datum.gammas):
            return False
    return True


def projection_contracts(datum: ProjectionDatum) -> bool:
    """|pi(alpha)|^2 <= |alpha|^2, equality exactly on span(gamma_1..gamma_s).

    A root with pi(alpha) = 0 meets both trivially, so the preimages of the
    nonzero projected roots are all that is read.
    """
    for value, pre in datum.preimages.items():
        pnorm = norm_sq(value)
        for alpha in pre:
            anorm = norm_sq(alpha)
            if pnorm > anorm or (pnorm == anorm) != (value == alpha):
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
        image = {a: v for v, pre in datum.preimages.items() for a in pre}
        lam, nu = (image[system.simple_combination(c)] for c in named)
        pre_lam, pre_nu = datum.preimage(lam), datum.preimage(nu)
        cards = (len(pre_lam), len(pre_nu))
        orth = is_orthogonal(lam, nu)
        identities = rootset_identities(system, pre_nu, pre_lam).ok
    return AppendixVerification(
        algebra=label,
        gammas=datum.gammas,
        gamma_count_ok=len(datum.gammas) == EXPECTED_GAMMA_COUNT[label],
        equal_gamma_lengths=len(set(map(norm_sq, datum.gammas))) == 1,
        projected_type=datum.projected_type.label(),
        projected_type_ok=(
            datum.projected_type.label() == EXPECTED_PROJECTED_TYPE[label]
        ),
        multiplicities=tuple(sorted(mult_by_class.items())) if consistent else (),
        preimage_cardinalities=cards,
        nu_orthogonal_to_lam=orth,
        identities_ok=identities,
        sum_to_delta_ok=sum_lands_on_delta(datum),
        maximal_abelian=maximal_abelian_ok(datum),
        contraction_ok=projection_contracts(datum),
        m_plus_even=len(datum.m_plus) % 2 == 0,
    )


@dataclass(frozen=True)
class IdentityStep:
    """One elimination step: base root and the +- witnesses."""

    base: RootVec
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
    for base in bases:
        if not remaining:
            break
        plus = frozenset(a for a in remaining if system.contains(base + a))
        minus = frozenset(a for a in remaining if system.contains(base - a))
        steps.append(IdentityStep(base=base, plus_witnesses=plus, minus_witnesses=minus))
        if len(plus) != 1 or len(minus) != 1:
            return IdentityReport(steps=tuple(steps), exhausted=False)
        remaining -= plus | minus
    return IdentityReport(steps=tuple(steps), exhausted=not remaining)
