"""Reduced and non-reduced root systems over exact rationals.

Root systems are realised in their standard Bourbaki coordinates (type A
keeps the p+1 zero-sum coordinates, E8 uses half-integer entries).  A
vector is stored as integers over one common denominator; the
construction of the roots, arithmetic, hashing, reflection, the sort of
the roots, their squared lengths and classes, and the simple-root
coefficients run on those integers.  `fractions.Fraction` appears at the
API edge (the `RootVec` constructor and `coords`, the scalar of `*`,
`inner` and `norm_sq`, `sort_key` of a non-integral vector).  So every
membership, orthogonality and proportionality test in this package is
decided exactly.

Each family carries a fixed coordinate-significance order that defines
the lexicographic order used throughout (``RootSystem.sort_key``).  The
order is chosen so that the Bourbaki positive roots are exactly the
lexicographically positive vectors and the highest root is the maximum:
first-coordinate-first for the classical families and F4, reversed for
E6/E7/E8, and (e3, e1, e2) for G2.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

class InvariantViolation(RuntimeError):
    """A structural fact the library relies on failed to hold."""


class RootVec:
    """Immutable vector with exact rational coordinates.

    The coordinates are stored as integers over one reduced common
    denominator, which keeps inner products, arithmetic and hashing
    cheap; `coords` builds them as Fractions on each call.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, coords):
        cs = tuple(Fraction(c) for c in coords)
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        object.__setattr__(self, "_num", tuple(int(c * den) for c in cs))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_hash", hash((self._num, den)))

    @classmethod
    def _raw(cls, num: tuple[int, ...], den: int) -> "RootVec":
        # Internal fast path: integer data, normalised here.
        if den != 1:
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = tuple(x // g for x in num)
        return _reduced(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("RootVec is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @property
    def dim(self) -> int:
        return len(self._num)

    def _aligned(self, other: "RootVec"):
        d1, d2 = self._den, other._den
        if d1 == d2:
            return self._num, other._num, d1
        den = lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        return (
            tuple(x * f1 for x in self._num),
            tuple(x * f2 for x in other._num),
            den,
        )

    def __add__(self, other: "RootVec") -> "RootVec":
        a, b, den = self._aligned(other)
        return RootVec._raw(tuple(x + y for x, y in zip(a, b)), den)

    def __sub__(self, other: "RootVec") -> "RootVec":
        a, b, den = self._aligned(other)
        return RootVec._raw(tuple(x - y for x, y in zip(a, b)), den)

    def __neg__(self) -> "RootVec":
        # Negation keeps numerators and denominator in lowest terms.
        return _reduced(tuple(map(operator.neg, self._num)), self._den)

    def __mul__(self, scalar) -> "RootVec":
        s = Fraction(scalar)
        return RootVec._raw(
            tuple(x * s.numerator for x in self._num), self._den * s.denominator
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootVec)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not any(self._num)

    def __repr__(self) -> str:
        return "RootVec(%s)" % (", ".join(str(c) for c in self.coords))

    @classmethod
    def parse(cls, text: str) -> "RootVec":
        """Parse a comma-separated list of rationals, e.g. ``1,-1/2,0``."""
        try:
            # Fraction("1e999999999") would build a billion-digit integer.
            if "e" in text.lower():
                raise ValueError("exponent notation is not accepted")
            return cls(Fraction(part.strip()) for part in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse vector {text!r}: {exc}") from None


# The slot setters, since RootVec.__setattr__ refuses every write.
_set_num = RootVec._num.__set__
_set_den = RootVec._den.__set__
_set_hash = RootVec._hash.__set__


def _reduced(num: tuple[int, ...], den: int) -> RootVec:
    # A RootVec from integer data already in lowest terms, gcd(den, *num) == 1.
    obj = object.__new__(RootVec)
    _set_num(obj, num)
    _set_den(obj, den)
    _set_hash(obj, hash((num, den)))
    return obj


def inner(a: RootVec, b: RootVec) -> Fraction:
    """Exact Euclidean inner product."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Fraction(_dot_sign_num(a, b), a._den * b._den)


def _dot_sign_num(a: RootVec, b: RootVec) -> int:
    # Numerator of <a, b> over the positive denominator a._den * b._den;
    # valid for zero/sign tests without building a Fraction.  The caller
    # checks the dimensions.
    return sum(map(operator.mul, a._num, b._num))


def is_orthogonal(a: RootVec, b: RootVec) -> bool:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _dot_sign_num(a, b) == 0


def primitive_ray(v: RootVec) -> RootVec:
    """The integer vector with coprime entries on the ray of v."""
    if v.is_zero():
        raise ValueError("zero vector has no ray")
    g = gcd(*v._num)
    if g == 1 and v._den == 1:
        return v
    return RootVec._raw(tuple(x // g for x in v._num), 1)


def norm_sq(a: RootVec) -> Fraction:
    return inner(a, a)


FAMILIES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")
_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}

# Largest rank a system is built at, a guard against runaway input.  A
# build's time grows between the square and the cube of the rank; in a
# fresh Python 3.11 process on a 2-vCPU Xeon VM it takes (median of 5):
#   rank     A        B        C        BC
#    30    0.003 s  0.005 s  0.005 s  0.005 s
#    50    0.010 s  0.020 s  0.020 s  0.020 s
#    70    0.024 s  0.049 s  0.049 s  0.050 s
MAX_RANK = 70

# The Weyl-orbit classes of positive roots of each family, in the tags of
# pairs.dat: (tag, squared length, number of positive roots at rank p).
CLASSES = {
    "A": (("all", 2, lambda p: p * (p + 1) // 2),),
    "B": (("e_i", 1, lambda p: p), ("e_i+-e_j", 2, lambda p: p * (p - 1))),
    "C": (("e_i+-e_j", 2, lambda p: p * (p - 1)), ("2e_i", 4, lambda p: p)),
    "D": (("all", 2, lambda p: p * (p - 1)),),
    "BC": (
        ("e_i", 1, lambda p: p),
        ("e_i+-e_j", 2, lambda p: p * (p - 1)),
        ("2e_i", 4, lambda p: p),
    ),
    "E6": (("all", 2, lambda p: 36),),
    "E7": (("all", 2, lambda p: 63),),
    "E8": (("all", 2, lambda p: 120),),
    "F4": (("short", 1, lambda p: 12), ("long", 2, lambda p: 12)),
    "G2": (("short", 2, lambda p: 3), ("long", 6, lambda p: 3)),
}


class RootSystemType:
    """Family label plus rank, validated against the family constraints."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        fixed = _FIXED_RANK.get(family)
        if fixed is not None:
            if rank != fixed:
                raise ValueError(f"family {family} has fixed rank {fixed}, got {rank}")
        elif family == "D":
            if rank < 2:
                raise ValueError(f"family D requires rank >= 2, got {rank}")
        elif rank < 1:
            raise ValueError(f"family {family} requires rank >= 1, got {rank}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} of {family} is above the largest rank {MAX_RANK}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("RootSystemType is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RootSystemType)
            and self.family == other.family
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"RootSystemType({self.family}, {self.rank})"

    def label(self) -> str:
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"


def _parse_type(family: str, rank: int | None) -> RootSystemType:
    if rank is None:
        if family in _FIXED_RANK:
            return RootSystemType(family, _FIXED_RANK[family])
        raise ValueError(f"family {family} needs an explicit rank")
    return RootSystemType(family, rank)


_LABELS = {1: ("long",), 2: ("long", "short"), 3: ("long", "middle", "short")}


def length_labels(norms) -> dict[Fraction, str]:
    """Map each distinct squared length to its class label, longest first."""
    lengths = sorted(set(norms), reverse=True)
    return dict(zip(lengths, _LABELS[len(lengths)]))


class RootSystem:
    """A constructed root system; instances are cached singletons per type."""

    __slots__ = (
        "rstype",
        "ambient_dim",
        "simple_roots",
        "simple_support",
        "positive_roots",
        "positive_classes",
        "highest_root",
        "significance",
        "_class_of",
        "_class_labels",
    )

    def __init__(self, rstype, ambient_dim, simple_roots, positive_roots,
                 highest_root, significance):
        object.__setattr__(self, "rstype", rstype)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "simple_roots", tuple(simple_roots))
        # The nonzero (index, numerator) pairs of each simple root, so a
        # sign test against a simple root reads only those coordinates.
        object.__setattr__(
            self,
            "simple_support",
            tuple(
                tuple((i, x) for i, x in enumerate(s._num) if x)
                for s in self.simple_roots
            ),
        )
        # Sort on integers: every numerator scaled to the common denominator
        # of the roots, read in significance order.
        den = lcm(*(v._den for v in positive_roots))
        if den == 1:
            get = operator.itemgetter(*significance)
            positive = tuple(sorted(positive_roots, key=lambda v: get(v._num)))
        else:
            positive = tuple(sorted(
                positive_roots,
                key=lambda v: tuple(v._num[i] * (den // v._den) for i in significance),
            ))
        object.__setattr__(self, "positive_roots", positive)
        # Squared lengths as ints (a Fraction only for a non-integral one),
        # equal to the Fractions norm_sq gives.
        norms = []
        for v in positive:
            n, d2 = _dot_sign_num(v, v), v._den * v._den
            norms.append(Fraction(n, d2) if n % d2 else n // d2)
        # Class index into CLASSES[family] of each positive root; None for a
        # length no class has, which _check_build rejects.
        index = {length: i for i, (_, length, _) in enumerate(CLASSES[rstype.family])}
        classes = tuple(map(index.get, norms))
        object.__setattr__(self, "positive_classes", classes)
        object.__setattr__(self, "highest_root", highest_root)
        object.__setattr__(self, "significance", tuple(significance))
        # The one index of the positive roots; a negative root is looked up
        # through its negation.
        object.__setattr__(self, "_class_of", dict(zip(positive, classes)))
        # Length label of each class index, so root_class needs no norm.
        object.__setattr__(
            self,
            "_class_labels",
            {index.get(n): label for n, label in length_labels(norms).items()},
        )

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def __repr__(self):
        return f"<RootSystem {self.rstype.label()}, {len(self.positive_roots)} positive roots>"

    @property
    def rank(self) -> int:
        return self.rstype.rank

    def sort_key(self, v: RootVec):
        """Key of the fixed lexicographic order on the ambient space.

        Entries are ints for an integral vector and Fractions otherwise;
        the two compare exactly, so keys of any vectors are comparable.
        """
        num, den = v._num, v._den
        if den == 1:
            return tuple(map(num.__getitem__, self.significance))
        return tuple(Fraction(num[i], den) for i in self.significance)

    def contains(self, v: RootVec) -> bool:
        return v in self._class_of or -v in self._class_of

    def contains_positive(self, v: RootVec) -> bool:
        return v in self._class_of

    def root_class(self, v: RootVec) -> str:
        """Length label ("long", "middle" or "short") of the root v."""
        return self._class_labels[self.class_index(v)]

    def class_index(self, v: RootVec) -> int:
        """Index into CLASSES[family] of the Weyl-orbit class of the root v."""
        c = self._class_of.get(v)
        if c is None:
            c = self._class_of.get(-v)
        if c is None:
            raise ValueError(f"{v!r} is not a root of {self.rstype.label()}")
        return c

    def simple_combination(self, coeffs) -> RootVec:
        """The vector sum(c_i * alpha_i) for Bourbaki-numbered simple roots."""
        v = RootVec([0] * self.ambient_dim)
        for c, s in zip(coeffs, self.simple_roots):
            v = v + Fraction(c) * s
        return v

    def fundamental_coweights(self) -> tuple[RootVec, ...]:
        """Dual basis H_i with <H_i, alpha_j> = delta_ij, inside the root span."""
        # W acts irreducibly on the root span, so sum_{beta in R} <x, beta> beta
        # = (2 S / rank) x with S = sum_{beta > 0} |beta|^2; and <H_j, beta> is
        # c_j(beta).  So H_j = rank sum_{beta > 0} c_j(beta) beta / S, which is
        # rank e sum c_j(beta) B / sum |B|^2 with each beta = B / e.
        heights = _heights(self)
        e = lcm(*(v._den for v in heights))
        sums = [[0] * self.ambient_dim for _ in range(self.rank)]
        total = 0
        for beta, coeffs in heights.items():
            num = [(k, x * (e // beta._den)) for k, x in enumerate(beta._num) if x]
            total += sum(x * x for _, x in num)
            for row, c in zip(sums, coeffs):
                if c:
                    for k, x in num:
                        row[k] += c * x
        return tuple(RootVec._raw(tuple(self.rank * e * x for x in row), total) for row in sums)


def build(family, rank: int | None = None) -> RootSystem:
    """Construct the root system for a family label ("G2", "BC", ...).

    Accepts a RootSystemType or a family string plus rank.  Results are
    cached; systems of rank at most eight are structurally verified on
    first construction.
    """
    if isinstance(family, RootSystemType):
        rstype = family
    else:
        rstype = _parse_type(family, rank)
    return _build_cached(rstype.family, rstype.rank)


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    rstype = RootSystemType(family, rank)
    simple, positive, highest, significance = _CONSTRUCTORS[family](rank)
    system = RootSystem(rstype, simple[0].dim, simple, positive, highest, significance)
    _check_build(system)
    return system


def _vec(dim: int, *entries) -> RootVec:
    # The integral vector with the given (index, value) entries, zero elsewhere.
    num = [0] * dim
    for i, x in entries:
        num[i] = x
    return _reduced(tuple(num), 1)


def _pair_roots(p: int, signs=(1, -1)) -> list[RootVec]:
    # e_i + s e_j for i < j and each s in signs: one tuple and one RootVec
    # per root.
    zero = [0] * p
    out = []
    for i in range(p):
        for j in range(i + 1, p):
            for s in signs:
                num = zero.copy()
                num[i] = 1
                num[j] = s
                out.append(_reduced(tuple(num), 1))
    return out


def _classical_simple(p: int) -> list[RootVec]:
    return [_vec(p, (i, 1), (i + 1, -1)) for i in range(p - 1)]


def _build_a(p: int):
    dim = p + 1
    simple = _classical_simple(dim)
    positive = _pair_roots(dim, (-1,))
    highest = _vec(dim, (0, 1), (p, -1))
    return simple, positive, highest, tuple(range(dim))


def _build_b(p: int):
    simple = _classical_simple(p) + [_vec(p, (p - 1, 1))]
    positive = [_vec(p, (i, 1)) for i in range(p)] + _pair_roots(p)
    highest = _vec(p, (0, 1), (1, 1)) if p >= 2 else _vec(p, (0, 1))
    return simple, positive, highest, tuple(range(p))


def _build_c(p: int):
    simple = _classical_simple(p) + [_vec(p, (p - 1, 2))]
    positive = [_vec(p, (i, 2)) for i in range(p)] + _pair_roots(p)
    return simple, positive, _vec(p, (0, 2)), tuple(range(p))


def _build_d(p: int):
    simple = _classical_simple(p) + [_vec(p, (p - 2, 1), (p - 1, 1))]
    return simple, _pair_roots(p), _vec(p, (0, 1), (1, 1)), tuple(range(p))


def _build_bc(p: int):
    simple, b_pos, _, sig = _build_b(p)
    positive = b_pos + [_vec(p, (i, 2)) for i in range(p)]
    return simple, positive, _vec(p, (0, 2)), sig


def _build_g2(_rank: int):
    # alpha_1, alpha_2, a1 + a2, 2a1 + a2, 3a1 + a2 and 3a1 + 2a2.
    positive = [_reduced(num, 1) for num in (
        (1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2),
    )]
    return positive[:2], positive, positive[-1], (2, 0, 1)


def _build_f4(_rank: int):
    simple = _classical_simple(4)[1:] + [_vec(4, (3, 1)), _reduced((1, -1, -1, -1), 2)]
    positive = [_vec(4, (i, 1)) for i in range(4)] + _pair_roots(4)
    positive += [
        _reduced((1,) + signs, 2) for signs in itertools.product((1, -1), repeat=3)
    ]
    return simple, positive, _vec(4, (0, 1), (1, 1)), (0, 1, 2, 3)


def _build_e(rank: int):
    # The E8 positive roots e_j +- e_i (i < j) and (sum_i s_i e_i + e_8) / 2
    # with an even number of signs s_i = -1, e_1..e_8 being coordinates
    # 0..7.  E7 is the part orthogonal to e_7 + e_8, and E6 the part of that
    # also orthogonal to e_6 - e_7.
    positive = [
        _vec(8, (j, 1), (i, s)) for j in range(8) for i in range(j) for s in (1, -1)
    ]
    positive += [
        _reduced(signs + (1,), 2)
        for signs in itertools.product((1, -1), repeat=7)
        if signs.count(-1) % 2 == 0
    ]
    if rank < 8:
        positive = [v for v in positive if v._num[6] + v._num[7] == 0]
    if rank < 7:
        positive = [v for v in positive if v._num[5] == v._num[6]]
    simple = [_reduced((1, -1, -1, -1, -1, -1, -1, 1), 2), _vec(8, (0, 1), (1, 1))]
    simple += [_vec(8, (i + 1, 1), (i, -1)) for i in range(rank - 2)]
    highest = {
        6: _reduced((1, 1, 1, 1, 1, -1, -1, 1), 2),
        7: _vec(8, (7, 1), (6, -1)),
        8: _vec(8, (6, 1), (7, 1)),
    }[rank]
    return simple, positive, highest, tuple(reversed(range(8)))


_CONSTRUCTORS = {
    "A": _build_a,
    "B": _build_b,
    "C": _build_c,
    "D": _build_d,
    "BC": _build_bc,
    "E6": _build_e,
    "E7": _build_e,
    "E8": _build_e,
    "F4": _build_f4,
    "G2": _build_g2,
}


def reflect(v: RootVec, alpha: RootVec) -> RootVec:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    dot = _dot_sign_num(v, alpha)
    if not dot:
        return v
    # With v = V / d, alpha = A / a and n / m = 2<V, A> / <A, A> in lowest
    # terms, the image is (m V - n A) / (m d): a drops out, and m is 1 for
    # roots.
    n, m = 2 * dot, _dot_sign_num(alpha, alpha)
    g = gcd(n, m)
    n //= g
    m //= g
    return RootVec._raw(
        tuple(map(operator.sub, map(m.__mul__, v._num), map(n.__mul__, alpha._num))),
        m * v._den,
    )


def reflection_closure(simple_roots, limit: int) -> set[RootVec]:
    """All vectors reachable from the simple roots by simple reflections.

    For a reduced system this is the full root set; used as the
    independent cross-check against the explicit Bourbaki lists.  The
    search stops once it holds more than `limit` vectors.
    """
    roots = set(simple_roots)
    frontier = set(simple_roots)
    while frontier and len(roots) <= limit:
        new = set()
        for v in frontier:
            for alpha in simple_roots:
                w = reflect(v, alpha)
                if w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return roots


def _heights(system: RootSystem) -> dict[RootVec, tuple[int, ...]]:
    """The simple-root coefficients of each positive root, by a height walk.

    The positive roots ascend in a lex order in which every simple root is
    positive, so a positive beta - alpha_i comes first.  A non-simple
    positive beta is alpha_i plus a positive root for the first i with
    <beta, alpha_i> > 0 that gives one (Humphreys, Introduction to Lie
    Algebras, 10.2), and c(beta) = c(beta - alpha_i) + e_i.  If a simple
    root is not positive or some beta has no such i, the simple roots are
    no base: InvariantViolation.
    """
    label = system.rstype.label()
    if not all(map(system.contains_positive, system.simple_roots)):
        raise InvariantViolation(f"{label}: a simple root is not a positive root")
    # The walk runs on numerators over the roots' common denominator e, so
    # beta - alpha_i is a subtraction on alpha_i's support and a lookup.
    e = lcm(*(v._den for v in system.positive_roots))
    units = {
        tuple(x * (e // alpha._den) for x in alpha._num): tuple(
            int(i == j) for j in range(system.rank)
        )
        for i, alpha in enumerate(system.simple_roots)
    }
    supports = [
        tuple((k, x * (e // alpha._den)) for k, x in support)
        for alpha, support in zip(system.simple_roots, system.simple_support)
    ]
    # <beta, alpha_i> is 0 unless alpha_i meets the support of beta.
    touching = [[] for _ in range(system.ambient_dim)]
    for i, support in enumerate(supports):
        for k, _ in support:
            touching[k].append(i)
    walked, heights = {}, {}
    for beta in system.positive_roots:
        num = beta._num if beta._den == e else tuple(x * (e // beta._den) for x in beta._num)
        coeffs = units.get(num)
        if coeffs is None:
            for i in sorted({i for k, x in enumerate(num) if x for i in touching[k]}):
                support = supports[i]
                if sum(x * num[k] for k, x in support) > 0:
                    below = list(num)
                    for k, x in support:
                        below[k] -= x
                    below = walked.get(tuple(below))
                    if below is not None:
                        coeffs = below[:i] + (below[i] + 1,) + below[i + 1:]
                        break
            else:
                raise InvariantViolation(
                    f"{label}: positive root {beta!r} is no simple root plus a lower one"
                )
        walked[num] = heights[beta] = coeffs
    return heights


def _check_build(system: RootSystem) -> None:
    family, rank, label = system.rstype.family, system.rank, system.rstype.label()
    classes = system.positive_classes
    if None in classes:
        v = system.positive_roots[classes.index(None)]
        raise InvariantViolation(f"{label}: positive root {v!r} fits no length class")
    for i, (tag, _, count) in enumerate(CLASSES[family]):
        got = classes.count(i)
        if got != count(rank):
            raise InvariantViolation(
                f"{label}: {got} positive roots of class {tag}, expected {count(rank)}"
            )
    if len(system._class_of) != len(system.positive_roots):
        raise InvariantViolation(f"{label}: duplicate positive roots")
    if not system.contains_positive(system.highest_root):
        raise InvariantViolation(f"{label}: highest root not positive")
    # positive_roots ascend in sort_key order, so the last is the maximum.
    if system.positive_roots[-1] != system.highest_root:
        raise InvariantViolation(f"{label}: highest root is not the lexicographic maximum")
    if rank > 8:
        return
    # Independent reconstruction: reflection closure of the simple roots,
    # doubling the short roots in the non-reduced case.  The closure of a
    # root system holds at most 2|R+| vectors (BC's is B's, which is fewer).
    limit = 2 * len(system.positive_roots)
    closure = reflection_closure(system.simple_roots, limit)
    key = system.sort_key
    zero_key = (0,) * system.ambient_dim
    pos = {v for v in closure if key(v) > zero_key}
    if family == "BC":
        shortest = min(norm_sq(v) for v in pos)
        pos |= {2 * v for v in pos if norm_sq(v) == shortest}
    if len(closure) > limit or pos != system._class_of.keys():
        raise InvariantViolation(
            f"{label}: reflection closure disagrees with the explicit root list"
        )
    heights = _heights(system)
    top = heights[system.highest_root]
    if not (family == "D" and rank == 2):  # D2 is reducible
        for mu, coeffs in heights.items():
            if any(map(operator.lt, top, coeffs)):
                raise InvariantViolation(f"{label}: highest root does not dominate {mu!r}")
