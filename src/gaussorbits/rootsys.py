"""Reduced and non-reduced root systems over exact rationals.

Root systems are realised in their standard Bourbaki coordinates (type A
keeps the p+1 zero-sum coordinates, E8 uses half-integer entries).  A
vector is stored as integers over one common denominator; the
construction of the roots, arithmetic, hashing, reflection, the
reflection closure, the sort of the roots, their squared lengths and
classes, and the simple-root coefficients run on those integers.  `fractions.Fraction` appears at the
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

A, B, C, D and BC (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Plates
I-IV) are assembled from cached per-dimension blocks, the roots e_i + s e_j
and k e_i, each holding its roots' squared lengths, measured once: the
systems of one dimension share the blocks' roots and lengths, and the
blocks are laid out so that the roots come out ascending.

Every system built is irreducible (D from rank 3), so each length class
has one dominant root, its highest (Humphreys, Introduction to Lie
Algebras, 10.3); `_make_system` records it for each class, by ray too.

`RootSystemType` and `RootSystem` are frozen dataclasses; `_make_system`
builds each `RootSystem`, which compares and hashes by identity.  `RootVec`
stays a slotted class, every instance made by `_reduced`, because a
namedtuple reads its fields more slowly and re-hashes every key.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .expr import compile_expr

class InvariantViolation(RuntimeError):
    """A structural fact the library relies on failed to hold."""


class RootVec:
    """Immutable vector with exact rational coordinates.

    The coordinates are stored as integers over one reduced common
    denominator, which keeps inner products, arithmetic and hashing
    cheap; `coords` builds them as Fractions on each call.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __new__(cls, coords):
        cs = tuple(Fraction(c) for c in coords)
        # Over the lcm of reduced denominators the vector is in lowest terms.
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        return _reduced(tuple(int(c * den) for c in cs), den)

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


def _over(v: RootVec, den: int) -> tuple[int, ...]:
    # The numerators of v over den, a multiple of v's denominator.
    return v._num if v._den == den else tuple(x * (den // v._den) for x in v._num)


def _simple_supports(system: "RootSystem", den: int) -> list[tuple[tuple[int, int], ...]]:
    # Each simple root's nonzero (index, numerator) pairs, numerators over den.
    return [
        tuple((k, x * (den // alpha._den)) for k, x in support)
        for alpha, support in zip(system.simple_roots, system.simple_support)
    ]


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
# fresh Python 3.11 process on a 2-vCPU Xeon VM it takes (median of 7, and
# in brackets of 7 alternating builds that measured and sorted each root):
#   rank   A                B                C                BC
#    30    0.001 (0.001) s  0.002 (0.002) s  0.002 (0.003) s  0.002 (0.003) s
#    50    0.004 (0.005) s  0.007 (0.009) s  0.007 (0.010) s  0.007 (0.010) s
#    70    0.007 (0.011) s  0.015 (0.023) s  0.015 (0.022) s  0.016 (0.023) s
MAX_RANK = 70

# The Weyl-orbit classes of positive roots of each family, in the tags of
# pairs.dat, longest last: (tag, squared length, positive roots at rank p).
CLASSES = {
    family: tuple((tag, length, compile_expr(count)) for tag, length, count in classes)
    for family, classes in {
        "A": (("all", 2, "p*(p+1)/2"),),
        "B": (("e_i", 1, "p"), ("e_i+-e_j", 2, "p*(p-1)")),
        "C": (("e_i+-e_j", 2, "p*(p-1)"), ("2e_i", 4, "p")),
        "D": (("all", 2, "p*(p-1)"),),
        "BC": (("e_i", 1, "p"), ("e_i+-e_j", 2, "p*(p-1)"), ("2e_i", 4, "p")),
        "E6": (("all", 2, "36"),), "E7": (("all", 2, "63"),), "E8": (("all", 2, "120"),),
        "F4": (("short", 1, "12"), ("long", 2, "12")), "G2": (("short", 2, "3"), ("long", 6, "3")),
    }.items()
}

# One count row per class whose highest root owns its primitive ray (BC's
# e_1 lies on the ray of 2e_1), keyed by length label, longest first: the
# positive roots of each class, in CLASSES order, not orthogonal to that
# highest root, from rank 2 up.  A long row sums to 2h-3 in a reduced
# family, h the dual Coxeter number (Kac, Table Aff 1); a short row is the
# dual family's long row reversed, as coroots swap long and short.
HIGHEST_COUNTS = {
    family: {label: tuple(map(compile_expr, row.split())) for label, row in rows.items()}
    for family, rows in {
        "A": {"long": "2p-1"},
        "B": {"long": "2 4p-7", "short": "1 2p-2"}, "C": {"long": "2p-2 1", "short": "4p-7 2"},
        "D": {"long": "4p-7"}, "BC": {"long": "1 2p-2 1", "middle": "2 4p-7 2"},
        "E6": {"long": "21"}, "E7": {"long": "33"}, "E8": {"long": "57"},
        "F4": {"long": "6 9", "short": "9 6"}, "G2": {"long": "2 3", "short": "3 2"},
    }.items()
}


@dataclass(frozen=True)
class RootSystemType:
    """Family label plus rank, validated against the family constraints."""

    family: str
    rank: int

    def __post_init__(self):
        family, rank = self.family, self.rank
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        fixed = _FIXED_RANK.get(family)
        lowest = 3 if family == "D" else 1  # D2 = A1 x A1 is reducible
        if fixed is not None:
            if rank != fixed:
                raise ValueError(f"family {family} has fixed rank {fixed}, got {rank}")
        elif rank < lowest:
            raise ValueError(f"family {family} requires rank >= {lowest}, got {rank}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} of {family} is above the largest rank {MAX_RANK}")

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


@dataclass(frozen=True, eq=False, repr=False)
class RootSystem:
    """A constructed root system; instances are cached singletons per type.

    `_make_system` builds one.  It compares and hashes by identity
    (eq=False): caches key on systems, and a field-wise hash would walk
    every root and fail on the dict fields.
    """

    rstype: RootSystemType
    ambient_dim: int
    simple_roots: tuple[RootVec, ...]
    # The nonzero (index, numerator) pairs of each simple root, so a sign
    # test against a simple root reads only those coordinates.
    simple_support: tuple[tuple[tuple[int, int], ...], ...]
    positive_roots: tuple[RootVec, ...]  # ascending in sort_key order
    # Class index into CLASSES[family] of each positive root; None for a
    # length no class has, which _check_build rejects.
    positive_classes: tuple[int | None, ...]
    highest_root: RootVec
    significance: tuple[int, ...]
    normals: tuple[RootVec, ...]
    # The one index of the positive roots; a negative root is looked up
    # through its negation.
    _class_of: dict[RootVec, int | None]
    # Length label of each class index, so a report needs no norm; a
    # length no class has gets none, and _check_build rejects its root.
    _class_labels: dict[int, str]
    # Each class's highest root by length label, and (root, class index) of
    # each by primitive ray, the longer class keeping a shared ray (BC's e_1).
    _class_highest: dict[str, RootVec]
    _ray_highest: dict[RootVec, tuple[RootVec, int]]

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
            num = [(k, x) for k, x in enumerate(_over(beta, e)) if x]
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
    simple, positive, norms, highest, significance = _CONSTRUCTORS[family](rank)
    normals = []  # an integer basis of the complement of the root span
    if family in ("A", "G2"):  # the coordinates of each root sum to zero
        normals = [_reduced((1,) * simple[0].dim, 1)]
    elif family in ("E6", "E7"):  # the conditions _build_e cuts E8 down by
        normals = [_vec(8, (6, 1), (7, 1)), _vec(8, (5, 1), (6, -1))][: 8 - rank]
    system = _make_system(rstype, simple, positive, norms, highest, significance, normals)
    _check_build(system)
    return system


def _make_system(rstype, simple_roots, positive_roots, norms, highest_root, significance,
                 normals) -> RootSystem:
    # norms are the roots' squared lengths, which the classical blocks
    # measured; if None, each root is measured here, an int, or a Fraction
    # for a non-integral one, equal to the Fraction norm_sq gives.  The
    # roots ascend in keys on integers: every numerator scaled to the
    # common denominator of the roots, read in significance order (the
    # numerator tuple itself for an integral system read
    # first-coordinate-first).  The roots are sorted by index, so that
    # their lengths follow them; the classical constructors pass them
    # ascending, which the sort confirms in one pass.
    ambient_dim = simple_roots[0].dim
    den = lcm(*{v._den for v in positive_roots})
    if norms is None:
        norms = []
        for v in positive_roots:
            n, d2 = _dot_sign_num(v, v), v._den * v._den
            norms.append(Fraction(n, d2) if n % d2 else n // d2)
    if den == 1 and tuple(significance) == tuple(range(ambient_dim)):
        keys = list(map(operator.attrgetter("_num"), positive_roots))
    else:
        keys = [tuple(map(_over(v, den).__getitem__, significance)) for v in positive_roots]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    positive = tuple(map(positive_roots.__getitem__, order))
    norms = tuple(map(norms.__getitem__, order))
    index = {length: i for i, (_, length, _) in enumerate(CLASSES[rstype.family])}
    classes = tuple(map(index.get, norms))
    support = tuple(tuple((i, x) for i, x in enumerate(s._num) if x) for s in simple_roots)
    labels = {index[n]: label for n, label in length_labels(index.keys() & set(norms)).items()}
    tops = {}  # each class's last root, its highest
    for v, c in zip(reversed(positive), reversed(classes)):
        if c in labels and c not in tops:
            tops[c] = v
            if len(tops) == len(labels):
                break
    # Shortest class first (CLASSES order): a longer class keeps a shared ray.
    rays = {primitive_ray(tops[c]): (tops[c], c) for c in sorted(tops)}
    return RootSystem(rstype, ambient_dim, tuple(simple_roots), support, positive, classes,
                      highest_root, tuple(significance), tuple(normals),
                      dict(zip(positive, classes)), labels,
                      {labels[c]: v for c, v in tops.items()}, rays)


def _vec(dim: int, *entries) -> RootVec:
    # The integral vector with the given (index, value) entries, zero elsewhere.
    num = [0] * dim
    for i, x in entries:
        num[i] = x
    return _reduced(tuple(num), 1)


class _Block(NamedTuple):
    """One kind of classical root in one dimension p, built once and shared.

    Row i holds the roots whose first nonzero coordinate is the i-th,
    ascending; `lengths` holds their squared lengths row by row, measured
    from the numerators when the block is built.
    """

    rows: tuple[tuple[RootVec, ...], ...]
    lengths: tuple[tuple[int, ...], ...]


def _block(rows) -> _Block:
    rows = tuple(map(tuple, rows))
    return _Block(rows, tuple(
        tuple(sum(x * x for x in filter(None, v._num)) for v in row) for row in rows
    ))


@lru_cache(maxsize=None)
def _signed_pairs(p: int, s: int) -> _Block:
    # e_i + s e_j for i < j, j ascending for s = -1 and descending for s = 1.
    rows, num = [], [0] * p
    for i in range(p):
        num[i] = 1
        row = []
        for j in range(i + 1, p) if s < 0 else range(p - 1, i, -1):
            num[j] = s
            row.append(_reduced(tuple(num), 1))
            num[j] = 0
        num[i] = 0
        rows.append(row)
    return _block(rows)


@lru_cache(maxsize=None)
def _axis(p: int, k: int) -> _Block:
    # k e_i, one root a row.
    return _block([_vec(p, (i, k))] for i in range(p))


def _assemble(*blocks: _Block) -> tuple[list[RootVec], list[int]]:
    # The blocks' roots and lengths in ascending order: the leading index
    # from the last to the first, and at each the blocks' rows in the order
    # given, which is that of their roots (e_i - e_j, e_i, e_i + e_j, 2e_i).
    roots, norms = [], []
    for i in reversed(range(len(blocks[0].rows))):
        for rows, lengths in blocks:
            roots += rows[i]
            norms += lengths[i]
    return roots, norms


def _classical(highest: RootVec, last: list[RootVec], minus: _Block, *blocks: _Block):
    # The system of the blocks, e_i - e_j first, read first-coordinate-first:
    # its simple roots are the e_i - e_{i+1} and then those of `last`.
    simple = [row[0] for row in minus.rows[:-1]] + last
    return (simple, *_assemble(minus, *blocks), highest, tuple(range(len(minus.rows))))


def _build_a(p: int):
    minus = _signed_pairs(p + 1, -1)
    return _classical(minus.rows[0][-1], [], minus)


def _build_b(p: int):
    minus, short, plus = _signed_pairs(p, -1), _axis(p, 1), _signed_pairs(p, 1)
    highest = plus.rows[0][-1] if p >= 2 else short.rows[0][0]
    return _classical(highest, [short.rows[-1][0]], minus, short, plus)


def _build_c(p: int):
    minus, plus, long = _signed_pairs(p, -1), _signed_pairs(p, 1), _axis(p, 2)
    return _classical(long.rows[0][0], [long.rows[-1][0]], minus, plus, long)


def _build_d(p: int):
    minus, plus = _signed_pairs(p, -1), _signed_pairs(p, 1)
    return _classical(plus.rows[0][-1], [plus.rows[-2][0]], minus, plus)


def _build_bc(p: int):
    minus, short, plus, long = (
        _signed_pairs(p, -1), _axis(p, 1), _signed_pairs(p, 1), _axis(p, 2)
    )
    return _classical(long.rows[0][0], [short.rows[-1][0]], minus, short, plus, long)


def _build_g2(_rank: int):
    # alpha_1, alpha_2, a1 + a2, 2a1 + a2, 3a1 + a2 and 3a1 + 2a2.
    positive = [_reduced(num, 1) for num in (
        (1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2),
    )]
    return positive[:2], positive, None, positive[-1], (2, 0, 1)


def _build_f4(_rank: int):
    minus, short, plus = _signed_pairs(4, -1), _axis(4, 1), _signed_pairs(4, 1)
    simple = [minus.rows[1][0], minus.rows[2][0], short.rows[3][0], _reduced((1, -1, -1, -1), 2)]
    positive, _ = _assemble(minus, short, plus)
    positive += [
        _reduced((1,) + signs, 2) for signs in itertools.product((1, -1), repeat=3)
    ]
    return simple, positive, None, plus.rows[0][-1], (0, 1, 2, 3)


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
    return simple, positive, None, highest, tuple(reversed(range(8)))


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


def reflection_closure(system: RootSystem, den: int, limit: int) -> set[tuple[int, ...]]:
    """All vectors reachable from the simple roots by simple reflections.

    Each vector is its numerator tuple over den, a common multiple of the
    simple roots' denominators.  For a reduced system this is the full
    root set; used as the independent cross-check against the explicit
    Bourbaki lists.  A reflection of V in the simple root A is
    V - <V, A^vee> A, with the Cartan number <V, A^vee> = 2<V, A>/<A, A>
    taken on A's support, as weyl_fold's walk does.  A non-integral Cartan
    number, which no root system has, raises InvariantViolation.  The
    search stops once it holds more than `limit` vectors.
    """
    supports = _simple_supports(system, den)
    norms = [sum(x * x for _, x in support) for support in supports]
    frontier = {_over(alpha, den) for alpha in system.simple_roots}
    roots = set(frontier)
    while frontier and len(roots) <= limit:
        new = set()
        for v in frontier:
            for alpha, support, norm in zip(system.simple_roots, supports, norms):
                dot = 0
                for k, x in support:
                    dot += x * v[k]
                if not dot:
                    continue
                n, r = divmod(2 * dot, norm)
                if r:
                    raise InvariantViolation(
                        f"{system.rstype.label()}: Cartan number {Fraction(2 * dot, norm)} "
                        f"of {RootVec._raw(v, den)!r} and simple root {alpha!r} "
                        "is not an integer"
                    )
                w = list(v)
                for k, x in support:
                    w[k] -= n * x
                w = tuple(w)
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
        _over(alpha, e): tuple(int(i == j) for j in range(system.rank))
        for i, alpha in enumerate(system.simple_roots)
    }
    supports = _simple_supports(system, e)
    # <beta, alpha_i> is 0 unless alpha_i meets the support of beta.
    touching = [[] for _ in range(system.ambient_dim)]
    for i, support in enumerate(supports):
        for k, _ in support:
            touching[k].append(i)
    walked, heights = {}, {}
    for beta in system.positive_roots:
        num = _over(beta, e)
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
    if rank <= 8:
        # Independent reconstruction: reflection closure of the simple roots,
        # doubling the short roots in the non-reduced case, on numerators over
        # one denominator of every simple and positive root.  The closure of a
        # root system holds at most 2|R+| vectors (BC's is B's, which is fewer).
        limit = 2 * len(system.positive_roots)
        den = lcm(*(v._den for v in system.simple_roots + system.positive_roots))
        closure = reflection_closure(system, den, limit)
        get = operator.itemgetter(*system.significance)
        zero = get((0,) * system.ambient_dim)
        pos = {v for v in closure if get(v) > zero}
        if family == "BC":
            shortest = min(sum(x * x for x in v) for v in pos)
            pos |= {tuple(2 * x for x in v) for v in pos if sum(x * x for x in v) == shortest}
        listed = {_over(v, den) for v in system.positive_roots}
        if len(closure) > limit or pos != listed:
            raise InvariantViolation(
                f"{label}: reflection closure disagrees with the explicit root list"
            )
        heights = _heights(system)
        top = heights[system.highest_root]
        for mu, coeffs in heights.items():
            if any(map(operator.lt, top, coeffs)):
                raise InvariantViolation(f"{label}: highest root does not dominate {mu!r}")
    # At every rank, each class's highest root is dominant.
    for length, v in system._class_highest.items():
        for support in system.simple_support:
            if sum(x * v._num[k] for k, x in support) < 0:
                raise InvariantViolation(f"{label}: highest {length} root {v!r} is not dominant")
