import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from gaussorbits import rootsys as rs
from gaussorbits.rootsys import RootVec
from reference import rootvec, simple_coefficients

ALL_TYPES = (
    [("A", p) for p in range(1, 9)]
    + [("B", p) for p in range(1, 9)]
    + [("C", p) for p in range(1, 9)]
    + [("D", p) for p in range(2, 9)]
    + [("BC", p) for p in range(1, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)

COUNTS = {
    "A": lambda p: p * (p + 1) // 2,
    "B": lambda p: p * p,
    "C": lambda p: p * p,
    "D": lambda p: p * (p - 1),
    "BC": lambda p: p * p + p,
    "E6": lambda p: 36,
    "E7": lambda p: 63,
    "E8": lambda p: 120,
    "F4": lambda p: 24,
    "G2": lambda p: 6,
}

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(rationals, min_size=d, max_size=d).map(RootVec)
)


class TestRootVec:
    def test_exact_arithmetic(self):
        v = rootvec(Fraction(1, 2), Fraction(1, 3))
        w = rootvec(Fraction(1, 6), 1)
        assert (v + w).coords == (Fraction(2, 3), Fraction(4, 3))
        assert (v - w).coords == (Fraction(1, 3), Fraction(-2, 3))
        assert (Fraction(3, 2) * v).coords == (Fraction(3, 4), Fraction(1, 2))
        assert -v == rootvec(Fraction(-1, 2), Fraction(-1, 3))

    @given(vectors, rationals)
    def test_scalar_multiplication_matches_fractions(self, v, s):
        assert (s * v).coords == tuple(s * c for c in v.coords)

    @given(vectors)
    def test_addition_matches_fractions(self, v):
        w = v + v
        assert w.coords == tuple(2 * c for c in v.coords)
        assert (v - v).is_zero()

    def test_equality_is_coordinatewise(self):
        assert rootvec(Fraction(2, 4), 0) == rootvec(Fraction(1, 2), 0)
        assert rootvec(1, 0) != rootvec(1, 0, 0)
        assert hash(rootvec(Fraction(2, 4))) == hash(rootvec(Fraction(1, 2)))

    def test_parse(self):
        assert RootVec.parse("1,-1/2,0") == rootvec(1, Fraction(-1, 2), 0)
        with pytest.raises(ValueError):
            RootVec.parse("1,oops")

    @pytest.mark.parametrize("text", ["1e999999999,0", "0,-1E-999999999", "2.5e1"])
    def test_parse_refuses_exponents(self, text):
        # Fraction alone would build a billion-digit integer for the first two.
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            RootVec.parse(text)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet="0123456789/-+., _eE\n\t", max_size=30)))
    @example("")
    @example("1/0")
    @example("9" * 5000)
    def test_parse_fuzz(self, text):
        # Arbitrary text gives a vector or a ValueError, and nothing else.
        try:
            v = RootVec.parse(text)
        except ValueError:
            return
        assert RootVec.parse(",".join(map(str, v.coords))) == v

    def test_immutable(self):
        v = rootvec(1, 2)
        with pytest.raises(AttributeError):
            v.coords = (1,)


class TestInner:
    def test_orthogonality(self):
        assert rs.inner(rootvec(1, 1), rootvec(1, -1)) == 0

    def test_g2_length_ratio(self):
        g2 = rs.build("G2")
        short = next(v for v in g2.positive_roots if g2.root_class(v) == "short")
        assert rs.norm_sq(g2.highest_root) / rs.norm_sq(short) == 3

    @given(vectors)
    def test_positive_definite(self, v):
        n = rs.inner(v, v)
        assert n >= 0
        assert (n == 0) == v.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rs.inner(rootvec(1), rootvec(1, 0))


class TestBuild:
    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_positive_root_count(self, family, rank):
        system = rs.build(family, rank)
        assert len(system.positive_roots) == COUNTS[family](rank)

    @pytest.mark.parametrize("long_class,message", [
        (("long", 6, lambda p: 4), "3 positive roots of class long, expected 4"),
        (("long", 5, lambda p: 3), "fits no length class"),
    ])
    def test_class_table_disagreement_is_invariant_violation(
        self, monkeypatch, long_class, message
    ):
        short_class, _ = rs.CLASSES["G2"]
        monkeypatch.setitem(rs.CLASSES, "G2", (short_class, long_class))
        rs._build_cached.cache_clear()
        try:
            with pytest.raises(rs.InvariantViolation, match=message):
                rs.build("G2")
        finally:
            rs._build_cached.cache_clear()

    def test_bad_types(self):
        with pytest.raises(ValueError, match="rank >= 2"):
            rs.build("D", 1)
        with pytest.raises(ValueError, match="rank >= 1"):
            rs.build("A", 0)
        with pytest.raises(ValueError, match="fixed rank"):
            rs.build("E6", 5)
        with pytest.raises(ValueError, match="unknown family"):
            rs.build("H", 3)
        with pytest.raises(ValueError, match="explicit rank"):
            rs.build("B")
        with pytest.raises(ValueError, match="above the largest rank"):
            rs.build("A", rs.MAX_RANK + 1)

    def test_bc2_roots(self):
        bc2 = rs.build("BC", 2)
        expected = {
            rootvec(1, 0), rootvec(0, 1), rootvec(2, 0), rootvec(0, 2),
            rootvec(1, 1), rootvec(1, -1),
        }
        assert set(bc2.positive_roots) == expected

    def test_g2_highest_root(self):
        g2 = rs.build("G2")
        assert len(g2.positive_roots) == 6
        assert simple_coefficients(g2, g2.highest_root) == (3, 2)

    def test_a1_single_root(self):
        a1 = rs.build("A", 1)
        assert len(a1.positive_roots) == 1
        assert a1.positive_roots[0] == a1.highest_root

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_positive_roots_are_nonneg_simple_combinations(self, family, rank):
        system = rs.build(family, rank)
        for mu in system.positive_roots:
            coeffs = simple_coefficients(system, mu)
            assert all(c >= 0 for c in coeffs)
            assert all(c.denominator == 1 for c in coeffs)

    @pytest.mark.parametrize("family,rank", [("B", 3), ("BC", 2), ("G2", 2), ("F4", 4), ("E6", 6)])
    def test_full_reflection_closure(self, family, rank):
        system = rs.build(family, rank)
        roots = set(system.positive_roots) | {-v for v in system.positive_roots}
        for alpha in roots:
            for beta in roots:
                assert rs.reflect(beta, alpha) in roots

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_highest_root_is_unique_long_lex_max(self, family, rank):
        system = rs.build(family, rank)
        delta = system.highest_root
        top = max(map(rs.norm_sq, system.positive_roots))
        assert rs.norm_sq(delta) == top
        key = system.sort_key
        others = [v for v in system.positive_roots if v != delta]
        assert all(key(v) < key(delta) for v in others)

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_highest_root_dominates(self, family, rank):
        if (family, rank) == ("D", 2):
            pytest.skip("D2 is reducible; no root dominates the other component")
        system = rs.build(family, rank)
        for mu in system.positive_roots:
            coeffs = simple_coefficients(system, system.highest_root - mu)
            assert all(c >= 0 for c in coeffs)

    def test_simply_laced_single_length(self):
        for family, rank in [("A", 3), ("D", 4), ("E6", 6), ("E7", 7), ("E8", 8)]:
            system = rs.build(family, rank)
            assert len(set(map(rs.norm_sq, system.positive_roots))) == 1

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_positive_roots_lex_positive(self, family, rank):
        system = rs.build(family, rank)
        zero = tuple([Fraction(0)] * system.ambient_dim)
        for v in system.positive_roots:
            assert system.sort_key(v) > zero


class TestIsRoot:
    def test_c2_doubled(self):
        c2 = rs.build("C", 2)
        assert c2.contains(rootvec(2, 0))
        assert not c2.contains(rootvec(3, 0))
        assert c2.contains(rootvec(-1, -1))

    def test_b3_sum_of_three(self):
        b3 = rs.build("B", 3)
        assert not b3.contains(rootvec(1, 1, 1))


class TestWolf:
    def test_highest(self):
        for family, rank in [("B", 3), ("E7", 7), ("BC", 2)]:
            system = rs.build(family, rank)
            assert reference.wolf_class(system, system.highest_root) == reference.WOLF_HIGHEST

    def test_orthogonal(self):
        b3 = rs.build("B", 3)
        assert reference.wolf_class(b3, rootvec(0, 0, 1)) == reference.WOLF_ORTHOGONAL

    def test_half_in_bc(self):
        bc2 = rs.build("BC", 2)
        assert reference.wolf_class(bc2, rootvec(1, 0)) == reference.WOLF_HALF

    def test_rejects_non_roots(self):
        b3 = rs.build("B", 3)
        with pytest.raises(ValueError):
            reference.wolf_class(b3, rootvec(1, 1, 1))

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_ratio_cases_everywhere(self, family, rank):
        system = rs.build(family, rank)
        delta = system.highest_root
        for lam in system.positive_roots:
            cls = reference.wolf_class(system, lam)
            diff_is_root = system.contains(lam - delta)
            if cls == reference.WOLF_ORTHOGONAL:
                assert not diff_is_root
            elif cls == reference.WOLF_HALF:
                assert diff_is_root
            else:
                assert lam == delta

    @pytest.mark.parametrize("family,rank", ALL_TYPES)
    def test_string_depth(self, family, rank):
        system = rs.build(family, rank)
        for lam in system.positive_roots:
            depth = reference.delta_string_depth(system, lam)
            assert depth == -2 * reference.wolf_ratio(system, lam)
            assert depth in (0, -1, -2)
            assert (depth == -2) == (lam == system.highest_root)


class TestOrderAndClasses:
    def test_lowest_root_a2_is_simple(self):
        a2 = rs.build("A", 2)
        assert a2.positive_roots[0] in a2.simple_roots

    def test_long_short_partitions(self):
        def partition(system):
            long = [v for v in system.positive_roots if system.root_class(v) == "long"]
            rest = [v for v in system.positive_roots if system.root_class(v) != "long"]
            return long, rest

        long, rest = partition(rs.build("A", 3))
        assert len(long) == 6
        assert rest == []

        long, rest = partition(rs.build("G2"))
        assert len(rest) == 3
        assert len(long) == 3

        long, rest = partition(rs.build("BC", 2))
        assert set(long) == {rootvec(2, 0), rootvec(0, 2)}
        assert len(rest) == 4

    def test_root_class_labels(self):
        bc2 = rs.build("BC", 2)
        assert bc2.root_class(rootvec(2, 0)) == "long"
        assert bc2.root_class(rootvec(1, 1)) == "middle"
        assert bc2.root_class(rootvec(1, 0)) == "short"
        with pytest.raises(ValueError):
            bc2.root_class(rootvec(3, 0))

    def test_simple_coefficients_rejects_outside_span(self):
        a2 = rs.build("A", 2)
        with pytest.raises(ValueError):
            simple_coefficients(a2, rootvec(1, 1, 1))

    def test_fundamental_coweights(self):
        for family, rank in [("A", 3), ("B", 3), ("G2", 2)]:
            system = rs.build(family, rank)
            for i, h in enumerate(system.fundamental_coweights()):
                for j, alpha in enumerate(system.simple_roots):
                    assert rs.inner(h, alpha) == int(i == j)


class TestExceptionalTranscription:
    # classical highest-root coordinates in the simple basis; any slip in
    # the explicit root lists or the simple-root order would break these
    @pytest.mark.parametrize(
        "name,coeffs",
        [
            ("E6", (1, 2, 2, 3, 2, 1)),
            ("E7", (2, 2, 3, 4, 3, 2, 1)),
            ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
            ("F4", (2, 3, 4, 2)),
            ("G2", (3, 2)),
        ],
    )
    def test_highest_root_coefficients(self, name, coeffs):
        system = rs.build(name)
        assert simple_coefficients(system, system.highest_root) == coeffs

    def test_e_series_diagram_shape(self):
        # node 2 hangs off node 4; nodes 1-3-4-5-... form a chain
        for name, rank in [("E6", 6), ("E7", 7), ("E8", 8)]:
            system = rs.build(name)
            s = system.simple_roots
            links = {
                frozenset((i, j))
                for i in range(rank)
                for j in range(i + 1, rank)
                if rs.inner(s[i], s[j]) != 0
            }
            chain = {frozenset((0, 2))} | {
                frozenset((i, i + 1)) for i in range(2, rank - 1)
            }
            assert links == chain | {frozenset((1, 3))}

    def test_simple_roots_pair_nonpositively(self):
        for family, rank in ALL_TYPES:
            system = rs.build(family, rank)
            s = system.simple_roots
            for i in range(rank):
                for j in range(i + 1, rank):
                    assert rs.inner(s[i], s[j]) <= 0

    def test_subsystem_orthogonal_to_highest_root(self):
        # the positives orthogonal to delta form the known subsystems
        # (A1, C3, A5, D6, E7 respectively), pinning their counts
        expected = {"G2": 1, "F4": 9, "E6": 15, "E7": 30, "E8": 63}
        for name, want in expected.items():
            system = rs.build(name)
            count = sum(
                1
                for v in system.positive_roots
                if rs.is_orthogonal(v, system.highest_root)
            )
            assert count == want


def _reflect_reference(v, alpha):
    return v - (2 * rs.inner(v, alpha) / rs.norm_sq(alpha)) * alpha


def _vectors_of_dim(d):
    return st.lists(rationals, min_size=d, max_size=d).map(RootVec)


class TestReflect:
    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.tuples(_vectors_of_dim(d), _vectors_of_dim(d))
    ))
    def test_matches_fractions(self, pair):
        v, alpha = pair
        if not alpha.is_zero():
            assert rs.reflect(v, alpha) == _reflect_reference(v, alpha)

    @pytest.mark.parametrize("family,rank", [("E8", 8), ("F4", 4), ("G2", 2), ("BC", 3)])
    def test_roots_in_simple_roots(self, family, rank):
        # Integral and half-integral roots against integral and half-integral
        # simple roots.
        system = rs.build(family, rank)
        for v in system.positive_roots + tuple(3 * s for s in system.simple_roots):
            for alpha in system.simple_roots:
                assert rs.reflect(v, alpha) == _reflect_reference(v, alpha)


class TestParallel:
    def test_parallel_pairs(self):
        assert reference.is_parallel(rootvec(2, -4), rootvec(-1, 2))
        assert not reference.is_parallel(rootvec(1, 0), rootvec(0, 1))
        assert not reference.is_parallel(rootvec(0, 0), rootvec(1, 1))

    @given(vectors, st.fractions(min_value=Fraction(1, 5), max_value=7, max_denominator=5))
    def test_scaling_is_parallel(self, v, s):
        if not v.is_zero():
            assert reference.is_parallel(v, s * v)
            assert reference.is_parallel(v, -s * v)


ORDER_TYPES = (
    [(f, p) for f in ("A", "B", "C", "BC") for p in range(1, 13)]
    + [("D", p) for p in range(2, 13)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    + [(f, 30) for f in ("A", "B", "C", "D", "BC")]
)


class TestNegation:
    """Negatives and their membership and classes, from `coords`."""

    @pytest.mark.parametrize("family,rank", ORDER_TYPES)
    def test_negation_matches_coords(self, family, rank):
        system = rs.build(family, rank)
        for v in system.positive_roots:
            neg = -v
            ref = RootVec([-c for c in v.coords])
            assert neg == ref and hash(neg) == hash(ref)
            assert -neg == v and hash(-neg) == hash(v)
            assert system.contains(neg)
            assert system.class_index(neg) == system.class_index(v)


HEIGHT_TYPES = ALL_TYPES + [(f, 12) for f in ("B", "C", "BC")]


class TestHeights:
    """The height walk against the `Fraction` solve in `reference`."""

    @pytest.mark.parametrize("family,rank", HEIGHT_TYPES)
    def test_matches_the_reference_solve(self, family, rank):
        system = rs.build(family, rank)
        heights = rs._heights(system)
        assert list(heights) == list(system.positive_roots)
        for beta, coeffs in heights.items():
            assert coeffs == simple_coefficients(system, beta)

    def test_a_simple_root_that_is_not_positive(self):
        # A2 on the simple roots alpha_1 and alpha_2 - alpha_1, made without
        # `_check_build`, whose reflection closure would refuse it first.
        a2 = rs.build("A", 2)
        a1, a2_ = a2.simple_roots
        system = rs.RootSystem(
            a2.rstype, a2.ambient_dim, (a1, a2_ - a1), a2.positive_roots,
            a2.highest_root, a2.significance,
        )
        with pytest.raises(rs.InvariantViolation, match="A2: a simple root is not a positive root"):
            rs._heights(system)


# These two classes clear the build cache in their tests, so they come
# last: any test after them would build its systems again.
class TestIntegerOrder:
    """The integer build against a reference made from `coords` and Fractions."""

    @pytest.mark.parametrize("family,rank", ORDER_TYPES)
    def test_matches_fraction_reference(self, family, rank):
        system = rs.build(family, rank)
        _, listed, highest, significance = rs._CONSTRUCTORS[family](rank)

        def keys(vectors):
            return [tuple(map(v.coords.__getitem__, significance)) for v in vectors]

        # sort_key sorts the constructor's list into positive_roots, and the
        # result is strictly increasing under the Fraction key: that is the
        # reference sort, checked in n - 1 comparisons.
        ordered = sorted(listed, key=system.sort_key)
        assert system.positive_roots == tuple(ordered)
        ks = keys(ordered)
        assert all(a < b for a, b in zip(ks, ks[1:]))
        norms = tuple(sum(c * c for c in k if c) for k in ks)
        index = {length: i for i, (_, length, _) in enumerate(rs.CLASSES[family])}
        assert system.positive_classes == tuple(index[m] for m in norms)
        assert system.highest_root == highest == ordered[-1]
        if rank > 4:
            return
        # Negatives and halves too, so that int and Fraction entries meet.
        vectors = [w for v in listed for w in (v, -v, v * Fraction(1, 2))]
        ks = keys(sorted(vectors, key=system.sort_key))
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
    def test_coweights_through_the_lazy_inverse(self, family):
        rs._build_cached.cache_clear()
        try:
            system = rs.build(family, 9)
            for i, h in enumerate(system.fundamental_coweights()):
                for j, alpha in enumerate(system.simple_roots):
                    assert rs.inner(h, alpha) == int(i == j)
        finally:
            rs._build_cached.cache_clear()

    @pytest.mark.parametrize("family", ["A", "C", "BC"])
    def test_coweights_at_the_rank_cap(self, family):
        try:
            system = rs.build(family, rs.MAX_RANK)
            for i, h in enumerate(system.fundamental_coweights()):
                assert [rs.inner(h, alpha) for alpha in system.simple_roots] == [
                    int(i == j) for j in range(system.rank)
                ]
        finally:
            rs._build_cached.cache_clear()

    @pytest.mark.parametrize("family,rank", [("B", 3), ("C", 12), ("F4", 4)])
    def test_wrong_highest_root_is_invariant_violation(self, monkeypatch, family, rank):
        build = rs._CONSTRUCTORS[family]

        def wrong_highest(p):
            simple, positive, _, significance = build(p)
            return simple, positive, positive[-1], significance

        monkeypatch.setitem(rs._CONSTRUCTORS, family, wrong_highest)
        rs._build_cached.cache_clear()
        try:
            with pytest.raises(rs.InvariantViolation, match="lexicographic maximum"):
                rs.build(family, rank)
        finally:
            rs._build_cached.cache_clear()


class TestCheckBuild:
    """`_check_build` rejects a constructor's list that is not the root system."""

    def _build_with(self, monkeypatch, family, rank, edit):
        build = rs._CONSTRUCTORS[family]

        def edited(p):
            simple, positive, highest, significance = build(p)
            return simple, edit(list(positive)), highest, significance

        monkeypatch.setitem(rs._CONSTRUCTORS, family, edited)
        rs._build_cached.cache_clear()
        try:
            return rs.build(family, rank)
        finally:
            rs._build_cached.cache_clear()

    @pytest.mark.parametrize("family,rank", [("B", 3), ("C", 12), ("G2", 2)])
    def test_duplicate_positive_roots(self, monkeypatch, family, rank):
        system = rs.build(family, rank)
        lowest = system.positive_roots[0]
        # Drop another root of the lowest root's class and repeat the
        # lowest, so every class keeps its count.
        dropped = next(
            v for v in system.positive_roots[1:]
            if system.class_index(v) == system.class_index(lowest)
            and v != system.highest_root
        )

        def edit(positive):
            positive.remove(dropped)
            return positive + [lowest]

        with pytest.raises(rs.InvariantViolation, match="duplicate positive roots"):
            self._build_with(monkeypatch, family, rank, edit)

    @pytest.mark.parametrize("family,rank,dropped,stranger", [
        # e_2 + e_3 is not a root of A3; (1, 1, 1, 1) is not one of C4.
        ("A", 3, rootvec(0, 0, 1, -1), rootvec(0, 1, 1, 0)),
        ("C", 4, rootvec(0, 0, 0, 2), rootvec(1, 1, 1, 1)),
    ])
    def test_reflection_closure_disagreement(
        self, monkeypatch, family, rank, dropped, stranger
    ):
        system = rs.build(family, rank)
        assert system.contains_positive(dropped) and not system.contains(stranger)
        assert rs.norm_sq(stranger) == rs.norm_sq(dropped)
        assert system.sort_key(stranger) < system.sort_key(system.highest_root)

        def edit(positive):
            return [stranger if v == dropped else v for v in positive]

        with pytest.raises(rs.InvariantViolation, match="reflection closure disagrees"):
            self._build_with(monkeypatch, family, rank, edit)

    @pytest.mark.parametrize("family,rank", [("A", 3), ("BC", 4), ("E8", 8)])
    def test_reflection_closure_that_does_not_close(self, monkeypatch, family, rank):
        # A "reflection" that subtracts the multiple of alpha with its
        # coordinates reversed is no isometry, so the closure never closes.
        # The closure must stop by itself; the call budget only keeps a
        # failing run of this test bounded.
        budget = itertools.count(10_000, -1)

        def reversed_alpha(v, alpha):
            assert next(budget) > 0, "reflection closure did not stop"
            flipped = RootVec(alpha.coords[::-1])
            return v - (2 * rs.inner(v, alpha) / rs.norm_sq(alpha)) * flipped

        monkeypatch.setattr(rs, "reflect", reversed_alpha)
        rs._build_cached.cache_clear()
        try:
            with pytest.raises(rs.InvariantViolation, match="reflection closure disagrees"):
                rs.build(family, rank)
        finally:
            rs._build_cached.cache_clear()

    @pytest.mark.parametrize("rank", [3, 5, 8])
    def test_simple_roots_that_are_no_base(self, monkeypatch, rank):
        # alpha_1, alpha_1 + alpha_2, alpha_3, ... span the root lattice and
        # their reflections generate the Weyl group, so the reflection
        # closure holds; but e_2 - e_3 is no sum of them with coefficients
        # of one sign.
        build = rs._CONSTRUCTORS["A"]

        def no_base(p):
            simple, positive, highest, significance = build(p)
            simple[1] = simple[0] + simple[1]
            return simple, positive, highest, significance

        monkeypatch.setitem(rs._CONSTRUCTORS, "A", no_base)
        rs._build_cached.cache_clear()
        try:
            with pytest.raises(rs.InvariantViolation, match=f"A{rank}: "):
                rs.build("A", rank)
        finally:
            rs._build_cached.cache_clear()
