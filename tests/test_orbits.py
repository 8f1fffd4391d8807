import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from exact_linalg import nullspace
from gaussorbits import ferus, orbits, pairdb, report, rootsys
from gaussorbits.orbits import (
    RULE_G2_SHORT_ROOT,
    RULE_LONG_ROOT,
    RULE_NOT_PARALLEL,
    RULE_SHORT_NON_G2,
)
from gaussorbits.rootsys import InvariantViolation, RootVec
from reference import root_class, rootvec


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


def default_pairs(db):
    for fam in db:
        yield fam.instantiate(
            p=fam.p_min if fam.uses_p else None,
            n=fam.n_min if fam.uses_n else None,
        )


class TestWeylFold:
    def test_identity_on_chamber(self, db):
        pair = db.get("e6|f4").instantiate()
        system = pair.system()
        assert orbits.weyl_fold(system, system.highest_root) == system.highest_root

    def test_b2_negative_e1(self, db):
        system = rootsys.build("B", 2)
        folded = orbits.weyl_fold(system, rootvec(-1, 0))
        assert folded == rootvec(1, 0)
        assert all(rootsys.inner(a, folded) >= 0 for a in system.simple_roots)

    @settings(max_examples=40)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=4, max_size=4))
    def test_fold_properties(self, coords):
        system = rootsys.build("F4")
        H = RootVec(coords)
        if H.is_zero():
            return
        folded = orbits.weyl_fold(system, H)
        assert rootsys.norm_sq(folded) == rootsys.norm_sq(H)
        assert all(rootsys.inner(a, folded) >= 0 for a in system.simple_roots)
        assert orbits.weyl_fold(system, folded) == folded

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orbits.weyl_fold(rootsys.build("B", 2), rootvec(0, 0))

    def test_fold_is_constant_on_weyl_orbits(self):
        # different reflection words applied to one point all fold back
        # to the same chamber representative
        rng = random.Random(11)
        for family, rank in [("G2", 2), ("BC", 3), ("E6", 6)]:
            system = rootsys.build(family, rank)
            coweights = system.fundamental_coweights()
            H = coweights[0]
            for c, w in zip(range(2, rank + 1), coweights[1:]):
                H = H + Fraction(c, 3) * w
            base = orbits.weyl_fold(system, H)
            for _ in range(8):
                image = H
                for _ in range(rng.randint(1, 9)):
                    image = rootsys.reflect(image, rng.choice(system.simple_roots))
                assert orbits.weyl_fold(system, image) == base


def _systems(max_rank):
    for family in rootsys.FAMILIES:
        fixed = rootsys._FIXED_RANK.get(family)
        if fixed is not None:
            if fixed <= max_rank:
                yield rootsys.build(family)
            continue
        for rank in range(3 if family == "D" else 1, max_rank + 1):
            yield rootsys.build(family, rank)


def _dense_fold(system, H):
    # Reference: reflect in the first simple root with a negative Fraction
    # inner product until none is left.
    while True:
        for alpha in system.simple_roots:
            if rootsys.inner(alpha, H) < 0:
                H = rootsys.reflect(H, alpha)
                break
        else:
            return H


class TestFoldReference:
    def test_weyl_fold_matches_dense_fold(self):
        rng = random.Random(5)
        for system in _systems(6):
            coweights = system.fundamental_coweights()
            points = list(system.positive_roots[:4]) + [system.highest_root]
            for _ in range(6):
                H = RootVec([0] * system.ambient_dim)
                for w in coweights:
                    H = H + Fraction(rng.randint(0, 3), rng.randint(1, 3)) * w
                if not H.is_zero():
                    points.append(H)
            for H in points:
                image = H
                for _ in range(rng.randint(0, 12)):
                    image = rootsys.reflect(image, rng.choice(system.simple_roots))
                for v in (image, -image, 3 * image):
                    assert orbits.weyl_fold(system, v) == _dense_fold(system, v), (
                        system, v)

    @pytest.mark.parametrize("family,den", [
        ("G2", 1), ("B", 1), ("C", 1), ("F4", 1), ("E6", 2), ("E7", 2), ("E8", 2),
    ])
    def test_matches_dense_fold_where_m_exceeds_one(self, family, den):
        # 2<V, A> / <A, A> has a denominator m > 1 at G2's long simple root
        # and F4's and E's half-integral one; the fold then scales every
        # coordinate.  B and C keep m = 1 at their short simple roots.
        system = rootsys.build(family, 3 if family in ("B", "C") else None)
        rng = random.Random(29)
        folded = []
        for _ in range(60):
            # Half-integral inputs have odd numerators.
            H = RootVec([Fraction(rng.randint(-4, 4) * den + den - 1, den)
                         for _ in range(system.ambient_dim)])
            if H.is_zero():
                continue
            folded.append(orbits.weyl_fold(system, H))
            assert folded[-1] == _dense_fold(system, H), (system, H)
        if family not in ("B", "C"):
            assert any(v._den > den for v in folded)


@st.composite
def _classical_points(draw):
    # (system, H) for a classical system of rank <= 8: H over a drawn
    # denominator, with zero entries; in D, a drawn parity of negative
    # entries with or without a zero entry; in A, mostly outside the root
    # span (its coordinates need not sum to zero).
    family = draw(st.sampled_from(("A", "B", "C", "BC", "D")))
    system = rootsys.build(family, draw(st.integers(3 if family == "D" else 1, 8)))
    dim = system.ambient_dim
    den = draw(st.sampled_from((1, 2, 3, 6)))
    num = draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim))
    if family == "D":
        num = [abs(x) or 1 for x in num]
        if draw(st.booleans(), label="with a zero entry"):
            num[draw(st.integers(0, dim - 1))] = 0
        for i in draw(st.sets(st.integers(0, dim - 1))):
            num[i] = -num[i]
        if sum(x < 0 for x in num) % 2 != draw(st.integers(0, 1), label="odd negatives"):
            i = next(i for i, x in enumerate(num) if x)
            num[i] = -num[i]
    assume(any(num))
    return system, RootVec([Fraction(x, den) for x in num])


class TestClassicalFold:
    # weyl_fold sorts signed coordinates in A, B, C, BC and D.

    @pytest.mark.parametrize("family,rank,coords,chamber", [
        ("A", 3, (1, -2, 3, 0), (3, 1, 0, -2)),
        ("A", 2, ("1/2", "3/2", "-1/2"), ("3/2", "1/2", "-1/2")),
        ("B", 3, ("-1/2", "3/2", 0), ("3/2", "1/2", 0)),
        ("C", 2, (-3, -1), (3, 1)),
        ("BC", 3, (0, -2, 1), (2, 1, 0)),
        ("D", 3, (1, -2, 3), (3, 2, -1)),
        ("D", 3, (-1, -2, 3), (3, 2, 1)),
        ("D", 3, (0, -2, 3), (3, 2, 0)),
        ("D", 4, ("-1/3", 2, -3, "4/3"), (3, 2, "4/3", "1/3")),
        ("D", 4, ("-1/3", 2, 3, "4/3"), (3, 2, "4/3", "-1/3")),
    ])
    def test_hand_folds(self, family, rank, coords, chamber):
        system = rootsys.build(family, rank)
        H = RootVec(map(Fraction, coords))
        want = RootVec(map(Fraction, chamber))
        assert orbits.weyl_fold(system, H) == want == _dense_fold(system, H)

    @settings(max_examples=300, deadline=None)
    @given(_classical_points())
    def test_matches_the_dense_fold(self, case):
        system, H = case
        assert orbits.weyl_fold(system, H) == _dense_fold(system, H)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.lists(st.integers(-6, 6), min_size=9, max_size=9),
           st.sampled_from((1, 2, 3)))
    def test_classify_refuses_a_point_outside_the_span_of_a(self, db, rank, num, den):
        # su(p+1)|so(p+1) has restricted system A_p in p + 1 coordinates.
        assume(sum(num[: rank + 1]))
        pair = db.get("su(p+1)|so(p+1)").instantiate(p=rank)
        H = RootVec([Fraction(x, den) for x in num[: rank + 1]])
        assert orbits.weyl_fold(pair.system(), H) == _dense_fold(pair.system(), H)
        message = f"{H!r} is not in the span of the roots of A{rank}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orbits.classify(pair, H)


def _canonical_class_rep(system, spec):
    # Reference for resolve_orbit: positive_roots ascend in sort_key order,
    # so the last root of the class is its maximum.
    for v in reversed(system.positive_roots):
        if root_class(system, v) == spec:
            return v
    raise ValueError(f"no {spec} roots in {system.rstype.label()}")


def _stub_pair(system):
    # What resolve_orbit reads of a pair: its system and its family's key.
    return SimpleNamespace(system=lambda: system, family=SimpleNamespace(key="x|y"))


def _dense_orbit_facts(system, H):
    # Reference: a full-coordinate Fraction dot, an ascending walk, and
    # is_parallel on every positive root not orthogonal to H.
    counts = [0] * len(rootsys.CLASSES[system.rstype.family])
    on_line = []
    for mu in system.positive_roots:
        if rootsys.inner(mu, H) != 0:
            counts[system.class_index(mu)] += 1
            if reference.is_parallel(mu, H):
                on_line.append(mu)
    if not on_line:
        return tuple(counts), None, None, None
    lam = max(on_line, key=rootsys.norm_sq)
    ab = reference.cond_a(system, lam) and orbits.cond_b(system, lam)
    return tuple(counts), lam, system.class_index(lam), ab


class TestOrbitFactsReference:
    def test_matches_dense_pass_at_rank_8(self):
        rng = random.Random(17)
        for system in _systems(8):
            coweights = system.fundamental_coweights()
            points = list(system.positive_roots)
            for _ in range(4):
                coeffs = [rng.randint(1, 3) for _ in coweights]
                regular = sum((c * w for c, w in zip(coeffs, coweights)),
                              RootVec([0] * system.ambient_dim))
                coeffs[rng.randrange(len(coeffs))] = 0
                wall = sum((c * w for c, w in zip(coeffs, coweights)),
                           RootVec([0] * system.ambient_dim))
                points += [regular] + ([wall] if not wall.is_zero() else [])
            for H in points:
                for _ in range(rng.randint(0, 3 * system.rank)):
                    H = rootsys.reflect(H, rng.choice(system.simple_roots))
                H = rootsys.primitive_ray(orbits.weyl_fold(system, H))
                assert orbits._orbit_facts(system, H) == _dense_orbit_facts(system, H), (
                    system, H)

    @pytest.mark.parametrize("rank", [30, 70])
    @pytest.mark.parametrize("family", ["A", "B", "C", "D", "BC"])
    def test_matches_dense_pass_at_high_rank(self, family, rank):
        system = rootsys.build(family, rank)
        points = [system.highest_root]
        for spec in ("short", "middle"):
            try:
                points.append(_canonical_class_rep(system, spec))
            except ValueError:
                pass
        for H in points:
            H = rootsys.primitive_ray(H)
            assert orbits._orbit_facts(system, H) == _dense_orbit_facts(system, H), (
                system, H)


_SYSTEMS_TO_8 = list(_systems(8))


@st.composite
def _chamber_points(draw):
    # (system, H, H2): an integer chamber point H of a system of rank <= 8
    # with a random zero pattern of coweight coefficients, or the fold of a
    # positive root; H2 has the same zero pattern as H.
    system = draw(st.sampled_from(_SYSTEMS_TO_8))
    coweights = system.fundamental_coweights()
    walls = draw(st.lists(st.booleans(), min_size=system.rank, max_size=system.rank))

    def point():
        H = RootVec([0] * system.ambient_dim)
        for wall, w in zip(walls, coweights):
            if not wall:
                H = H + draw(st.integers(min_value=1, max_value=4)) * w
        return rootsys.primitive_ray(H)

    if all(walls) or draw(st.booleans()):
        root = draw(st.sampled_from(system.positive_roots))
        H = rootsys.primitive_ray(orbits.weyl_fold(system, -root))
        return system, H, H
    return system, point(), point()


class TestWallCounts:
    @settings(max_examples=150, deadline=None)
    @given(_chamber_points(), st.booleans())
    def test_matches_the_dense_pass(self, case, cold):
        system, H, H2 = case
        if cold:
            orbits._wall_counts.clear()
        assert orbits._orbit_facts(system, H) == _dense_orbit_facts(system, H)
        counts = _dense_orbit_facts(system, H2)[0]
        assert orbits._orbit_facts(system, H2)[0] == counts == _dense_orbit_facts(system, H)[0]

    def test_a_point_outside_the_chamber(self):
        # -theta, and theta reflected in a simple root it pairs with.
        for system in _SYSTEMS_TO_8:
            theta = system.highest_root
            moved = {rootsys.reflect(theta, alpha) for alpha in system.simple_roots}
            for H in {-theta} | moved - {theta}:
                with pytest.raises(ValueError, match="not in the closed chamber"):
                    orbits._orbit_facts(system, H)

    def test_the_cache_stays_bounded(self):
        # A13 has 2^13 - 1 wall sets of nonzero chamber points: H_i is the
        # number of steps at or after i, and alpha_i is a wall where step i
        # is 0.
        system = rootsys.build("A", 13)
        orbits._wall_counts.clear()
        for pattern in range(1, 2 ** 13):
            steps = [(pattern >> i) & 1 for i in range(13)] + [0]
            H = RootVec([sum(steps[i:]) for i in range(14)])
            orbits._orbit_facts(system, H)
            assert len(orbits._wall_counts) <= orbits._WALL_COUNTS_MAX
        assert len(orbits._wall_counts) == orbits._WALL_COUNTS_MAX
        orbits._wall_counts.clear()


class TestConditionAByConstruction:
    # _orbit_facts never evaluates (a): its lambda is the longest root on
    # the line of H, so 2 lambda, longer and on that line, is no root.

    def test_lambda_satisfies_a_and_ab_is_b(self):
        checked, shorter_fails_a = 0, 0
        for system in _SYSTEMS_TO_8:
            points = [system.highest_root]
            for spec in ("long", "middle", "short"):
                try:
                    points.append(_canonical_class_rep(system, spec))
                except ValueError:
                    pass
            if system.rank <= 3:
                coweights = system.fundamental_coweights()
                for k in range(1, system.rank + 1):
                    for face in itertools.combinations(coweights, k):
                        points.append(sum(face, RootVec([0] * system.ambient_dim)))
            for H in points:
                H = rootsys.primitive_ray(H)
                _, lam, c, ab = orbits._orbit_facts(system, H)
                if lam is None:
                    assert (c, ab) == (None, None), (system, H)
                    continue
                checked += 1
                assert reference.cond_a(system, lam), (system, lam)
                assert ab == (reference.cond_a(system, lam)
                              and orbits.cond_b(system, lam)), (system, lam)
                assert c == system.class_index(lam)
                # In BC, e_1 is on the line of 2e_1 and fails (a).
                half = Fraction(1, 2) * lam
                shorter_fails_a += system.contains(half) and not reference.cond_a(system, half)
        assert checked > 100 and shorter_fails_a > 0


class TestOrbitReport:
    # Each check of OrbitReport.__post_init__ refuses a report that breaks
    # it and passes the other two.

    @pytest.fixture()
    def report_(self, db):
        pair = db.get("g2|so(4)").instantiate()
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "long"))
        assert (rep.degenerate, rep.l, rep.r, rep.nullity, rep.rule) == (
            True, 5, 4, 1, RULE_LONG_ROOT)
        return rep

    def test_nullity_is_l_minus_r_and_not_negative(self, report_):
        with pytest.raises(InvariantViolation, match="inconsistent report"):
            replace(report_, r=report_.l)
        with pytest.raises(InvariantViolation, match="inconsistent report"):
            replace(report_, degenerate=False, r=report_.l + 1, nullity=-1,
                    rule=RULE_NOT_PARALLEL)

    def test_degenerate_exactly_when_nullity_is_positive(self, report_):
        with pytest.raises(InvariantViolation, match="inconsistent report"):
            replace(report_, r=report_.l, nullity=0)
        with pytest.raises(InvariantViolation, match="inconsistent report"):
            replace(report_, degenerate=False, rule=RULE_NOT_PARALLEL)

    def test_degenerate_only_by_the_rule(self, report_):
        for rule in (RULE_SHORT_NON_G2, RULE_NOT_PARALLEL):
            with pytest.raises(InvariantViolation, match=f"degenerate orbit with rule {rule}"):
                replace(report_, rule=rule)


class TestCanonicalClassRep:
    # resolve_orbit reads each class's highest root from the system's table.

    def test_is_the_sort_key_maximum_of_its_class(self):
        systems = list(_systems(8)) + [
            rootsys.build(family, 30) for family in ("A", "B", "C", "D", "BC")
        ]
        for system in systems:
            for spec in ("long", "middle", "short"):
                members = [v for v in system.positive_roots
                           if root_class(system, v) == spec]
                if not members:
                    with pytest.raises(ValueError, match="^x|y: no .* roots in"):
                        orbits.resolve_orbit(_stub_pair(system), spec)
                    continue
                assert orbits.resolve_orbit(_stub_pair(system), spec) == max(
                    members, key=system.sort_key), (system, spec)

    @pytest.mark.parametrize("family", rootsys.FAMILIES)
    def test_matches_the_walk_down_r_plus(self, family):
        fixed = rootsys._FIXED_RANK.get(family)
        lowest = 3 if family == "D" else 1
        for rank in [fixed] if fixed else [*range(lowest, 11), 30, rootsys.MAX_RANK]:
            system = rootsys.build(family, rank)
            pair = _stub_pair(system)
            assert orbits.resolve_orbit(pair, "highest") == system.highest_root
            for spec in ("long", "middle", "short"):
                try:
                    want = _canonical_class_rep(system, spec)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(f'x|y: {exc}')}$"):
                        orbits.resolve_orbit(pair, spec)
                    continue
                assert orbits.resolve_orbit(pair, spec) == want, (system, spec)


class TestParallelRoot:
    # The root on the line of H decides the rule, and its multiplicity is
    # the nullity.

    def test_the_ray_of_a_class_top_gives_its_longest_root(self):
        # Where two classes share a ray the longer keeps it: BC's e_1 and 2e_1.
        bc = rootsys.build("BC", 3)
        assert orbits._orbit_facts(bc, rootvec(1, 0, 0))[1:3] == (rootvec(2, 0, 0), 2)
        systems = _SYSTEMS_TO_8 + [
            rootsys.build(family, 30) for family in ("A", "B", "C", "D", "BC")
        ]
        for system in systems:
            for top in system._class_highest.values():
                ray = rootsys.primitive_ray(top)
                longest = max((v for v in system.positive_roots if reference.is_parallel(v, ray)),
                              key=rootsys.norm_sq)
                _, lam, c, _ = orbits._orbit_facts(system, ray)
                assert (lam, c) == (longest, system.class_index(longest)), (system, top)

    def test_bc_prefers_long(self, db):
        # e_1 and 2e_1 share the line of H; the nullity is m(2e_i) alone
        pair = db.get("sp(2p+n)|sp(p)+sp(p+n)").instantiate(p=2, n=1)
        rep = orbits.classify(pair, rootvec(3, 0))
        assert (rep.H, rep.root_class, rep.rule) == (rootvec(1, 0), "long", RULE_LONG_ROOT)
        assert rep.nullity == reference.multiplicity(pair, rootvec(2, 0)) == 3

    def test_a2_highest(self, db):
        pair = db.get("e6|f4").instantiate()
        system = pair.system()
        total = system.simple_roots[0] + system.simple_roots[1]
        rep = orbits.classify(pair, total)
        assert rep.H == system.highest_root and rep.rule == RULE_LONG_ROOT
        assert rep.nullity == reference.multiplicity(pair, system.highest_root)

    def test_interior_none(self, db):
        pair = db.get("e6|f4").instantiate()
        h1, h2 = pair.system().fundamental_coweights()
        rep = orbits.classify(pair, h1 + 2 * h2)
        assert (rep.rule, rep.root_class, rep.satisfies_ab) == (RULE_NOT_PARALLEL, None, None)


class TestConditions:
    def test_c2_middle_fails_b(self):
        system = rootsys.build("C", 2)
        lam = rootvec(1, 1)
        assert reference.cond_a(system, lam)
        assert not orbits.cond_b(system, lam)

    def test_g2_short_passes_both(self):
        system = rootsys.build("G2")
        for lam in system.positive_roots:
            if root_class(system, lam) == "long":
                continue
            assert reference.cond_a(system, lam)
            assert orbits.cond_b(system, lam)

    def test_highest_root_passes_both(self):
        for family, rank in [("B", 4), ("BC", 3), ("F4", 4), ("E7", 7)]:
            system = rootsys.build(family, rank)
            assert reference.cond_a(system, system.highest_root)
            assert orbits.cond_b(system, system.highest_root)

    def test_a_long_root_passes_without_a_walk(self, monkeypatch):
        # No class length plus a long one is a class length, so no nu can
        # witness, and cond_b answers before pairing lam with any root.
        def refuse(nu, lam):
            raise AssertionError("cond_b walked R+ for a long root")

        monkeypatch.setattr(orbits, "is_orthogonal", refuse)
        for family, rank in [("B", 4), ("C", 3), ("BC", 3), ("F4", 4), ("G2", 2), ("E6", 6)]:
            system = rootsys.build(family, rank)
            assert orbits.cond_b.__wrapped__(system, system.highest_root)

    def test_non_root_rejected(self):
        system = rootsys.build("C", 2)
        with pytest.raises(ValueError, match="is not a root of C2"):
            orbits.cond_b(system, rootvec(1, 2))

    def test_c_type_orthogonal_witnesses(self):
        # the roots orthogonal to e_1+e_2 in C_4, and the witnesses that
        # break condition (b) for it
        system = rootsys.build("C", 4)
        lam = rootvec(1, 1, 0, 0)
        orthogonal = {
            nu for nu in system.positive_roots if rootsys.is_orthogonal(nu, lam)
        }
        assert orthogonal == {
            rootvec(1, -1, 0, 0),
            rootvec(0, 0, 2, 0), rootvec(0, 0, 0, 2),
            rootvec(0, 0, 1, 1), rootvec(0, 0, 1, -1),
        }
        witness = rootvec(1, -1, 0, 0)
        assert system.contains(lam + witness) and system.contains(lam - witness)

    def test_b_type_short_breaks_condition_b(self):
        # adding e_j to the short root e_i lands back in the system
        system = rootsys.build("B", 3)
        assert system.contains(rootvec(1, 0, 0) + rootvec(0, 1, 0))
        assert not orbits.cond_b(system, rootvec(1, 0, 0))

    def test_exactly_g2_short_roots_pass(self):
        # sweep over the multi-length families: only G2 short roots survive
        survivors = []
        systems = [rootsys.build(f, p) for f in ("B", "C", "BC") for p in range(2, 7)]
        systems += [rootsys.build("F4"), rootsys.build("G2")]
        for system in systems:
            for lam in system.positive_roots:
                if root_class(system, lam) == "long":
                    continue
                if reference.cond_a(system, lam) and orbits.cond_b(system, lam):
                    survivors.append((system.rstype.label(), lam))
        g2 = rootsys.build("G2")
        assert survivors == [
            ("G2", lam) for lam in g2.positive_roots if root_class(g2, lam) == "short"
        ]

    def test_one_sided_test_of_b_matches_two_sided(self):
        # For nu orthogonal to lam, lam + nu is a root exactly when lam - nu
        # is; so cond_b, which tests only lam + nu, agrees with the test of
        # both on every root of every family at rank <= 8.
        systems = [
            rootsys.build(f, r)
            for f in ("A", "B", "C", "D", "BC")
            for r in range(3 if f == "D" else 1, 9)
        ]
        systems += [rootsys.build(f) for f in ("E6", "E7", "E8", "F4", "G2")]
        checked = 0
        for system in systems:
            positive = system.positive_roots
            for lam in positive + tuple(-v for v in positive):
                two_sided = True
                for nu in positive:
                    if rootsys.is_orthogonal(nu, lam):
                        checked += 1
                        plus, minus = system.contains(lam + nu), system.contains(lam - nu)
                        assert plus == minus, (system, lam, nu)
                        two_sided = two_sided and not (plus or minus)
                if system.contains_positive(lam):
                    assert orbits.cond_b(system, lam) == two_sided, (system, lam)
        assert checked == 63092


class TestClassify:
    def test_g2_long(self, db):
        pair = db.get("g2|so(4)").instantiate()
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "long"))
        assert (rep.l, rep.r, rep.nullity) == (5, 4, 1)
        assert rep.rule == RULE_LONG_ROOT
        assert rep.degenerate

    def test_g2_short(self, db):
        pair = db.get("g2|so(4)").instantiate()
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "short"))
        assert (rep.l, rep.r, rep.nullity) == (5, 4, 1)
        assert rep.rule == RULE_G2_SHORT_ROOT

    def test_e6_f4(self, db):
        pair = db.get("e6|f4").instantiate()
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "highest"))
        assert (rep.l, rep.r, rep.nullity) == (24, 16, 8)

    def test_sp_bc_long(self, db):
        pair = db.get("sp(2p+n)|sp(p)+sp(p+n)").instantiate(p=2, n=1)
        rep = orbits.classify(pair, rootvec(2, 0))
        assert (rep.l, rep.r, rep.nullity) == (15, 12, 3)

    def test_so_short_not_degenerate(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=3, n=2)
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "short"))
        assert not rep.degenerate
        assert rep.rule == RULE_SHORT_NON_G2
        assert rep.r == rep.l

    def test_interior_not_degenerate(self, db):
        pair = db.get("e6|f4").instantiate()
        system = pair.system()
        h1, h2 = system.fundamental_coweights()
        rep = orbits.classify(pair, h1 + 2 * h2)
        assert rep.rule == RULE_NOT_PARALLEL
        assert rep.nullity == 0

    def test_scale_invariance(self, db):
        pair = db.get("e7|su(8)").instantiate()
        H = pair.system().highest_root
        a = orbits.classify(pair, H)
        b = orbits.classify(pair, Fraction(7, 3) * H)
        assert a == b

    def test_weyl_invariance(self, db):
        rng = random.Random(7)
        for pair in default_pairs(db):
            system = pair.system()
            for H in (system.highest_root, system.positive_roots[0]):
                base = orbits.classify(pair, H)
                image = H
                for _ in range(6):
                    image = rootsys.reflect(image, rng.choice(system.simple_roots))
                assert orbits.classify(pair, image) == base

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_invariant_under_weyl_words_and_rescaling(self, db, data):
        # every family at random p <= 8 and n within 4 of n_min; l against
        # an oracle: all multiplicities minus those of the positives ⊥ H
        fam = data.draw(st.sampled_from(db.families), label="family")
        p = data.draw(st.integers(fam.p_min, 8), label="p") if fam.uses_p else None
        n = data.draw(st.integers(fam.n_min, fam.n_min + 4), label="n") if fam.uses_n else None
        pair = fam.instantiate(p=p, n=n)
        system = pair.system()
        if data.draw(st.booleans(), label="on a root ray"):
            H = data.draw(st.sampled_from(system.positive_roots), label="root")
        else:
            weights = st.fractions(min_value=0, max_value=3, max_denominator=4)
            coeffs = data.draw(st.lists(weights, min_size=system.rank, max_size=system.rank))
            H = sum(
                (c * h for c, h in zip(coeffs, system.fundamental_coweights())),
                RootVec([0] * system.ambient_dim),
            )
            assume(not H.is_zero())
        word = data.draw(st.lists(st.integers(0, system.rank - 1), max_size=12))
        scale = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9), label="scale")
        image = H
        for i in word:
            image = rootsys.reflect(image, system.simple_roots[i])
        base = orbits.classify(pair, H)
        assert orbits.classify(pair, scale * image) == base
        total = sum(reference.multiplicity(pair, mu) for mu in system.positive_roots)
        assert base.l == total - sum(
            reference.multiplicity(pair, mu)
            for mu in system.positive_roots
            if rootsys.is_orthogonal(mu, base.H)
        )

    def test_bc_short_ray_is_long_orbit(self, db):
        pair = db.get("e6|so(10)+r").instantiate()
        rep = orbits.classify(pair, rootvec(1, 0))
        assert rep.rule == RULE_LONG_ROOT
        assert rep.degenerate

    def test_middle_orbit_bc(self, db):
        pair = db.get("su(2p+n)|su(p)+su(p+n)+r").instantiate(p=2, n=1)
        rep = orbits.classify(pair, orbits.resolve_orbit(pair, "middle"))
        assert not rep.degenerate
        assert rep.root_class == "middle"

    def test_resolve_orbit_errors(self, db):
        pair = db.get("e6|f4").instantiate()
        with pytest.raises(ValueError, match="no short"):
            orbits.resolve_orbit(pair, "short")
        with pytest.raises(ValueError, match="unknown orbit"):
            orbits.resolve_orbit(pair, "widest")

    def test_zero_rejected(self, db):
        pair = db.get("e6|f4").instantiate()
        for H in (rootvec(0, 0, 0), rootvec(0, 0)):
            with pytest.raises(ValueError, match="H must be nonzero"):
                orbits.classify(pair, H)

    def test_wrong_dimension_rejected(self, db):
        pair = db.get("e6|f4").instantiate()
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            orbits.classify(pair, rootvec(1, 0))

    def test_a_pair_renders_its_label_once(self, db):
        # PairFamily.instantiate renders the label, so the report path reads
        # no family.key.
        class CountingFamily:
            def __init__(self, family):
                self.family, self.reads = family, 0

            @property
            def key(self):
                self.reads += 1
                return self.family.key

        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=3, n=2)
        counting = CountingFamily(pair.family)
        counted = replace(pair, family=counting)
        points = [orbits.resolve_orbit(pair, spec) for spec in ("long", "short")]
        reports = [orbits.classify(counted, points[i % 2]) for i in range(1000)]
        assert counting.reads == 0
        assert {rep.pair for rep in reports} == {"so(2p+n)|so(p)+so(p+n) [p=3,n=2]"}

    def test_ab_outside_the_rule_is_invariant_violation(self, db, monkeypatch):
        # (a) and (b) are sufficient for degeneracy, so a root that passes
        # both but falls under ShortRootNonG2 means the rule or the
        # conditions are wrong.  B3's short root e_1 fails (b); force it.
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=3, n=1)
        H = orbits.resolve_orbit(pair, "short")
        rep = orbits.classify(pair, H)
        assert (rep.rule, rep.satisfies_ab) == (RULE_SHORT_NON_G2, False)
        monkeypatch.setattr(orbits, "cond_b", lambda system, lam: True)
        with pytest.raises(InvariantViolation,
                           match=r"satisfies \(a\) and \(b\) but was not classified"):
            orbits.classify(pair, H)


class TestPrincipalCurvatures:
    def test_zero_normal(self, db):
        pair = db.get("g2|so(4)").instantiate()
        H = orbits.resolve_orbit(pair, "highest")
        spec = orbits.principal_curvatures(pair, H, 0 * H)
        assert spec == ((0, 5),)

    def test_b2_example(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=3)
        spec = orbits.principal_curvatures(pair, rootvec(1, 1), rootvec(1, -1))
        assert spec == ((Fraction(-1), 3), (Fraction(0), 1), (Fraction(1), 3))
        assert sum(m for _, m in spec) == 7

    def test_kernel_dimension_formula(self, db):
        pair = db.get("sp(2p)|sp(p)+sp(p)").instantiate(p=3)
        system = pair.system()
        H = system.highest_root
        xi = rootvec(0, 1, -1)
        spec = orbits.principal_curvatures(pair, H, xi)
        expected = sum(
            reference.multiplicity(pair, mu)
            for mu in system.positive_roots
            if rootsys.is_orthogonal(mu, xi) and not rootsys.is_orthogonal(mu, H)
        )
        assert sum(m for value, m in spec if value == 0) == expected

    def test_non_normal_xi_rejected(self, db):
        pair = db.get("g2|so(4)").instantiate()
        H = orbits.resolve_orbit(pair, "highest")
        with pytest.raises(ValueError, match="orthogonal"):
            orbits.principal_curvatures(pair, H, H)

    def test_a_vector_of_another_dimension_is_named(self, db):
        pair = db.get("su(p+1)|so(p+1)").instantiate(p=2)
        H = orbits.resolve_orbit(pair, "highest")
        with pytest.raises(ValueError, match=r"^dimension mismatch: xi 2 vs 3$"):
            orbits.principal_curvatures(pair, H, rootvec(1, 1))
        with pytest.raises(ValueError, match=r"^dimension mismatch: H 4 vs 3$"):
            orbits.principal_curvatures(pair, rootvec(1, -1, 1, -1), rootvec(1, -1, 0))

    @pytest.mark.parametrize("key,p,n", [
        ("su(p+1)|so(p+1)", 4, None), ("so(2p+n)|so(p)+so(p+n)", 3, 2),
        ("sp(2p+n)|sp(p)+sp(p+n)", 3, 1), ("so(2p)|so(p)+so(p)", 4, None),
        ("g2|so(4)", None, None), ("f4|su(2)+sp(3)", None, None),
        ("e6|su(2)+su(6)", None, None),
    ])
    def test_spectrum_is_weyl_invariant(self, db, key, p, n):
        pair = db.get(key).instantiate(p=p, n=n)
        system = pair.system()
        simple = system.simple_roots
        rng = random.Random(key)
        H = sum((rng.randint(-3, 3) * a for a in simple[1:]), rng.randint(1, 3) * simple[0])
        xi = rootsys.inner(H, H) * simple[-1] - rootsys.inner(simple[-1], H) * H
        spec = orbits.principal_curvatures(pair, H, xi)
        assert len(spec) > 2  # a nonzero xi, and a spectrum of several values
        for _ in range(20):
            alpha = rng.choice(simple)
            H, xi = rootsys.reflect(H, alpha), rootsys.reflect(xi, alpha)
            assert orbits.principal_curvatures(pair, H, xi) == spec

    def test_kernel_intersection_is_parallel_class(self, db):
        # the common kernel over a basis of the normal flat picks out
        # exactly the roots on the line of H
        keys = ["sp(2p+n)|sp(p)+sp(p+n)", "e6|f4", "so(2p+1)^2|so(2p+1)", "f4|su(2)+sp(3)"]
        for key in keys:
            fam = db.get(key)
            pair = fam.instantiate(p=fam.p_min if fam.uses_p else None,
                                   n=fam.n_min if fam.uses_n else None)
            system = pair.system()
            for H in {system.highest_root, system.positive_roots[0]}:
                pairing = [[rootsys.inner(a, H) for a in system.simple_roots]]
                basis = [
                    system.simple_combination(c)
                    for c in nullspace(pairing)
                ]
                assert len(basis) == system.rank - 1
                tangent = [
                    mu for mu in system.positive_roots
                    if not rootsys.is_orthogonal(mu, H)
                ]
                common = [
                    mu for mu in tangent
                    if all(rootsys.is_orthogonal(mu, xi) for xi in basis)
                ]
                assert set(common) == {
                    mu for mu in system.positive_roots if reference.is_parallel(mu, H)
                }


class TestNullityBound:
    def test_not_parallel_zero(self, db):
        pair = db.get("e6|f4").instantiate()
        h1, h2 = pair.system().fundamental_coweights()
        assert reference.nullity_upper_bound(pair, h1 + 2 * h2) == 0

    def test_bc_counts_both(self, db):
        pair = db.get("sp(2p+n)|sp(p)+sp(p+n)").instantiate(p=2, n=1)
        assert reference.nullity_upper_bound(pair, rootvec(2, 0)) == 3 + 4

    def test_simply_laced_highest(self, db):
        pair = db.get("e8|so(16)").instantiate()
        system = pair.system()
        assert reference.nullity_upper_bound(pair, system.highest_root) == 1

    def test_bound_dominates_nullity_on_root_rays(self, db):
        for pair in default_pairs(db):
            system = pair.system()
            for H in system.positive_roots:
                rep = orbits.classify(pair, H)
                assert rep.nullity <= reference.nullity_upper_bound(pair, rep.H)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=5),
                    min_size=4, max_size=4))
    def test_bound_dominates_on_random_chamber_points(self, db, ts):
        fam = pairdb.load_database().get("f4|su(2)+sp(3)")
        pair = fam.instantiate()
        system = pair.system()
        H = rootvec(0, 0, 0, 0)
        for t, h in zip(ts, system.fundamental_coweights()):
            H = H + t * h
        if H.is_zero():
            return
        rep = orbits.classify(pair, H)
        assert rep.nullity <= reference.nullity_upper_bound(pair, rep.H)


class TestMemo:
    # The sweep's one cache, by (system, spec), holds only what no pair
    # changes, so sharing it across pairs never changes a report.

    A_PAIRS = ("su(p+1)|so(p+1)", "su(p+1)^2|su(p+1)", "su(2p+2)|sp(p+1)")

    def test_shared_across_multiplicities(self, db, monkeypatch):
        walk = []
        for p in (2, 3, 5):
            pairs = [db.get(key).instantiate(p=p) for key in self.A_PAIRS]
            assert [pair.mult_by_class[0][1] for pair in pairs] == [1, 2, 4]
            # both orders, so each pair reads facts another pair stored
            walk += pairs + pairs[::-1]
        profiled = []
        profile = orbits._profile

        def counted(system, H):
            profiled.append(system)
            return profile(system, H)

        monkeypatch.setattr(orbits, "_profile", counted)
        rows = list(orbits.sweep(walk))
        monkeypatch.undo()
        assert [pair for pair, _, _ in rows] == walk
        assert len(profiled) == len(set(profiled)) == 3  # one per system
        for pair, spec, rep in rows:
            assert rep == orbits.classify(pair, orbits.resolve_orbit(pair, spec))

    def test_points_on_the_same_orbit_give_one_report(self, db):
        # A Weyl-moved H0, 2*H0 and -H0 fold onto H0's ray, so classify
        # reports each as it reports H0.  Every H0 here is fixed by -w0, so
        # -H0 lies on its orbit too.
        rng = random.Random(23)
        for fam in db:
            for p in (fam.p_min, fam.p_min + 2) if fam.uses_p else (None,):
                pair = fam.instantiate(p=p, n=fam.n_min if fam.uses_n else None)
                system = pair.system()
                seeds = [system.highest_root, sum(system.fundamental_coweights(),
                                                  RootVec([0] * system.ambient_dim))]
                for spec in ("short", "middle"):
                    try:
                        seeds.append(orbits.resolve_orbit(pair, spec))
                    except ValueError:
                        pass
                for H0 in seeds:
                    expected = orbits.classify(pair, H0)
                    moved = H0
                    for _ in range(rng.randint(1, 3 * system.rank)):
                        moved = rootsys.reflect(moved, rng.choice(system.simple_roots))
                    for H in (H0, moved, 2 * H0, -H0):
                        assert orbits.classify(pair, H) == expected, (pair.family.key, H0, H)

    def test_equality_scan_matches_memo_free_classify(self, db):
        rows = ferus.equality_scan(db, p_range=(2, 4), n_range=(0, 3))
        assert len({(r.pair, r.p, r.n) for r in rows}) > 50
        for row in rows:
            pair = db.get(row.pair).instantiate(p=row.p, n=row.n)
            rep = orbits.classify(pair, orbits.resolve_orbit(pair, row.orbit))
            assert (row.degenerate, row.l, row.r) == (rep.degenerate, rep.l, rep.r), row

    def test_table1_instances_match_memo_free_classify(self, db):
        instances = report.table1_instances(db, (2, 4), (0, 3))
        pairs = [
            pair for family in db
            for pair in family.instantiations(p_range=(2, 4), n_range=(0, 3))
        ]
        assert len(instances) == len(pairs)
        for inst, pair in zip(instances, pairs):
            rep = orbits.classify(pair, orbits.resolve_orbit(pair, "highest"))
            assert (inst.p, inst.n) == (pair.p, pair.n)
            assert (inst.l, inst.r, inst.degeneracy) == (rep.l, rep.r, rep.nullity)

    def test_a_scan_runs_the_root_pass_once_per_orbit(self, db, monkeypatch):
        # The sweep's one cache, under table1 over a grid: a (system, folded
        # ray) that many pairs and every n share costs one _orbit_facts call.
        calls = []
        orbit_facts = orbits._orbit_facts

        def counted(system, H):
            calls.append((system, H))
            return orbit_facts(system, H)

        monkeypatch.setattr(orbits, "_orbit_facts", counted)
        grid = (2, 6), (0, 4)
        rows = report.table1_instances(db, *grid)
        keys = set()
        for pair in db.instantiations(*grid):
            system = pair.system()
            H = orbits.weyl_fold(system, orbits.resolve_orbit(pair, "highest"))
            keys.add((system, rootsys.primitive_ray(H)))
        assert len(rows) > len(keys)
        assert len(calls) == len(set(calls)) == len(keys)
        assert set(calls) == keys

    def test_a_scan_resolves_and_folds_once_per_system_and_spec(self, db, monkeypatch):
        # Under table1 over a grid, a later row of a (system, spec) reads the
        # sweep's cache: it neither resolves nor folds again.
        resolved, folded = [], []
        resolve_orbit, weyl_fold = orbits.resolve_orbit, orbits.weyl_fold

        def counted_resolve(pair, spec):
            resolved.append((pair.system(), spec))
            return resolve_orbit(pair, spec)

        def counted_fold(system, H):
            folded.append(system)
            return weyl_fold(system, H)

        monkeypatch.setattr(orbits, "resolve_orbit", counted_resolve)
        monkeypatch.setattr(orbits, "weyl_fold", counted_fold)
        grid = (2, 6), (0, 4)
        rows = report.table1_instances(db, *grid)
        keys = {(pair.system(), "highest") for pair in db.instantiations(*grid)}
        assert len(rows) > 2 * len(keys)
        assert len(resolved) == len(set(resolved)) == len(keys)
        assert set(resolved) == keys
        assert len(folded) == len(keys)
