import dataclasses
import functools
import itertools
import operator
from fractions import Fraction

import pytest

from gaussorbits import cayley, orbits, pairdb, rootsys
from gaussorbits.rootsys import InvariantViolation
from reference import rootvec

AMBIENTS = ("G2", "F4", "E6", "E7", "E8")
# The pairs.dat record of the quaternionic pair g | su(2)+k of each ambient g.
QUATERNIONIC = {
    "G2": "g2|so(4)",
    "F4": "f4|su(2)+sp(3)",
    "E6": "e6|su(2)+su(6)",
    "E7": "e7|su(2)+so(12)",
    "E8": "e8|su(2)+e7",
}


def combos(system, coeff_lists):
    return {system.simple_combination(c) for c in coeff_lists}


@pytest.fixture(scope="module")
def data():
    return {
        name: cayley.restricted_from_projection(rootsys.build(name))
        for name in AMBIENTS
    }


class TestMRoots:
    def test_f4_count(self):
        assert len(cayley.m_roots(rootsys.build("F4"))) == 14

    def test_a2_simple_roots(self):
        a2 = rootsys.build("A", 2)
        assert set(cayley.m_roots(a2)) == set(a2.simple_roots)

    def test_a1_empty(self):
        assert cayley.m_roots(rootsys.build("A", 1)) == ()

    def test_counts_match_known_isotropy_dimensions(self):
        # 2 * |m_roots| is the dimension of the -1 eigenspace
        expected = {"G2": 8, "F4": 28, "E6": 40, "E7": 64, "E8": 112}
        for name in AMBIENTS:
            mp = cayley.m_roots(rootsys.build(name))
            assert 2 * len(mp) == expected[name]
            assert len(mp) % 2 == 0


class TestStronglyOrthogonal:
    def test_single_root(self):
        b2 = rootsys.build("B", 2)
        assert cayley.strongly_orthogonal([b2.highest_root], b2) == (b2.highest_root,)

    def test_counts(self, data):
        for name, want in [("G2", 2), ("F4", 4), ("E6", 4), ("E7", 4), ("E8", 4)]:
            assert len(data[name].gammas) == want

    def test_pairwise_strong_orthogonality(self, data):
        for name in AMBIENTS:
            datum = data[name]
            system = datum.ambient
            for i, a in enumerate(datum.gammas):
                for b in datum.gammas[i + 1:]:
                    assert not system.contains(a + b)
                    assert not system.contains(a - b)

    def test_gammas_come_from_m_plus(self, data):
        for name in AMBIENTS:
            datum = data[name]
            assert set(datum.gammas) <= set(datum.m_plus)

    def test_gamma_lengths(self, data):
        for name in AMBIENTS:
            norms = {rootsys.norm_sq(g) for g in data[name].gammas}
            if name == "G2":
                assert len(norms) == 2
            else:
                assert len(norms) == 1

    def test_maximal_abelian(self, data):
        for name in AMBIENTS:
            assert cayley.maximal_abelian_ok(data[name])

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_a_dropped_gamma_is_not_maximal(self, data, name):
        # The dropped gamma is in m_plus and strongly orthogonal to the rest.
        datum = dataclasses.replace(data[name], gammas=data[name].gammas[:-1])
        assert not cayley.maximal_abelian_ok(datum)

    def test_rejects_non_positive_input(self):
        b2 = rootsys.build("B", 2)
        with pytest.raises(ValueError):
            cayley.strongly_orthogonal([rootvec(-1, 0)], b2)


class TestProject:
    def test_gamma_maps_to_basis(self, data):
        datum = data["F4"]
        for gamma in datum.gammas:
            assert cayley.project(gamma, datum.gammas) == gamma

    def test_delta_has_half_coefficients(self, data):
        for name in ("F4", "E6", "E7", "E8"):
            datum = data[name]
            half_sum = Fraction(1, 2) * functools.reduce(operator.add, datum.gammas)
            assert cayley.project(datum.ambient.highest_root, datum.gammas) == half_sum

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_residual_is_orthogonal_to_every_gamma(self, data, name):
        datum = data[name]
        for beta in datum.ambient.positive_roots:
            for alpha in (beta, -beta):
                residual = alpha - cayley.project(alpha, datum.gammas)
                assert all(rootsys.is_orthogonal(residual, g) for g in datum.gammas)

    def test_orthogonal_root_projects_to_zero(self):
        e7 = rootsys.build("E7")
        datum = cayley.restricted_from_projection(e7)
        zeros = [
            alpha
            for alpha in e7.positive_roots
            if cayley.project(alpha, datum.gammas).is_zero()
        ]
        assert zeros
        for alpha in zeros:
            assert all(rootsys.is_orthogonal(alpha, g) for g in datum.gammas)

    def test_contraction(self, data):
        for name in AMBIENTS:
            assert cayley.projection_contracts(data[name])

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_a_value_longer_than_its_preimage_does_not_contract(self, data, name):
        # No projection lengthens a root: gamma as the preimage of 2 gamma
        # fails, and so does -gamma as the preimage of gamma, which keeps the
        # length without being the value itself.
        datum = data[name]
        gamma = datum.gammas[0]
        for value, alpha in ((2 * gamma, gamma), (gamma, -gamma)):
            edited = dataclasses.replace(datum, preimages={value: frozenset({alpha})})
            assert not cayley.projection_contracts(edited), (value, alpha)


class TestProjectedSystem:
    def test_types(self, data):
        for name, want in [("G2", "G2"), ("F4", "F4"), ("E6", "F4"), ("E7", "F4"), ("E8", "F4")]:
            assert data[name].projected_type.label() == want

    def test_multiplicities_by_class(self, data):
        expected = {
            "G2": {"long": 1, "short": 1},
            "F4": {"long": 1, "short": 1},
            "E6": {"long": 1, "short": 2},
            "E7": {"long": 1, "short": 4},
            "E8": {"long": 1, "short": 8},
        }
        for name in AMBIENTS:
            datum = data[name]
            seen = {}
            for value, pre in datum.preimages.items():
                cls = datum.projected_class(value)
                assert seen.setdefault(cls, len(pre)) == len(pre)
            assert seen == expected[name]

    def test_multiplicity_is_preimage_size_and_symmetric(self, data):
        for name in AMBIENTS:
            datum = data[name]
            for value, pre in datum.preimages.items():
                assert all(cayley.project(a, datum.gammas) == value for a in pre)
                assert datum.preimages[-value] == {-a for a in pre}

    def test_orbit_dimensions_match_pair_database(self, data):
        db = pairdb.load_database()
        want_l = {"G2": 5, "F4": 15, "E6": 21, "E7": 33, "E8": 57}
        for name in AMBIENTS:
            datum = data[name]
            key = datum.ambient.sort_key
            d = cayley.project(datum.ambient.highest_root, datum.gammas)
            l = sum(
                len(pre)
                for v, pre in datum.preimages.items()
                if key(v) > key(-v) and not rootsys.is_orthogonal(v, d)
            )
            assert l == want_l[name]
            pair = db.get(QUATERNIONIC[name]).instantiate()
            system = pair.system()
            assert orbits.classify(pair, system.highest_root).l == l

    def test_total_projected_count(self, data):
        for name in AMBIENTS:
            datum = data[name]
            nonzero_projectors = [
                alpha
                for v in (datum.ambient.positive_roots +
                          tuple(-v for v in datum.ambient.positive_roots))
                for alpha in [v]
                if not cayley.project(alpha, datum.gammas).is_zero()
            ]
            assert sum(map(len, datum.preimages.values())) == len(nonzero_projectors)
            zeros = 2 * len(datum.ambient.positive_roots) - len(nonzero_projectors)
            assert zeros >= 0 and zeros % 2 == 0

    def test_preimage_unknown_value_rejected(self, data):
        with pytest.raises(ValueError):
            data["F4"].preimage(9 * data["F4"].gammas[0])


class TestSumToDelta:
    @pytest.mark.parametrize("name", AMBIENTS)
    def test_exhaustive(self, data, name):
        assert cayley.sum_lands_on_delta(data[name])

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_adjacent_simple_roots_sum_below_delta(self, data, name):
        # Two simple roots joined in the Dynkin diagram sum to a positive
        # root, and at rank >= 2 that root is not the highest one.
        system = data[name].ambient
        a, b = next(
            (a, b) for a, b in itertools.combinations(system.simple_roots, 2)
            if rootsys.inner(a, b) < 0
        )
        assert system.contains_positive(a + b) and a + b != system.highest_root
        assert not cayley.sum_lands_on_delta(dataclasses.replace(data[name], m_plus=(a, b)))


E6_LAM = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
E6_NU = [(0, 0, 1, 1, 1, 1), (1, 0, 1, 1, 1, 0)]

E7_LAM = [
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 1, 0, 0),
]
E7_NU = [
    (0, 0, 1, 1, 0, 0, 0),
    (0, 0, 1, 1, 1, 0, 0),
    (0, 1, 1, 1, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 0),
]

E8_LAM = [
    (1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 2, 1, 0, 0, 0),
    (1, 1, 2, 2, 1, 0, 0, 0),
]
E8_NU = [
    (1, 1, 1, 2, 2, 2, 1, 0),
    (1, 1, 2, 2, 2, 2, 1, 0),
    (1, 1, 2, 3, 2, 2, 1, 0),
    (1, 2, 2, 3, 2, 2, 1, 0),
    (1, 1, 2, 3, 3, 2, 1, 0),
    (1, 2, 2, 3, 3, 2, 1, 0),
    (1, 2, 2, 4, 3, 2, 1, 0),
    (1, 2, 3, 4, 3, 2, 1, 0),
]


class TestPreimages:
    @pytest.mark.parametrize(
        "name,lam_set,nu_set",
        [("E6", E6_LAM, E6_NU), ("E7", E7_LAM, E7_NU), ("E8", E8_LAM, E8_NU)],
    )
    def test_exact_sets(self, data, name, lam_set, nu_set):
        datum = data[name]
        system = datum.ambient
        lam = cayley.project(system.simple_combination(lam_set[0]), datum.gammas)
        nu = cayley.project(system.simple_combination(nu_set[0]), datum.gammas)
        assert datum.preimage(lam) == combos(system, lam_set)
        assert datum.preimage(nu) == combos(system, nu_set)
        assert rootsys.is_orthogonal(lam, nu)
        short = [
            v for v in datum.preimages if datum.projected_class(v) == "short"
        ]
        assert lam in short and nu in short


class TestRootsetIdentities:
    def test_e6_step(self, data):
        datum = data["E6"]
        system = datum.ambient
        report = cayley.rootset_identities(
            system,
            combos(system, E6_NU),
            combos(system, E6_LAM),
            bases=[system.simple_combination(E6_NU[0])],
        )
        assert report.ok
        (step,) = report.steps
        assert step.plus_witnesses == combos(system, [(1, 0, 0, 0, 0, 0)])
        assert step.minus_witnesses == combos(system, [(0, 0, 0, 0, 0, 1)])

    def test_e7_steps(self, data):
        datum = data["E7"]
        system = datum.ambient
        bases = [system.simple_combination(c) for c in E7_NU[:2]]
        report = cayley.rootset_identities(
            system, combos(system, E7_NU), combos(system, E7_LAM), bases=bases
        )
        assert report.ok
        s1, s2 = report.steps
        assert s1.minus_witnesses == combos(system, [(0, 0, 0, 1, 0, 0, 0)])
        assert s1.plus_witnesses == combos(system, [(0, 1, 0, 1, 1, 0, 0)])
        assert s2.minus_witnesses == combos(system, [(0, 0, 0, 1, 1, 0, 0)])
        assert s2.plus_witnesses == combos(system, [(0, 1, 0, 1, 0, 0, 0)])

    def test_e8_steps(self, data):
        datum = data["E8"]
        system = datum.ambient
        bases = [system.simple_combination(c) for c in E8_NU[:4]]
        report = cayley.rootset_identities(
            system, combos(system, E8_NU), combos(system, E8_LAM), bases=bases
        )
        assert report.ok
        witnesses = [
            ((1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 2, 2, 1, 0, 0, 0)),
            ((1, 0, 1, 0, 0, 0, 0, 0), (1, 1, 1, 2, 1, 0, 0, 0)),
            ((1, 0, 1, 1, 0, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0, 0)),
            ((1, 1, 1, 1, 0, 0, 0, 0), (1, 0, 1, 1, 1, 0, 0, 0)),
        ]
        for step, (minus, plus) in zip(report.steps, witnesses):
            assert step.minus_witnesses == combos(system, [minus])
            assert step.plus_witnesses == combos(system, [plus])

    def test_auto_order_also_succeeds(self, data):
        for name in ("E6", "E7", "E8"):
            datum = data[name]
            system = datum.ambient
            lam_set, nu_set = {
                "E6": (E6_LAM, E6_NU), "E7": (E7_LAM, E7_NU), "E8": (E8_LAM, E8_NU)
            }[name]
            report = cayley.rootset_identities(
                system, combos(system, nu_set), combos(system, lam_set)
            )
            assert report.ok

    def test_bad_bases_rejected(self, data):
        system = data["E6"].ambient
        with pytest.raises(ValueError):
            cayley.rootset_identities(
                system,
                combos(system, E6_NU),
                combos(system, E6_LAM),
                bases=[system.highest_root],
            )

    def test_mismatch_detected(self, data):
        # pairing the nu-preimage against itself cannot eliminate cleanly
        system = data["E6"].ambient
        report = cayley.rootset_identities(
            system, combos(system, E6_NU), combos(system, E6_NU)
        )
        assert not report.ok


class TestVerifyAppendix:
    @pytest.mark.parametrize("name", AMBIENTS)
    def test_all_green(self, name):
        verdict = cayley.verify_appendix(rootsys.build(name))
        assert verdict.ok
        if name in ("E6", "E7", "E8"):
            mult = dict(verdict.multiplicities)
            assert verdict.preimage_cardinalities == (mult["short"], mult["short"])

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_projection_agrees_with_pairs_dat(self, name):
        # The restricted type and multiplicities, derived from the complex
        # root system alone, check the pair's record independently.
        verdict = cayley.verify_appendix(rootsys.build(name))
        pair = pairdb.load_database().get(QUATERNIONIC[name]).instantiate()
        assert verdict.projected_type == pair.rstype.label()
        assert dict(verdict.multiplicities) == dict(pair.mult_by_class)

    def test_a_type_is_told_by_its_cartan_matrix(self):
        # B3 and C3 both have rank 3 and 9 positive roots; only the Cartan
        # matrix of the simple roots tells C3's roots from B3's.
        c3 = rootsys.build("C", 3)
        values = set(c3.positive_roots) | {-v for v in c3.positive_roots}
        assert cayley._identify_type(values, c3) == rootsys.RootSystemType("C", 3)

    def test_projection_needs_m_roots(self):
        with pytest.raises(InvariantViolation):
            # the positives (1,-1) and (3,-3) are both simple: rank 2 with two
            # positive roots, which no irreducible system has
            values = {rootvec(1, -1), rootvec(-1, 1), rootvec(3, -3), rootvec(-3, 3)}
            cayley._identify_type(values, rootsys.build("A", 1))


class TestProjectionAxioms:
    # A bad gamma set makes the projected values fail the root-system
    # axioms; each A2 set below fails exactly one of the two checks.

    @staticmethod
    def _project_with(monkeypatch, gammas):
        monkeypatch.setattr(cayley, "strongly_orthogonal", lambda Q, system: gammas)
        return cayley.restricted_from_projection(rootsys.build("A", 2))

    def test_not_crystallographic(self, monkeypatch):
        # the simple roots are not orthogonal, so the projected pairings
        # come out as -13/7 and the like
        gammas = rootsys.build("A", 2).simple_roots
        with pytest.raises(
            InvariantViolation,
            match=r"^projected set of A2 is not crystallographic: pairing of .* is -?\d+/\d+$",
        ):
            self._project_with(monkeypatch, gammas)

    def test_not_closed(self, monkeypatch):
        # rescaled fundamental coweights at 60 degrees: the values
        # +-g1/2, +-g2/2, +-(g1+g2)/2 pair integrally, but
        # s_(g2/2)(g1/2) = (g1-g2)/2 is missing
        gammas = (rootvec(2, -1, -1), rootvec(1, 1, -2))
        with pytest.raises(
            InvariantViolation,
            match=r"^projected set of A2 is not closed under reflection: s_.* missing$",
        ):
            self._project_with(monkeypatch, gammas)
