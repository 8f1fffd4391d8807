"""Acceptance criteria for the package, one test per criterion.

Every comparison is exact (integers and rationals); each criterion also
carries a wall-clock budget which is asserted.  Run with `-v -s` to see
one PASS line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

import reference
from gaussorbits import cayley, ferus, orbits, pairdb, report, rootsys

BUDGETS = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 5.0, 6: 2.0, 7: 5.0}


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


class _Timer:
    def __init__(self, criterion, label):
        self.criterion = criterion
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        budget = BUDGETS[self.criterion]
        if exc_type is None:
            status = "PASS" if elapsed < budget else "FAIL (over budget)"
            print(
                f"ACCEPTANCE {self.criterion} {self.label}: {status} "
                f"({elapsed * 1000:.0f} ms, budget {budget:.0f} s)"
            )
            assert elapsed < budget, f"criterion {self.criterion} exceeded {budget}s"
        else:
            print(f"ACCEPTANCE {self.criterion} {self.label}: FAIL")
        return False


def test_c1_table1_reproduction(db):
    with _Timer(1, "table1 reproduction"):
        problems = report.check_table1(db, p_range=(2, 6), n_range=(1, 4))
        assert problems == []
        # the grid really instantiates every parameterized family
        count = sum(
            1
            for fam in db
            for _ in fam.instantiations(p_range=(2, 6), n_range=(1, 4))
        )
        assert count == 10 * 5 + 2 * 4 + 3 * 5 * 4 + 16


def test_c2_conditions_select_exactly_g2_short(db):
    with _Timer(2, "conditions (a)+(b) oracle"):
        survivors = []
        systems = [
            rootsys.build(family, p)
            for family in ("B", "C", "BC")
            for p in range(2, 7)
        ] + [rootsys.build("F4"), rootsys.build("G2")]
        for system in systems:
            for lam in system.positive_roots:
                if reference.root_class(system, lam) == "long":
                    continue
                if reference.cond_a(system, lam) and orbits.cond_b(system, lam):
                    survivors.append((system.rstype.label(), lam))
        g2 = rootsys.build("G2")
        assert survivors == [
            ("G2", lam) for lam in g2.positive_roots if reference.root_class(g2, lam) == "short"
        ]
        assert len(survivors) == 3


def test_c3_wolf_suite():
    with _Timer(3, "Wolf ratio and string cases"):
        types = (
            [("A", p) for p in range(1, 9)]
            + [("B", p) for p in range(1, 9)]
            + [("C", p) for p in range(1, 9)]
            + [("D", p) for p in range(3, 9)]
            + [("BC", p) for p in range(1, 9)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
        )
        checked = 0
        for family, rank in types:
            system = rootsys.build(family, rank)
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
                depth = reference.delta_string_depth(system, lam)
                assert depth in (0, -1, -2)
                assert (depth == -2) == (lam == delta)
                checked += 1
        assert checked == sum(
            len(rootsys.build(f, r).positive_roots) for f, r in types
        )


def test_c4_ferus_suite():
    with _Timer(4, "Ferus number suite"):
        values = [ferus.ferus(l).F for l in range(1, 513)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for q in range(0, 10):
            assert values[2**q - 1] == 2**q
        for q in range(1, 10):
            assert ferus.ferus_identity_check(q)

        # independent ascending-scan oracle with its own Adams evaluation
        def adams_oracle(k):
            t = 0
            while k % 2 == 0:
                k //= 2
                t += 1
            return 2 ** (t % 4) + 8 * (t // 4) - 1

        def oracle(l):
            return min(k for k in range(1, l + 1) if adams_oracle(k) + k >= l)

        assert values[5 - 1] == 4
        assert values[10 - 1] == 8
        assert values[24 - 1] == oracle(24) == 16
        assert values[57 - 1] == oracle(57) == 56


def test_c5_ferus_equality_list(db):
    from test_ferus import EQUALITY_WITNESSES

    with _Timer(5, "Ferus equality list"):
        rows = ferus.equality_scan(db)
        indexed = {(r.pair, r.p, r.n, r.orbit): r for r in rows}
        for key, p, n, orbit in EQUALITY_WITNESSES:
            assert indexed[(key, p, n, orbit)].equality, (key, p, n, orbit)
        non_degenerate = [r for r in rows if not r.degenerate]
        assert non_degenerate
        assert all(not r.equality for r in non_degenerate)


def test_c6_appendix_suite():
    from test_cayley import E6_LAM, E6_NU, E7_LAM, E7_NU, E8_LAM, E8_NU

    with _Timer(6, "appendix projection suite"):
        expected_cards = {"E6": (2, 2), "E7": (4, 4), "E8": (8, 8)}
        for name in ("F4", "E6", "E7", "E8", "G2"):
            system = rootsys.build(name)
            verdict = cayley.verify_appendix(system)
            assert verdict.ok, verdict
            assert len(verdict.gammas) == (2 if name == "G2" else 4)
            assert verdict.projected_type == ("G2" if name == "G2" else "F4")
            assert verdict.sum_to_delta_ok
            if name in expected_cards:
                assert verdict.preimage_cardinalities == expected_cards[name]
        # exact preimage sets and identity witnesses at the named roots
        for name, lam_set, nu_set in (
            ("E6", E6_LAM, E6_NU),
            ("E7", E7_LAM, E7_NU),
            ("E8", E8_LAM, E8_NU),
        ):
            system = rootsys.build(name)
            datum = cayley.restricted_from_projection(system)
            lam = cayley.project(system.simple_combination(lam_set[0]), datum.gammas)
            nu = cayley.project(system.simple_combination(nu_set[0]), datum.gammas)
            assert datum.preimage(lam) == {
                system.simple_combination(c) for c in lam_set
            }
            assert datum.preimage(nu) == {
                system.simple_combination(c) for c in nu_set
            }
            steps = len(nu_set) // 4 * 2 if name != "E6" else 1
            bases = [system.simple_combination(c) for c in nu_set[: max(steps, 1)]]
            rep = cayley.rootset_identities(
                system, datum.preimage(nu), datum.preimage(lam), bases=bases
            )
            assert rep.ok


def test_c7_nullity_bound_and_weyl_invariance(db):
    with _Timer(7, "nullity bound + Weyl invariance"):
        rng = random.Random(2024)
        pairs = [
            fam.instantiate(
                p=fam.p_min if fam.uses_p else None,
                n=fam.n_min if fam.uses_n else None,
            )
            for fam in db
        ]
        random_budget = 1000
        per_pair = -(-random_budget // len(pairs))
        checked_random = 0
        for pair in pairs:
            system = pair.system()
            coweights = system.fundamental_coweights()
            points = []
            for _ in range(per_pair):
                coeffs = [
                    Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in coweights
                ]
                if not any(coeffs):
                    coeffs[0] = Fraction(1)
                H = coweights[0] * coeffs[0]
                for c, w in zip(coeffs[1:], coweights[1:]):
                    H = H + c * w
                points.append(H)
            checked_random += len(points)
            points.extend(system.positive_roots)
            for i, H in enumerate(points):
                rep = orbits.classify(pair, H)
                assert rep.nullity <= reference.nullity_upper_bound(pair, rep.H)
                if i % 7 == 0:
                    image = H
                    for _ in range(5):
                        image = rootsys.reflect(
                            image, rng.choice(system.simple_roots)
                        )
                    assert orbits.classify(pair, image) == rep
        assert checked_random >= 1000
