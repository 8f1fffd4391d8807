import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from gaussorbits import ferus, orbits, pairdb, rootsys

# Independent oracle: 2-adic valuation by repeated division, then the
# closed form, then a full ascending scan for the minimum.

def adams_oracle(k):
    t = 0
    while k % 2 == 0:
        k //= 2
        t += 1
    return 2 ** (t % 4) + 8 * (t // 4) - 1


def ferus_oracle(l):
    return min(k for k in range(1, l + 1) if adams_oracle(k) + k >= l)


# Radon-Hurwitz values minus one, frozen from the oracle.
ADAMS_SMALL = [0, 1, 0, 3, 0, 1, 0, 7, 0, 1, 0, 3, 0, 1, 0, 8]


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


class TestAdams:
    def test_small_table(self):
        assert [ferus.adams(k) for k in range(1, 17)] == ADAMS_SMALL

    def test_examples(self):
        assert ferus.adams(1) == 0
        assert ferus.adams(16) == 8
        assert ferus.adams(56) == 7

    @given(st.integers(min_value=1, max_value=100000))
    def test_matches_oracle(self, k):
        assert ferus.adams(k) == adams_oracle(k)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=10))
    def test_odd_part_is_invisible(self, s, t):
        # A((2s+1) * 2^t) only depends on t
        assert ferus.adams((2 * s + 1) * 2**t) == ferus.adams(2**t)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ferus.adams(0)


class TestFerus:
    def test_published_values(self):
        assert ferus.ferus(5).F == 4
        assert ferus.ferus(10).F == 8
        assert ferus.ferus(24).F == 16
        assert ferus.ferus(57).F == 56

    def test_oracle_agrees_on_published_values(self):
        for l, want in [(5, 4), (10, 8), (24, 16), (57, 56)]:
            assert ferus_oracle(l) == want

    def test_certificate_shape(self):
        cert = ferus.ferus(57)
        assert cert.witness_k == cert.F == 56
        assert ferus.adams(cert.witness_k) + cert.witness_k >= 57
        assert all(
            ferus.adams(k) + k < 57 for k in range(1, cert.minimality_checked_up_to + 1)
        )

    def test_inconsistent_certificate_is_refused(self):
        # FerusCertificate is public, so a caller can build one by hand.
        cert = ferus.ferus(57)
        for fields in ({"F": 57}, {"witness_k": 57}, {"minimality_checked_up_to": 56}):
            with pytest.raises(ValueError, match="inconsistent certificate"):
                replace(cert, **fields)

    def test_oracle_agreement_range(self):
        for l in range(1, 200):
            assert ferus.ferus(l).F == ferus_oracle(l)
        # the same plain ascending scan up to 5000: F is non-decreasing in
        # l, so one scan from k = 1 serves every l
        k = 1
        for l in range(1, 5001):
            while adams_oracle(k) + k < l:
                k += 1
            assert ferus.ferus(l).F == k

    def test_monotone_and_bounded(self):
        values = [ferus.ferus(l).F for l in range(1, 514)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(f <= l for l, f in enumerate(values, start=1))

    def test_powers_of_two(self):
        for q in range(0, 10):
            assert ferus.ferus(2**q).F == 2**q

    def test_range_identity(self):
        for q in range(1, 10):
            assert ferus.ferus_identity_check(q)

    def test_range_identity_is_sharp_when_next_value_moves(self):
        # just past the guaranteed window, F exceeds 2^q for small q
        for q in (1, 2, 3):
            c, d = q % 4, q // 4
            bound = 2**c + 8 * d - 1
            assert ferus.ferus(2**q + bound + 1).F > 2**q

    def test_large_l_next_to_a_power_of_two(self):
        # A(2^40) = 2^0 + 8*10 - 1 = 80
        assert ferus.ferus(2**40 + 80).F == 2**40
        assert ferus.ferus(2**40 + 81).F > 2**40

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ferus.ferus(0)
        with pytest.raises(ValueError):
            ferus.ferus_identity_check(0)


# One witness per family in the published Ferus-equality list, chosen as
# the smallest in-grid instantiation meeting that family's constraint.
EQUALITY_WITNESSES = [
    ("su(p+1)|so(p+1)", 2, None, "long"),
    ("su(p+1)^2|su(p+1)", 2, None, "long"),
    ("su(2p+2)|sp(p+1)", 2, None, "long"),
    ("e6|f4", None, None, "long"),
    ("so(2p+n)|so(p)+so(p+n)", 2, 1, "long"),
    ("sp(p)|u(p)", 2, None, "long"),
    ("sp(p)^2|sp(p)", 2, None, "long"),
    ("sp(2p)|sp(p)+sp(p)", 2, None, "long"),
    ("su(2p)|su(p)+su(p)+r", 2, None, "long"),
    ("so(4p)|u(2p)", 2, None, "long"),
    ("e7|e6+r", None, None, "long"),
    ("so(2p)|so(p)+so(p)", 3, None, "long"),
    ("so(2p)^2|so(2p)", 3, None, "long"),
    ("e6^2|e6", None, None, "long"),
    ("e7|su(8)", None, None, "long"),
    ("e7^2|e7", None, None, "long"),
    ("e8|so(16)", None, None, "long"),
    ("e8^2|e8", None, None, "long"),
    ("e7|su(2)+so(12)", None, None, "long"),
    ("e8|su(2)+e7", None, None, "long"),
    ("su(2p+n)|su(p)+su(p+n)+r", 2, 2, "long"),
    ("sp(2p+n)|sp(p)+sp(p+n)", 2, 2, "long"),
    ("g2|so(4)", None, None, "long"),
    ("g2|so(4)", None, None, "short"),
    ("g2^2|g2", None, None, "long"),
    ("g2^2|g2", None, None, "short"),
]


@pytest.fixture(scope="module")
def rows(db):
    return ferus.equality_scan(db)


class TestEqualityScan:

    def test_listed_families_hit(self, rows):
        indexed = {(r.pair, r.p, r.n, r.orbit): r for r in rows}
        for key, p, n, orbit in EQUALITY_WITNESSES:
            row = indexed[(key, p, n, orbit)]
            assert row.equality, (key, p, n, orbit, row)

    def test_non_degenerate_rows_never_flagged(self, rows):
        assert all(not r.equality for r in rows if not r.degenerate)
        assert any(not r.degenerate for r in rows)

    def test_known_non_equalities(self, rows):
        indexed = {(r.pair, r.p, r.n, r.orbit): r for r in rows}
        assert not indexed[("f4|su(2)+sp(3)", None, None, "long")].equality
        assert not indexed[("e6|sp(4)", None, None, "long")].equality
        assert not indexed[("e6|su(2)+su(6)", None, None, "long")].equality
        # F(8p-3) <= 8p-8 < r for every p, so this family never reaches equality
        assert not any(
            r.equality for r in rows if r.pair == "so(4p+2)|u(2p+1)"
        )

    def test_equality_rows_are_consistent(self, rows):
        for r in rows:
            if r.equality:
                assert r.degenerate
                assert ferus_oracle(r.l) == r.r

    def test_g2_rows(self, rows):
        g2 = [r for r in rows if r.pair == "g2|so(4)"]
        assert {(r.orbit, r.l, r.r, r.equality) for r in g2} == {
            ("long", 5, 4, True),
            ("short", 5, 4, True),
        }

    def test_scan_keys_are_the_classes_that_own_a_ray(self):
        # The scan sweeps the highest root of each class that keeps its ray
        # in the system's table, longest first; BC's e_i loses its ray to 2e_i.
        assert list(rootsys.HIGHEST_COUNTS) == list(rootsys.CLASSES)
        for family, rows in rootsys.HIGHEST_COUNTS.items():
            fixed = rootsys._FIXED_RANK.get(family)
            for rank in [fixed] if fixed else [3, 8, rootsys.MAX_RANK]:
                system = rootsys.build(family, rank)
                owners = {system._class_labels[c] for _, c in system._ray_highest.values()}
                assert set(rows) == owners, (family, rank)
            assert list(rows) == sorted(rows, key=("long", "middle", "short").index), family

    def test_matches_the_sweep_on_the_wide_grid(self, db):
        # The classified check of the scan: the same (pair, spec) points
        # through orbits.sweep, which builds, folds, classifies and checks
        # (a)/(b), row for row.
        grid = (2, 30), (0, 30)
        swept = orbits.sweep(db.instantiations(*grid),
                             lambda pair: tuple(rootsys.HIGHEST_COUNTS[pair.rstype.family]))
        expected = [
            ferus.ScanRow(pair.family.key, pair.p, pair.n, spec, rep.degenerate, rep.l, rep.r,
                          ferus.ferus(rep.l).F, rep.degenerate and ferus.ferus(rep.l).F == rep.r)
            for pair, spec, rep in swept
        ]
        assert len(expected) == 5794
        assert ferus.equality_scan(db, *grid) == expected

    def test_builds_and_classifies_nothing(self, db, monkeypatch):
        rows = ferus.equality_scan(db)

        def refuse(*args, **kwargs):
            raise AssertionError("the scan built a system or classified a point")

        for module, name in ((rootsys, "build"), (orbits, "_orbit_facts"),
                             (orbits, "classify"), (orbits, "sweep")):
            monkeypatch.setattr(module, name, refuse)
        assert ferus.equality_scan(db) == rows

    def test_custom_grid(self, db):
        rows = ferus.equality_scan(db, p_range=(2, 3), n_range=(1, 2))
        assert {r.p for r in rows if r.pair == "su(p+1)|so(p+1)"} == {2, 3}
        assert {r.n for r in rows if r.pair == "so(2p+n)|so(p)+so(p+n)"} == {1, 2}


def test_scan_rows_carry_the_ferus_number_of_their_l(db):
    rows = ferus.equality_scan(db)
    assert len({row.l for row in rows}) < len(rows)  # some l repeats
    for row in rows:
        assert row.ferus_l == ferus.ferus(row.l).F, row


def test_wide_scan_csv_is_unchanged(db):
    # Digest of the 5794-row wide-grid scan as CSV, recorded before the
    # per-row and per-orbit fast paths of the scan.
    from gaussorbits import report

    rows = ferus.equality_scan(db, (2, 30), (0, 30))
    text = report.render_table(*report.scan_cells(rows), "csv")
    assert len(rows) == 5794
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a7b3cd600274228c10536d217b374729d9bf7b9629fdba7a52dfd53125e8ffac"
    )
