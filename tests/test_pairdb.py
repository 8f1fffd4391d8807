import dataclasses
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from gaussorbits import expr, orbits, pairdb, rootsys
from gaussorbits.pairdb import PairsFormatError
import reference
from reference import rootvec, simple_coefficients

PAIRS_DAT = resources.files("gaussorbits").joinpath("data/pairs.dat").read_text()


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


class TestLoad:
    def test_family_count(self, db):
        assert len(db.families) == 31

    def test_lookup_e6_f4(self, db):
        fam = db.get("e6|f4")
        pair = fam.instantiate()
        assert pair.rstype == rootsys.RootSystemType("A", 2)
        assert dict(pair.mult_by_class) == {"all": 8}

    def test_lookup_su_so(self, db):
        pair = db.get("su(p+1)|so(p+1)").instantiate(p=4)
        assert pair.rstype.family == "A"
        assert dict(pair.mult_by_class) == {"all": 1}

    def test_lookup_group_manifold_with_unicode(self, db):
        fam = db.get("g2 ⊕ g2|g2")
        assert "group_manifold" in fam.flags
        pair = fam.instantiate()
        assert set(dict(pair.mult_by_class).values()) == {2}

    def test_alias(self, db):
        assert db.get("f4|sp(3)+su(2)").key == "f4|su(2)+sp(3)"

    def test_unknown_pair(self, db):
        with pytest.raises(KeyError):
            db.get("su(9)|nothing")

    def test_name_rendering(self, db):
        fam = db.get("so(2p+n)|so(p)+so(p+n)")
        assert fam.names(3, 2) == ("so(8)", "so(3)+so(5)")

    def test_parameter_bounds(self, db):
        fam = db.get("so(2p)|so(p)+so(p)")
        with pytest.raises(ValueError, match="outside"):
            fam.instantiate(p=2)
        with pytest.raises(ValueError, match="required"):
            fam.instantiate()

    def test_every_flagged_row_consistent(self, db):
        for fam in db:
            if "group_manifold" in fam.flags:
                pair = fam.instantiate(p=fam.p_min, n=fam.n_min)
                assert set(dict(pair.mult_by_class).values()) == {2}


class TestRestrictedSystem:
    def test_sp_bc_multiplicities(self, db):
        fam = db.get("sp(2p+n)|sp(p)+sp(p+n)")
        for p, n in [(2, 1), (3, 2), (4, 4)]:
            pair = fam.instantiate(p=p, n=n)
            system = pair.system()
            assert pair.rstype.family == "BC"
            assert dict(pair.mult_by_class) == {"e_i": 4 * n, "e_i+-e_j": 4, "2e_i": 3}
            # oracle: the published long-root orbit dimension
            assert orbits.classify(pair, system.highest_root).l == 8 * p + 4 * n - 5

    def test_so_b_multiplicities(self, db):
        fam = db.get("so(2p+n)|so(p)+so(p+n)")
        for p, n in [(2, 1), (4, 3)]:
            pair = fam.instantiate(p=p, n=n)
            system = pair.system()
            assert dict(pair.mult_by_class) == {"e_i": n, "e_i+-e_j": 1}
            assert orbits.classify(pair, system.highest_root).l == 4 * p + 2 * n - 7

    def test_group_manifold_b(self, db):
        pair = db.get("so(2p+1)^2|so(2p+1)").instantiate(p=3)
        system = pair.system()
        assert all(reference.multiplicity(pair, v) == 2 for v in system.positive_roots)

    def test_multiplicity_totals_match_dim_m(self, db):
        # Each record's dim_m, read from the file as written.
        dim_m = dict(re.findall(r"(?m)^pair (\S+)$(?:\n(?!end).*)*?\n  dim_m (\S+)$", PAIRS_DAT))
        assert len(dim_m) == len(db.families)
        for fam in db:
            for pair in fam.instantiations(p_range=(2, 6), n_range=(1, 4)):
                system = pair.system()
                total = sum(reference.multiplicity(pair, v) for v in system.positive_roots)
                assert total + system.rank == expr.compile_expr(dim_m[fam.key])(pair.p, pair.n)

    def test_orbit_dimension_agrees_with_face_complement(self, db):
        # second route: l = total - sum over the positives orthogonal to H
        for fam in db:
            for pair in fam.instantiations(p_range=(2, 4), n_range=(1, 3)):
                system = pair.system()
                for H in (system.highest_root, system.positive_roots[0]):
                    rep = orbits.classify(pair, H)
                    face = orthogonal_positives(system, rep.H)
                    assert rep.l == complement_dimension(pair, face)

    def test_hermitian_rows_have_type_c_or_bc(self, db):
        for fam in db:
            if "hermitian" in fam.flags:
                assert fam.family in ("C", "BC")

    def test_normal_real_form_rows_have_multiplicity_one(self, db):
        for fam in db:
            if "normal_real_form" in fam.flags:
                pair = fam.instantiate(p=fam.p_min, n=fam.n_min)
                assert set(dict(pair.mult_by_class).values()) == {1}


def edit_record(key, *edits):
    """PAIRS_DAT with each (old, new) replaced inside the record of key, and its line."""
    start = PAIRS_DAT.index(f"pair {key}\n")
    end = PAIRS_DAT.index("end\n", start)
    record = PAIRS_DAT[start:end]
    for old, new in edits:
        assert record.count(old) == 1, (key, old)
        record = record.replace(old, new)
    return PAIRS_DAT[:start] + record + PAIRS_DAT[end:], PAIRS_DAT.count("\n", 0, start) + 1


class TestFlags:
    """Each flag holds exactly where its rule on the type and multiplicities does."""

    def test_embedded_flags_agree_with_their_rules_both_ways(self, db):
        for fam in db:
            m = {tag: None if e.variables else e() for tag, e in fam.mult}
            rules = {
                "group_manifold": set(m.values()) == {2},
                "normal_real_form": set(m.values()) == {1},
                "hermitian": fam.family in ("C", "BC") and m["2e_i"] == 1,
                "quaternionic_F4_exceptional":
                    fam.family == "F4" and m["long"] == 1 and m["short"] != 1,
            }
            assert {flag for flag, holds in rules.items() if holds} == fam.flags, fam.key

    @pytest.mark.parametrize("key,edits,message", [
        pytest.param("e7|su(8)", [("mult all 1", "mult all 2"), ("dim_m 70", "dim_m 133")],
                     "normal real form with multiplicities != 1", id="split-with-m-2"),
        pytest.param("e7|e6+r", [("mult 2e_i 1", "mult 2e_i 3"), ("dim_m 54", "dim_m 60")],
                     "hermitian but not of type C or BC with m(2e_i) = 1", id="hermitian-m-3"),
        pytest.param("so(2p+n)|so(p)+so(p+n)", [("  dim_m", "  flags hermitian\n  dim_m")],
                     "hermitian but not of type C or BC with m(2e_i) = 1", id="hermitian-type-b"),
        pytest.param("e7|su(2)+so(12)", [("mult long 1", "mult long 2"), ("dim_m 64", "dim_m 76")],
                     "quaternionic F4 exceptional but not of type F4 with long multiplicity 1 "
                     "and short != 1", id="quaternionic-long-2"),
        pytest.param("f4|su(2)+sp(3)", [("normal_real_form", "quaternionic_F4_exceptional")],
                     "quaternionic F4 exceptional but not of type F4 with long multiplicity 1 "
                     "and short != 1", id="quaternionic-short-1"),
    ])
    def test_a_contradicted_flag_is_refused_on_its_record_line(self, key, edits, message):
        # Each edit keeps the dim_m identity, so only the flag check sees it.
        text, line = edit_record(key, *edits)
        with pytest.raises(PairsFormatError, match=rf"^line {line}: {re.escape(key)}: "
                                                   rf"{re.escape(message)}$"):
            pairdb.parse_database(text)


# dim of each simple algebra a display name uses; "^2" doubles a summand.
CLASSICAL_DIMS = {
    "su": lambda m: m * m - 1,
    "so": lambda m: m * (m - 1) // 2,
    "sp": lambda m: m * (2 * m + 1),
    "u": lambda m: m * m,
}
FIXED_DIMS = {"R": 1, "g2": 14, "f4": 52, "e6": 78, "e7": 133, "e8": 248}


def algebra_dim(name):
    total = 0
    for summand in name.split("+"):
        base = summand.removesuffix("^2")
        match = re.fullmatch(r"(su|so|sp|u)\((\d+)\)", base)
        dim = CLASSICAL_DIMS[match[1]](int(match[2])) if match else FIXED_DIMS[base]
        total += dim * (2 if base != summand else 1)
    return total


def dimension_mismatches(text):
    """(key, p, n) wherever dim g - dim k, read from the names, is not dim_m."""
    dim_m = dict(re.findall(r"(?m)^pair (\S+)$(?:\n(?!end).*)*?\n  dim_m (\S+)$", text))
    found, instances = [], 0
    for fam in pairdb.parse_database(text):
        for pair in fam.instantiations(p_range=(2, 9), n_range=(1, 6)):
            g, k = fam.names(pair.p, pair.n)
            instances += 1
            if algebra_dim(g) - algebra_dim(k) != expr.compile_expr(dim_m[fam.key])(pair.p, pair.n):
                found.append((fam.key, pair.p, pair.n))
    return found, instances


class TestDimensions:
    """dim m = dim g - dim k, with g and k read from the display names."""

    def test_every_instance_of_the_embedded_database(self):
        assert dimension_mismatches(PAIRS_DAT) == ([], 254)

    def test_a_multiplicity_changed_with_its_dim_m(self):
        # 12 short roots of F4: short multiplicity 4 -> 8 and dim_m 64 -> 112
        # keep the load identity, and e7 - su(2) - so(12) is still 64.
        text, _ = edit_record("e7|su(2)+so(12)", ("mult short 4", "mult short 8"),
                              ("dim_m 64", "dim_m 112"))
        assert dimension_mismatches(text) == ([("e7|su(2)+so(12)", None, None)], 254)


def orthogonal_positives(system, H):
    return [mu for mu in system.positive_roots if rootsys.is_orthogonal(mu, H)]


def complement_dimension(pair, orthogonal):
    """l by the face complement: every multiplicity minus those orthogonal to H."""
    total = sum(reference.multiplicity(pair, mu) for mu in pair.system().positive_roots)
    return total - sum(reference.multiplicity(pair, mu) for mu in orthogonal)


class TestOrbitDimension:
    def test_e8_long_root(self, db):
        pair = db.get("e8|so(16)").instantiate()
        system = pair.system()
        assert orbits.classify(pair, system.highest_root).l == 57

    def test_regular_point_gets_everything(self, db):
        pair = db.get("e6|so(10)+r").instantiate()
        system = pair.system()
        interior = sum(system.fundamental_coweights(), rootvec(0, 0))
        total = sum(reference.multiplicity(pair, v) for v in system.positive_roots)
        assert orbits.classify(pair, interior).l == total

    def test_zero_rejected(self, db):
        pair = db.get("e6|f4").instantiate()
        with pytest.raises(ValueError):
            orbits.classify(pair, rootvec(0, 0, 0))


class TestChamberFace:
    # The face of the closed chamber that holds H, through the positive
    # roots orthogonal to H, fixes l.

    def test_regular(self, db):
        pair = db.get("g2|so(4)").instantiate()
        system = pair.system()
        interior = sum(system.fundamental_coweights(), rootvec(0, 0, 0))
        assert orthogonal_positives(system, interior) == []
        rep = orbits.classify(pair, interior)
        assert rep.l == complement_dimension(pair, [])
        assert rep.rule == orbits.RULE_NOT_PARALLEL

    def test_single_coweight(self, db):
        # the positives orthogonal to the coweight h_i are those without alpha_i
        pair = db.get("sp(p)|u(p)").instantiate(p=3)
        system = pair.system()
        for i, h in enumerate(system.fundamental_coweights()):
            face = [
                mu for mu in system.positive_roots
                if simple_coefficients(system, mu)[i] == 0
            ]
            assert face == orthogonal_positives(system, h)
            assert orbits.classify(pair, h).l == complement_dimension(pair, face)

    def test_b2_e1_face(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=1)
        system = pair.system()
        assert orthogonal_positives(system, rootvec(1, 0)) == [rootvec(0, 1)]
        assert orbits.classify(pair, rootvec(1, 0)).l == complement_dimension(
            pair, [rootvec(0, 1)]
        )

    def test_outside_chamber(self, db):
        # a point outside the chamber is folded onto its face first
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=1)
        rep = orbits.classify(pair, rootvec(-1, 0))
        assert rep.H == rootvec(1, 0)
        assert rep == orbits.classify(pair, rootvec(1, 0))


class TestFileFormat:
    def test_external_file(self, tmp_path, db):
        path = tmp_path / "pairs.dat"
        path.write_text(PAIRS_DAT)
        assert list(pairdb.load_database(path).families) == list(db.families)

    RECORD = (
        "pair x|y\n  g x\n  k y\n  type B p\n  params p 2 *\n"
        "  mult e_i 1\n  mult e_i+-e_j 1\n  dim_m p*p+p\nend\n"
    )

    def test_minimal_record_parses(self):
        dbx = pairdb.parse_database(self.RECORD)
        assert dbx.get("x|y").family == "B"

    @pytest.mark.parametrize(
        "mangle,message",
        [
            (lambda t: t.replace("  k y\n", ""), "missing field"),
            (lambda t: t.replace("type B p", "type Q p"), "unknown family"),
            (lambda t: t.replace("flags", "flag") if "flags" in t else t.replace("  g x\n", "  flag z\n"), "unknown field"),
            (lambda t: t.replace("  mult e_i 1\n", ""), "classes"),
            (lambda t: t.replace("mult e_i 1", "mult e_i 0"), "is 0 < 1"),
            (lambda t: t.replace("dim_m p*p+p", "dim_m p*p"), "rank"),
            (lambda t: t.replace("end\n", ""), "unterminated"),
            (lambda t: t.replace("params p 2 *", "params p two *"), "bad params"),
            (lambda t: t + t, "duplicate"),
        ],
    )
    def test_schema_violations(self, mangle, message):
        with pytest.raises(PairsFormatError, match=message):
            pairdb.parse_database(mangle(self.RECORD))

    @pytest.mark.parametrize("field,line", [("mult e_i 1", 6), ("dim_m p*p+p", 8)])
    def test_expression_error_reports_its_line(self, field, line):
        bad = self.RECORD.replace(field, field + "/(p-p)")
        with pytest.raises(PairsFormatError, match=rf"^line {line}: .* divides by zero$"):
            pairdb.parse_database(bad)

    @pytest.mark.parametrize("old,new,line,field", [pytest.param(*case, id=case[3]) for case in [
        ("  g x\n", "  g x\n  g nonsense(p)\n", 3, "g"),
        ("  k y\n", "  k y\n  k y\n", 4, "k"),
        ("  type B p\n", "  type B p\n  type C p\n", 5, "type"),
        ("  params p 2 *\n", "  params p 2 *\n  params p 3 *\n", 6, "params p"),
        ("  params p 2 *\n", "  params p 2 *\n  params n 0 *\n  params n 0 0\n", 7,
         "params n"),
        ("  dim_m p*p+p\n", "  dim_m 999\n  dim_m p*p+p\n", 9, "dim_m"),
    ]])
    def test_a_single_valued_field_given_twice(self, old, new, line, field):
        # A second line used to replace the first, so a wrong first dim_m loaded.
        with pytest.raises(PairsFormatError, match=rf"^line {line}: repeated field '{field}'$"):
            pairdb.parse_database(self.RECORD.replace(old, new))

    def test_a_multiplicity_below_one_in_a_fixed_rank_record(self):
        # No parameter to name: the message ends at the value.
        bad = "pair e|f\n  g e\n  k f\n  type G2 2\n  mult short 0\n  mult long 1\n  dim_m 5\nend\n"
        with pytest.raises(PairsFormatError, match=r"^line 5: expression '0' is 0 < 1$"):
            pairdb.parse_database(bad)

    def test_error_reports_line(self):
        bad = "pair a|b\n  type B p\nnonsense here\nend\n"
        with pytest.raises(PairsFormatError, match="line 3"):
            pairdb.parse_database(bad)

    def test_flags_validated(self):
        bad = self.RECORD.replace("  dim_m", "  flags shiny\n  dim_m")
        with pytest.raises(PairsFormatError, match="unknown flags"):
            pairdb.parse_database(bad)


class TestInstantiations:
    """A pair is its family at (p, n); the grid is the p axis times the n axis."""

    G2_N = (
        "pair g2|toy(n)\n  g g2\n  k toy(n)\n  type G2 2\n  params n 1 *\n"
        "  mult short n\n  mult long 1\n  dim_m 3*n+5\nend\n"
    )
    B_BOUNDED = (
        "pair x|y(n)\n  g x\n  k y(n+1)\n  type B p\n  params p 2 3\n  params n 0 *\n"
        "  mult e_i n+1\n  mult e_i+-e_j 1\n  dim_m p*(p+n+1)\nend\n"
    )

    def test_a_pair_holds_its_family(self, db):
        fam = db.get("so(2p+n)|so(p)+so(p+n)")
        pair = fam.instantiate(p=3, n=2)
        assert [f.name for f in dataclasses.fields(pairdb.Pair)] == [
            "family", "rstype", "mult_by_class", "p", "n", "_label"
        ]
        assert pair.family is fam
        assert pair.label() == "so(2p+n)|so(p)+so(p+n) [p=3,n=2]"
        assert db.get("e6|f4").instantiate(p=3, n=2).label() == "e6|f4"

    def test_fixed_rank_walks_the_n_axis(self):
        fam = pairdb.parse_database(self.G2_N).get("g2|toy(n)")
        pairs = list(fam.instantiations(p_range=(2, 3), n_range=(0, 3)))
        assert [(pair.p, pair.n) for pair in pairs] == [(None, 1), (None, 2), (None, 3)]
        assert [pair.mult_by_class for pair in pairs] == [
            (("short", n), ("long", 1)) for n in (1, 2, 3)
        ]
        assert fam.names(None, 3) == ("g2", "toy(3)")

    def test_fixed_rank_n_axis_is_capped(self):
        fam = pairdb.parse_database(self.G2_N).get("g2|toy(n)")
        span = pairdb.MAX_N_SPAN + 1
        with pytest.raises(ValueError, match=f"n range 1:{span} has {span} values"):
            next(fam.instantiations(p_range=(2, 3), n_range=(0, span)))

    def test_an_empty_p_axis_leaves_the_n_axis_unwalked(self):
        fam = pairdb.parse_database(self.B_BOUNDED).get("x|y(n)")
        assert list(fam.instantiations(p_range=(4, 9), n_range=(0, 10**30))) == []
        huge = 10**30 + 1
        with pytest.raises(ValueError, match=f"n range 0:{10**30} has {huge} values"):
            next(fam.instantiations(p_range=(2, 9), n_range=(0, 10**30)))

    def test_a_name_is_checked_at_load(self):
        bad = self.B_BOUNDED.replace("  k y(n+1)", "  k y(n/0)")
        with pytest.raises(PairsFormatError, match=r"^line 1: .* divides by zero$"):
            pairdb.parse_database(bad)


PAIRS_LINES = PAIRS_DAT.splitlines(keepends=True)


@st.composite
def one_line_mutation(draw):
    """pairs.dat with one line replaced, cut, doubled or one token swapped."""
    i = draw(st.integers(0, len(PAIRS_LINES) - 1))
    line = PAIRS_LINES[i]
    tokens = line.split()
    kind = draw(st.sampled_from(["replace", "delete", "double", "token"]))
    if kind == "replace":
        new = [draw(st.text(max_size=40)) + "\n"]
    elif kind == "delete":
        new = []
    elif kind == "double":
        new = [line, line]
    else:
        if tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.one_of(
                st.text(min_size=1, max_size=12),
                st.from_regex(r"-?[0-9pn()+*/-]{1,12}", fullmatch=True),
                st.sampled_from(["*", "p", "n", "0", "-1", "71", "A", "G2", "end", "pair"]),
            ))
        new = ["  " + " ".join(tokens) + "\n"]
    return "".join(PAIRS_LINES[:i] + new + PAIRS_LINES[i + 1:])


@settings(max_examples=150, deadline=None)
@given(one_line_mutation())
def test_one_line_mutations_load_or_raise_pairs_format_error(text):
    try:
        parsed = pairdb.parse_database(text)
    except PairsFormatError:
        return
    assert isinstance(parsed, pairdb.PairDatabase)


class TestExpressions:
    def test_eval(self):
        assert expr.compile_expr("4p+2n-7")(3, 2) == 9
        assert expr.compile_expr("p*(p+3)/2")(4) == 14
        assert expr.compile_expr("-3+5")() == 2

    def test_non_integer(self):
        with pytest.raises(ValueError, match="not integral"):
            expr.compile_expr("p/2")(3)

    @pytest.mark.parametrize(
        "text",
        [
            "1/0",
            "p/(p-p)",
            "+".join(["1"] * 100_000),
            "-" * 100_000 + "1",
        ],
        ids=["zero", "zero-in-p", "recursion", "parser-memory"],
    )
    def test_hostile_input_is_value_error(self, text):
        with pytest.raises(ValueError, match="divides by zero|nested too deeply") as info:
            expr.compile_expr(text)(3)
        assert len(str(info.value)) < 120

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.fixed_dictionaries({(0, 0): st.integers(-2, 8), (1, 0): st.integers(-2, 2),
                                         (0, 1): st.integers(-2, 2)}),
           den=st.integers(1, 3),
           p_range=st.tuples(st.integers(0, 2), st.sampled_from((None, 0, 1, 3))),
           n_range=st.tuples(st.integers(0, 2), st.sampled_from((None, 0, 1, 3))))
    @example(coeffs={(1, 0): 1}, den=2, p_range=(2, None), n_range=None)  # p/2 at p = 3
    @example(coeffs={(0, 0): 1, (0, 1): 1}, den=2, p_range=None, n_range=(1, 0))  # (n+1)/2
    @example(coeffs={(0, 0): 4, (0, 1): -1}, den=1, p_range=None, n_range=(1, None))  # 4-n
    @example(coeffs={(1, 0): 1}, den=1, p_range=None, n_range=(0, None))  # p with no range
    @example(coeffs={(1, 1): 1}, den=1, p_range=(2, None), n_range=(1, None))  # p*n
    @example(coeffs={(2, 0): 1, (1, 0): 1}, den=2, p_range=(2, None), n_range=None)
    def test_affine_integral_and_positive_as_on_a_window(self, coeffs, den, p_range, n_range):
        # f is integral at every p >= p_min and n >= n_min, whatever the
        # maxima, and >= 1 on the ranges.  A constant of at most 8, other
        # numerators of size <= 2, minima <= 2 and spans <= 3: f starts
        # at most 22/den and a negative coefficient takes it below 1 within
        # 22 steps, so a 30 x 30 window stands for an unbounded range.
        f = expr.Polynomial(coeffs, den)
        ranges = [None if r is None else (r[0], None if r[1] is None else r[0] + r[1])
                  for r in (p_range, n_range)]

        def window(bounded):
            axes = [(None,) if r is None else
                    range(r[0], r[0] + 30 if r[1] is None or not bounded else r[1] + 1)
                    for r in ranges]
            return [Fraction(sum(c * (p or 0)**i * (n or 0)**j for (i, j), c in coeffs.items()),
                             den) for p in axes[0] for n in axes[1]]

        unset = [name for name, r in zip("pn", ranges) if r is None and name in f.variables]
        try:
            f.check_affine(*(r and r[0] for r in ranges))
            f.check_positive(*ranges)
        except ValueError as exc:
            message = str(exc)
        else:
            message = None
        if f.degree > 1:
            assert message.endswith("is not affine in p and n")
        elif unset:
            assert message.endswith(f"needs a value for {unset[0]!r}")
        elif any(v.denominator != 1 for v in window(bounded=False)):
            assert "is not integral: " in message
        elif min(window(bounded=True)) < 1:
            assert re.search(r"is -?\d+ < 1 at|falls below 1 as [pn] grows$", message)
        else:
            assert message is None

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1)]),
                                  st.integers(-6, 6), max_size=3),
           den=st.integers(1, 12), p0=st.integers(-2, 3), n0=st.integers(-2, 3))
    @example(coeffs={(1, 0): 1}, den=2, p0=2, n0=0)  # p/2 fails at p = 3
    @example(coeffs={(0, 0): 1, (1, 0): 1, (0, 1): 1}, den=2, p0=1, n0=0)  # (p+n+1)/2 fails
    @example(coeffs={(1, 0): 2, (0, 1): 4}, den=2, p0=-1, n0=3)  # p+2n passes
    def test_integral_on_the_corner_grid_is_integral_on_the_quadrant(
            self, coeffs, den, p0, n0):
        # check_affine reads f at (p0, n0) and one step along each variable,
        # and must agree with the values on a 12 x 9 window.
        f = expr.Polynomial(coeffs, den)
        integral = all(sum(c * p**i * n**j for c, i, j in f._terms) % f._den == 0
                       for p in range(p0, p0 + 12) for n in range(n0, n0 + 9))
        try:
            f.check_affine(p0, n0)
        except ValueError as exc:
            assert "is not integral" in str(exc)
            assert not integral
        else:
            assert integral

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1)]),
                                  st.integers(-2, 2), max_size=3),
           p_range=st.tuples(st.integers(0, 2), st.sampled_from((None, 0, 1, 3))),
           n_range=st.tuples(st.integers(0, 2), st.sampled_from((None, 0, 1, 3))))
    @example(coeffs={(0, 0): 3, (1, 0): -1}, p_range=(2, None), n_range=(0, 0))  # 3-p
    @example(coeffs={(0, 0): 2, (1, 0): 1, (0, 1): -1}, p_range=(2, None), n_range=(0, None))
    def test_least_at_the_corners_or_falling_along_an_axis(self, coeffs, p_range, n_range):
        # Affine f with integer coefficients of size <= 2 and minima <= 2:
        # a negative coefficient takes f below 1 within 30 steps, so a
        # 30 x 30 window stands for an unbounded range.
        f = expr.Polynomial(coeffs)
        p_range, n_range = [(lo, None if span is None else lo + span)
                            for lo, span in (p_range, n_range)]
        p_axis, n_axis = [range(lo, lo + 30 if hi is None else hi + 1)
                          for lo, hi in (p_range, n_range)]
        least = min(sum(c * p**i * n**j for c, i, j in f._terms) for p in p_axis for n in n_axis)
        try:
            f.check_positive(p_range, n_range)
        except ValueError as exc:
            assert re.search(r"is -?\d+ < 1 at p=\d+, n=\d+|falls below 1 as [pn] grows",
                             str(exc))
            assert least < 1
        else:
            assert least >= 1

    def test_integral_without_a_parameter(self):
        expr.compile_expr("(2n+4)/2").check_affine(None, 0)
        with pytest.raises(ValueError, match="needs a value for 'p'"):
            expr.compile_expr("p+n").check_affine(None, 1)

    def test_missing_value(self):
        with pytest.raises(ValueError, match="needs a value"):
            expr.compile_expr("p+1")()

    def test_rejects_weird_input(self):
        with pytest.raises(ValueError):
            expr.compile_expr("__import__('os')")()
        with pytest.raises(ValueError):
            expr.compile_expr("p**2")(2)

    def test_render_name(self):
        assert pairdb.render_name("su(2p+n)", p=2, n=3) == "su(7)"
        assert pairdb.render_name("so(10)+R") == "so(10)+R"
        assert pairdb.render_name("su(p+1)^2", p=2) == "su(3)^2"
