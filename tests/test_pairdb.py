import re

import pytest

from gaussorbits import pairdb, rootsys
from gaussorbits.pairdb import PairsFormatError
from gaussorbits.rootsys import rootvec


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


class TestLoad:
    def test_family_count(self, db):
        assert len(db) == 31

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
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=3, n=2)
        assert pair.g_name == "so(8)"
        assert pair.k_name == "so(3)+so(5)"

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
            assert pairdb.orbit_dimension(pair, system.highest_root) == 8 * p + 4 * n - 5

    def test_so_b_multiplicities(self, db):
        fam = db.get("so(2p+n)|so(p)+so(p+n)")
        for p, n in [(2, 1), (4, 3)]:
            pair = fam.instantiate(p=p, n=n)
            system = pair.system()
            assert dict(pair.mult_by_class) == {"e_i": n, "e_i+-e_j": 1}
            assert pairdb.orbit_dimension(pair, system.highest_root) == 4 * p + 2 * n - 7

    def test_group_manifold_b(self, db):
        pair = db.get("so(2p+1)^2|so(2p+1)").instantiate(p=3)
        system = pair.system()
        assert all(pair.multiplicity(v) == 2 for v in system.positive_roots)

    def test_multiplicity_totals_match_dim_m(self, db):
        for fam in db:
            for pair in fam.instantiations(p_range=(2, 6), n_range=(1, 4)):
                system = pair.system()
                total = sum(pair.multiplicity(v) for v in system.positive_roots)
                assert total + system.rank == pair.dim_m

    def test_orbit_dimension_agrees_with_face_complement(self, db):
        # second route: l = total - sum over the positives orthogonal to H
        from gaussorbits import orbits

        for fam in db:
            for pair in fam.instantiations(p_range=(2, 4), n_range=(1, 3)):
                system = pair.system()
                total = sum(pair.multiplicity(v) for v in system.positive_roots)
                for H in (system.highest_root, system.positive_roots[0]):
                    folded = orbits.weyl_fold(system, H)
                    face = pairdb.chamber_face(pair, folded)
                    via_face = total - sum(
                        pair.multiplicity(nu) for nu in face.orthogonal_positives
                    )
                    assert pairdb.orbit_dimension(pair, folded) == via_face

    def test_hermitian_rows_have_type_c_or_bc(self, db):
        for fam in db:
            if "hermitian" in fam.flags:
                assert fam.family in ("C", "BC")

    def test_normal_real_form_rows_have_multiplicity_one(self, db):
        for fam in db:
            if "normal_real_form" in fam.flags:
                pair = fam.instantiate(p=fam.p_min, n=fam.n_min)
                assert set(dict(pair.mult_by_class).values()) == {1}


class TestOrbitDimension:
    def test_e8_long_root(self, db):
        pair = db.get("e8|so(16)").instantiate()
        system = pair.system()
        assert pairdb.orbit_dimension(pair, system.highest_root) == 57

    def test_regular_point_gets_everything(self, db):
        pair = db.get("e6|so(10)+r").instantiate()
        system = pair.system()
        interior = sum(system.fundamental_coweights(), rootvec(0, 0))
        total = sum(pair.multiplicity(v) for v in system.positive_roots)
        assert pairdb.orbit_dimension(pair, interior) == total

    def test_zero_rejected(self, db):
        pair = db.get("e6|f4").instantiate()
        with pytest.raises(ValueError):
            pairdb.orbit_dimension(pair, rootvec(0, 0, 0))


class TestChamberFace:
    def test_regular(self, db):
        pair = db.get("g2|so(4)").instantiate()
        system = pair.system()
        interior = sum(system.fundamental_coweights(), rootvec(0, 0, 0))
        face = pairdb.chamber_face(pair, interior)
        assert face.delta == frozenset(system.simple_roots)
        assert face.orthogonal_positives == ()

    def test_single_coweight(self, db):
        pair = db.get("sp(p)|u(p)").instantiate(p=3)
        system = pair.system()
        for i, h in enumerate(system.fundamental_coweights()):
            face = pairdb.chamber_face(pair, h)
            assert face.delta == {system.simple_roots[i]}

    def test_b2_e1_face(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=1)
        face = pairdb.chamber_face(pair, rootvec(1, 0))
        assert set(face.orthogonal_positives) == {rootvec(0, 1)}

    def test_outside_chamber(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=1)
        with pytest.raises(ValueError, match="outside"):
            pairdb.chamber_face(pair, rootvec(-1, 0))


class TestFileFormat:
    def test_round_trip(self, db):
        text = pairdb.serialize(db)
        again = pairdb.parse_database(text)
        assert list(again.families) == list(db.families)
        assert pairdb.serialize(again) == text

    def test_round_trip_against_source_modulo_comments(self):
        source = pairdb._data_path().read_text()

        def normalize(text):
            lines = []
            for raw in text.splitlines():
                line = raw.split("#", 1)[0].strip()
                if line:
                    lines.append(re.sub(r"\s+", " ", line))
            return lines

        assert normalize(pairdb.serialize(pairdb.parse_database(source))) == normalize(source)

    def test_external_file(self, tmp_path, db):
        path = tmp_path / "pairs.dat"
        path.write_text(pairdb.serialize(db))
        assert len(pairdb.load_database(path)) == len(db)

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
            (lambda t: t.replace("mult e_i 1", "mult e_i 0"), "multiplicity"),
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

    def test_error_reports_line(self):
        bad = "pair a|b\n  type B p\nnonsense here\nend\n"
        with pytest.raises(PairsFormatError, match="line 3"):
            pairdb.parse_database(bad)

    def test_flags_validated(self):
        bad = self.RECORD.replace("  dim_m", "  flags shiny\n  dim_m")
        with pytest.raises(PairsFormatError, match="unknown flags"):
            pairdb.parse_database(bad)


class TestExpressions:
    def test_eval(self):
        assert pairdb.eval_expr("4p+2n-7", p=3, n=2) == 9
        assert pairdb.eval_expr("p*(p+3)/2", p=4) == 14
        assert pairdb.eval_expr("-3+5") == 2

    def test_non_integer(self):
        with pytest.raises(ValueError, match="not integral"):
            pairdb.eval_expr("p/2", p=3)

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
            pairdb.eval_expr(text, p=3)
        assert len(str(info.value)) < 120

    def test_missing_value(self):
        with pytest.raises(ValueError, match="needs a value"):
            pairdb.eval_expr("p+1")

    def test_rejects_weird_input(self):
        with pytest.raises(ValueError):
            pairdb.eval_expr("__import__('os')")
        with pytest.raises(ValueError):
            pairdb.eval_expr("p**2", p=2)

    def test_render_name(self):
        assert pairdb.render_name("su(2p+n)", p=2, n=3) == "su(7)"
        assert pairdb.render_name("so(10)+R") == "so(10)+R"
        assert pairdb.render_name("su(p+1)^2", p=2) == "su(3)^2"
