import csv
import dataclasses
import io
import json
import re
import typing
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gaussorbits import cayley, expr, ferus, orbits, pairdb, report, rootsys
from gaussorbits.cli import main
from reference import rootvec

PAIRS_DAT = resources.files("gaussorbits").joinpath("data/pairs.dat").read_text()
EXPECTED = resources.files("gaussorbits").joinpath("data/table1.expected").read_text()


@pytest.fixture(scope="module")
def db():
    return pairdb.load_database()


def parse_rendered(text: str, fmt: str) -> list[dict[str, str]]:
    """Read back a rendered table, to diff formats against each other."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if fmt == "json":
        return json.loads(text)

    def cells(line):
        # render_table writes a "|" inside a cell as "\|".
        parts = re.split(r"(?<!\\)\|", line.strip()[1:-1])
        return [c.strip().replace("\\|", "|") for c in parts]

    lines = [ln for ln in text.splitlines() if ln.strip()]
    headers = cells(lines[0])
    return [dict(zip(headers, cells(ln))) for ln in lines[2:]]


class TestAffineRendering:
    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((0, 0, 24), "24"),
            ((2, 0, -1), "2p-1"),
            ((4, 2, -7), "4p+2n-7"),
            ((1, 0, 0), "p"),
            ((-1, 1, 0), "-p+n"),
            ((0, 0, 0), "0"),
            ((8, 0, -10), "8p-10"),
        ],
    )
    def test_render(self, coeffs, want):
        a, b, c = coeffs
        assert str(a * expr.P + b * expr.N + c) == want

    def test_formula_evaluation(self):
        assert expr.compile_expr("4p+2n-7")(3, 2) == 9
        assert expr.compile_expr("24")() == 24

    def test_golden_formulas_are_in_normal_form(self):
        rows = list(csv.DictReader(io.StringIO(EXPECTED)))
        assert len(rows) == 31
        for row in rows:
            for text in (row["l"], row["r"]):
                assert str(expr.compile_expr(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=6, max_size=6),
        st.integers(1, 12),
    )
    def test_normal_form_reads_back(self, coeffs, den):
        # Degree <= 2 in p and n, rational coefficients over den.
        monomials = ["p*p", "p*n", "n*n", "p", "n", "1"]
        text = "(" + "+".join(f"({c})*{m}" for c, m in zip(coeffs, monomials)) + f")/{den}"
        e = expr.compile_expr(text)
        assert expr.compile_expr(str(e)) == e
        assert str(expr.compile_expr(str(e))) == str(e)
        p, n = 7, -3
        value = sum(c * v for c, v in zip(coeffs, [p * p, p * n, n * n, p, n, 1]))
        if value % den == 0:
            assert e(p, n) == value // den


class TestTable1:
    def test_symbolic_rows_match_golden(self, db):
        assert report.table1_rows(db) == report.load_expected()

    def test_check_clean(self, db):
        assert report.check_table1(db) == []

    def test_check_detects_bad_data(self, db):
        # a consistent but wrong database row must be flagged
        text = PAIRS_DAT.replace(
            "pair e6|f4\n  g e6\n  k f4\n  type A 2\n  mult all 8\n  dim_m 26",
            "pair e6|f4\n  g e6\n  k f4\n  type A 2\n  mult all 7\n  dim_m 23",
        )
        bad_db = pairdb.parse_database(text)
        problems = report.check_table1(bad_db)
        assert problems and any("e6" in p for p in problems)

    def test_instances_grid(self, db):
        instances = report.table1_instances(db, p_range=(2, 3), n_range=(1, 2))
        by_name = {(i.g, i.k, i.p, i.n): i for i in instances}
        row = by_name[("so(7)", "so(3)+so(4)", 3, 1)]
        assert (row.l, row.r, row.degeneracy) == (7, 6, 1)
        fixed = by_name[("e8", "so(16)", None, None)]
        assert (fixed.l, fixed.r) == (57, 56)

    def test_rows_are_derived_without_a_build_or_a_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("table1_rows classified an orbit")

        for name in ("sweep", "classify"):
            monkeypatch.setattr(orbits, name, refuse)
        fresh = pairdb.parse_database(PAIRS_DAT)
        before = rootsys._build_cached.cache_info()
        assert report.table1_rows(fresh) == report.load_expected()
        after = rootsys._build_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    # A bounded p range, and an l of degree 2 in p: each derived row must be
    # the classified value at every point of the grid.
    DERIVED = {
        "bounded": ("pair toy(p+1)|toy(p)\n  g toy(p+1)\n  k toy(p)\n  type A p\n"
                    "  params p 2 3\n  mult all 1\n  dim_m p*(p+3)/2\nend\n",
                    "2p-1", "2p-2", 2),
        "quadratic": ("pair sq(p)|toy(p)\n  g sq(p)\n  k toy(p)\n  type C p\n"
                      "  params p 2 *\n  mult e_i+-e_j p\n  mult 2e_i 1\n"
                      "  dim_m p*p*p-p*p+2p\nend\n",
                      "2p*p-2p+1", "2p*p-2p", 11),
    }

    @pytest.mark.parametrize("name", DERIVED)
    def test_derived_row_is_the_classified_value_on_a_grid(self, name):
        text, l, r, points = self.DERIVED[name]
        user_db = pairdb.parse_database(text)
        [row] = report.table1_rows(user_db)
        assert (row.l, row.r, row.degeneracy) == (l, r, 1)
        instances = report.table1_instances(user_db, p_range=(2, 12), n_range=(0, 0))
        assert len(instances) == points
        for inst in instances:
            want = (expr.compile_expr(l)(inst.p), expr.compile_expr(r)(inst.p), 1)
            assert (inst.l, inst.r, inst.degeneracy) == want

    def test_degeneracy_validation(self):
        with pytest.raises(ValueError):
            report.Table1Row(
                rstype="A", rank="p", g="x", k="y", l="2p-1", r="2p-2", degeneracy=3
            )

    def test_degeneracy_is_an_identity(self):
        # l - r = (p-3)(p-5) + 1 is 1 at p = 3 and p = 5 only.
        with pytest.raises(ValueError, match=r"degeneracy 1 != l-r = p\*p-8p\+16"):
            report.Table1Row(
                rstype="A", rank="p", g="x", k="y", l="p*p-6p+16", r="2p", degeneracy=1
            )

    @staticmethod
    def serve_expected(monkeypatch, tmp_path, text):
        # Package files from tmp_path: the given table1.expected, the real pairs.dat.
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "table1.expected").write_text(text)
        (tmp_path / "data" / "pairs.dat").write_text(PAIRS_DAT)
        monkeypatch.setattr(report.resources, "files", lambda package: tmp_path)

    @pytest.mark.parametrize(
        "header",
        ["type,rank,g,k,r,l,l-r", "rstype,rank,g,k,l,r,degeneracy", "type,rank,g,k,l,r"],
        ids=["swapped", "field-names", "short"],
    )
    def test_expected_with_another_header_is_refused(
        self, monkeypatch, tmp_path, header, capsys
    ):
        body = EXPECTED.split("\n", 1)[1]
        self.serve_expected(monkeypatch, tmp_path, f"{header}\n{body}")
        with pytest.raises(ValueError, match="table1.expected has header"):
            report.load_expected()
        assert main(["table1", "--check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: table1.expected has header") and err.count("\n") == 1

    def test_expected_is_read_through_the_table_header(self, monkeypatch, tmp_path):
        # The control for the refusals above: the same fixture, the real file.
        self.serve_expected(monkeypatch, tmp_path, EXPECTED)
        rows = report.load_expected()
        assert report.render_table(*report.cells(report.Table1Row, rows), "csv") == EXPECTED


class TestCells:
    @dataclasses.dataclass(frozen=True)
    class Row:
        name: str
        count: int = dataclasses.field(metadata={"header": "#"})
        flag: bool | None = None

    def test_headers_and_cells_follow_the_fields(self):
        rows = [self.Row("a", 0, True), self.Row("b", -3, False), self.Row("c", 7)]
        assert report.cells(self.Row, rows) == (
            ["name", "#", "flag"],
            [["a", "0", "true"], ["b", "-3", "false"], ["c", "7", ""]],
        )
        assert report.cells(self.Row, []) == (["name", "#", "flag"], [])

    @pytest.mark.parametrize("value,want", [
        (None, ""), (True, "true"), (False, "false"), (1, "1"), (0, "0"),
        ("", ""), ("-", "-"), (Fraction(-3, 4), "-3/4"),
        ([["long", 1], ["short", 2]], "long 1 short 2"), ([True, None, "x"], "true  x"),
    ])
    def test_text(self, value, want):
        assert report.text(value) == want


class TestRendering:
    # Every table the CLI prints: its argv, its row class and the types of the
    # values its JSON holds on that grid.
    TABLES = {
        "table1": (("table1",), report.Table1Row, {str, int}),
        "table1-grid": (("table1", "--p-range", "2:3", "--n-range", "0:2"),
                        report.Table1Instance, {str, int, type(None)}),
        "scan": (("ferus", "--scan", "--p-range", "2:3", "--n-range", "0:1"),
                 ferus.ScanRow, {str, int, bool, type(None)}),
        "pairs": (("pairs", "list"), report.PairsRow, {str}),
    }

    def test_formats_carry_identical_values(self, capsys):
        for argv, cls, types in self.TABLES.values():
            parsed = {}
            for fmt in ("md", "csv", "json"):
                assert main(["--format", fmt, *argv]) == 0
                parsed[fmt] = parse_rendered(capsys.readouterr().out, fmt)
            rows = parsed["json"]
            hints = typing.get_type_hints(cls)
            headers = [f.metadata.get("header", f.name) for f in dataclasses.fields(cls)]
            seen = set()
            for row in rows:
                assert list(row) == headers
                for f, value in zip(dataclasses.fields(cls), row.values()):
                    # Exact types: a bool is no int here, and an int no bool.
                    assert type(value) in (typing.get_args(hints[f.name]) or (hints[f.name],))
                    seen.add(type(value))
                cls(*row.values())  # each row reads back as its dataclass
            assert seen == types, argv
            assert parsed["md"] == parsed["csv"] == [
                {key: report.text(value) for key, value in row.items()} for row in rows
            ]

    def test_scan_cells_round_trip(self, db):
        rows = ferus.equality_scan(db, p_range=(2, 3), n_range=(1, 1))
        headers, cells = report.scan_cells(rows)
        parsed = parse_rendered(report.render_table(headers, cells, "csv"), "csv")
        assert len(parsed) == len(rows)
        assert parsed[0]["pair"] == rows[0].pair

    def test_unknown_format(self):
        for fmt in ("xml", "json"):  # JSON goes through to_json
            with pytest.raises(ValueError, match="unknown format"):
                report.render_table(["a"], [["1"]], fmt)


class TestRationalStrings:
    def test_lowest_terms(self):
        assert report.to_json(Fraction(2, 4)) == "1/2"
        assert report.to_json(Fraction(6, 3)) == "2"
        assert report.to_json(Fraction(-1, 2)) == "-1/2"
        assert expr.compile_expr("-7/3*3")() == -7


class TestJsonRoundTrips:
    """`to_json` output survives json text and has the documented shape."""

    @staticmethod
    def encode(value):
        return json.loads(json.dumps(report.to_json(value)))

    def test_orbit_report(self, db):
        pair = db.get("g2|so(4)").instantiate()
        rep = orbits.classify(pair, rootvec(3, 1, -4))
        assert self.encode(rep) == {
            "pair": "g2|so(4)",
            "H": ["-1", "-3", "4"],
            "degenerate": False,
            "l": 6,
            "r": 6,
            "nullity": 0,
            "rule": "NotParallelToRoot",
            "root_class": None,
            "satisfies_ab": None,
        }
        assert list(report.to_json(rep)) == [f.name for f in dataclasses.fields(rep)]

    def test_spectrum(self, db):
        pair = db.get("so(2p+n)|so(p)+so(p+n)").instantiate(p=2, n=3)
        spec = orbits.principal_curvatures(pair, rootvec(1, 1), rootvec(1, -1))
        assert self.encode(spec) == [["-1", 3], ["0", 1], ["1", 3]]

    def test_certificate(self):
        assert self.encode(ferus.ferus(57)) == {
            "l": 57, "F": 56, "witness_k": 56, "minimality_checked_up_to": 55,
        }

    def test_scan_row(self, db):
        row = ferus.equality_scan(db, p_range=(2, 2), n_range=(1, 1))[0]
        assert self.encode(row) == {
            "pair": "su(p+1)|so(p+1)", "p": 2, "n": None, "orbit": "long",
            "degenerate": True, "l": 3, "r": 2, "F(l)": 2, "equality": True,
        }

    def test_table1_row(self, db):
        assert self.encode(report.table1_rows(db)[0]) == {
            "type": "A", "rank": "p", "g": "su(p+1)", "k": "so(p+1)",
            "l": "2p-1", "r": "2p-2", "l-r": 1,
        }

    def test_appendix(self):
        got = self.encode(cayley.verify_appendix(rootsys.build("G2")))
        assert got["gammas"] == [["-2", "1", "1"], ["0", "-1", "1"]]
        assert got["multiplicities"] == [["long", 1], ["short", 1]]
        assert got["preimage_cardinalities"] is None
        assert "ok" not in got

    def test_vectors_with_denominators(self):
        v = rootvec(Fraction(1, 2), Fraction(-3, 4), 2)
        assert report.to_json(v) == ["1/2", "-3/4", "2"]
        assert report.to_json(Fraction(-7, 3)) == "-7/3"
        assert report.to_json(((Fraction(6, 4), 2), (v,))) == [
            ["3/2", 2], [["1/2", "-3/4", "2"]],
        ]
