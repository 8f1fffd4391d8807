"""Tests of the benchmark's own output checks.

    python3 -m pytest bench/test_checks.py

Each check must pass on the program's real output and reject a
deliberately altered copy.  The tier-1 suite does not collect this file
(pytest's testpaths is `tests`).
"""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DATA = SRC / "gaussorbits" / "data"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from gaussorbits import ferus, orbits, pairdb, report  # noqa: E402

P_RANGE, N_RANGE = (2, 5), (0, 3)
PAIRS = checks.parse_pairs((DATA / "pairs.dat").read_text())
TABLE1 = checks.parse_table1((DATA / "table1.expected").read_text())


@pytest.fixture(scope="module")
def scan_rows():
    db = pairdb.load_database()
    headers, cells = report.scan_cells(ferus.equality_scan(db, P_RANGE, N_RANGE))
    return headers, cells


def render(headers, cells):
    return report.render_table(headers, cells, "csv")


def check(headers, cells):
    return checks.check_scan_csv(render(headers, cells), PAIRS, TABLE1, P_RANGE, N_RANGE)


def altered(cells, index, column, value):
    out = [list(row) for row in cells]
    out[index][column] = value
    return out


def first(cells, orbit, family=None):
    families = {rec["key"]: rec["family"] for rec in PAIRS}
    return next(i for i, row in enumerate(cells)
                if row[3] == orbit and (family is None or families[row[0]] == family))


def test_scan_check_passes_real_output(scan_rows):
    assert check(*scan_rows) == []


@pytest.mark.parametrize("orbit,family", [("long", None), ("short", "B"), ("short", "G2")])
def test_scan_check_rejects_flipped_degenerate(scan_rows, orbit, family):
    headers, cells = scan_rows
    i = first(cells, orbit, family)
    flipped = "false" if cells[i][4] == "true" else "true"
    assert check(headers, altered(cells, i, 4, flipped))


@pytest.mark.parametrize("orbit,family", [("long", None), ("short", "C"), ("short", "G2"),
                                          ("middle", "BC")])
def test_scan_check_rejects_l_off_by_one(scan_rows, orbit, family):
    headers, cells = scan_rows
    i = first(cells, orbit, family)
    assert check(headers, altered(cells, i, 5, str(int(cells[i][5]) + 1)))


def test_scan_check_rejects_wrong_ferus_number(scan_rows):
    headers, cells = scan_rows
    assert check(headers, altered(cells, 0, 7, str(int(cells[0][7]) + 1)))


def test_scan_check_rejects_missing_row(scan_rows):
    headers, cells = scan_rows
    assert check(headers, cells[:10] + cells[11:])


def test_scan_check_rejects_duplicated_row_in_place_of_another(scan_rows):
    headers, cells = scan_rows
    assert check(headers, cells[:-1] + [cells[0]])


def test_expression_evaluator():
    assert checks.eval_int("p*(p+3)/2", p=4) == 14
    assert checks.eval_int("4p+2n-7", p=3, n=2) == 9
    assert checks.eval_int("2*p*(2*p-1)", p=3) == 30
    assert checks.eval_int("-(p-5)", p=2) == 3
    with pytest.raises(ValueError):
        checks.eval_int("p/2", p=3)


def test_adams_and_ferus_numbers():
    # A(k) for k = 1, 2, 4, 8, 16 and odd multiples; F(2^q) = 2^q.
    assert [checks.adams(k) for k in (1, 2, 4, 8, 16, 3, 24)] == [0, 1, 3, 7, 8, 0, 7]
    assert [checks.ferus_number(2 ** q) for q in range(1, 8)] == [2 ** q for q in range(1, 8)]
    # F(l) is least: A(F-1) + F-1 < l.
    for l in range(2, 300):
        f = checks.ferus_number(l)
        assert checks.adams(f) + f >= l and checks.adams(f - 1) + f - 1 < l


def oracle_for(pair):
    system = pair.system()
    return checks.SystemOracle(pair.rstype.family,
                               [v.coords for v in system.positive_roots],
                               [a.coords for a in system.simple_roots])


def report_dict(rep):
    return {"pair": rep.pair, "H": tuple(int(c) for c in rep.H.coords), "l": rep.l,
            "r": rep.r, "nullity": rep.nullity, "degenerate": rep.degenerate}


@pytest.mark.parametrize("key,p,n,spec", [
    ("g2|so(4)", None, None, "short"),
    ("su(2p+n)|su(p)+su(p+n)+r", 3, 2, "highest"),
    ("su(2p+n)|su(p)+su(p+n)+r", 3, 2, "middle"),
    ("e8|su(2)+e7", None, None, "short"),
])
def test_report_check_passes_real_and_rejects_altered(key, p, n, spec):
    rec = next(r for r in PAIRS if r["key"] == key)
    pair = pairdb.load_database().get(key).instantiate(p=p, n=n)
    rep = report_dict(orbits.classify(pair, orbits.resolve_orbit(pair, spec)))
    want = oracle_for(pair).expectation(rep["H"], checks.class_multiplicities(rec, p, n))
    assert checks.check_report(rep, rep["H"], *want) == []
    for field, value in (("l", rep["l"] + 1), ("nullity", rep["nullity"] + 1),
                         ("degenerate", not rep["degenerate"]),
                         ("H", tuple(2 * x for x in rep["H"]))):
        assert checks.check_report(dict(rep, **{field: value}), rep["H"], *want)


def test_oracle_sees_a2_highest_root_as_regular():
    # In A2 the highest root pairs positively with both simple roots, so a
    # strictly positive combination of coweights can lie on a root line.
    pair = pairdb.load_database().get("su(p+1)|so(p+1)").instantiate(p=2)
    oracle = oracle_for(pair)
    ray = checks.primitive(pair.system().highest_root.coords)
    assert all(checks.dot(a, ray) > 0 for a in oracle.simple)
    assert oracle.line(ray, {"long": 1}) == (1, 1)


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "gaussorbits.cli", *argv],
                          capture_output=True, text=True, env={"PYTHONPATH": str(SRC)})
    return proc


def test_table1_checks():
    out = cli("--format", "csv", "table1").stdout
    assert checks.check_table1_csv(out, TABLE1) == []
    assert checks.check_table1_csv(out.replace("2p-1", "2p-2", 1), TABLE1)
    assert checks.check_table1_check(cli("table1", "--check").stdout) == []
    assert checks.check_table1_check("table1 check failed:\n")


@pytest.mark.parametrize("algebra", ["g2", "e7"])
def test_appendix_checks(algebra):
    out = cli("--format", "json", "appendix", "--algebra", algebra).stdout
    assert checks.check_appendix(out, algebra, PAIRS) == []
    data = json.loads(out)
    wrong_type = dict(data, projected_type="B4")
    assert checks.check_appendix(json.dumps(wrong_type), algebra, PAIRS)
    fewer = dict(data, gammas=data["gammas"][:-1])
    assert checks.check_appendix(json.dumps(fewer), algebra, PAIRS)
    if algebra == "e7":
        mults = dict(data, multiplicities=[["long", 1], ["short", 8]])
        assert checks.check_appendix(json.dumps(mults), algebra, PAIRS)


def test_classify_checks():
    rec = next(r for r in PAIRS if r["key"] == "so(2p+n)|so(p)+so(p+n)")
    out = cli("--format", "json", "classify", "--pair", rec["key"], "--p", "2",
              "--n", "3", "--root", "1,1", "--xi", "1,-1").stdout
    assert checks.check_classify(out, rec, 2, 3, "long", TABLE1) == []
    data = json.loads(out)
    data["curvature_spectrum"][0][1] += 1
    assert checks.check_classify(json.dumps(data), rec, 2, 3, "long", TABLE1)
    g2 = next(r for r in PAIRS if r["key"] == "g2|so(4)")
    out = cli("--format", "json", "classify", "--pair", "g2|so(4)", "--root", "short").stdout
    assert checks.check_classify(out, g2, None, None, "short", TABLE1) == []
    data = dict(json.loads(out), degenerate=False, nullity=0)
    assert checks.check_classify(json.dumps(data), g2, None, None, "short", TABLE1)


def test_pairs_list_check():
    out = cli("--format", "csv", "pairs", "list").stdout
    assert checks.check_pairs_list(out, PAIRS) == []
    rows = list(csv.reader(io.StringIO(out)))
    short = io.StringIO()
    csv.writer(short, lineterminator="\n").writerows(rows[:-1])
    assert checks.check_pairs_list(short.getvalue(), PAIRS)


def test_malformed_database_verdict():
    assert checks.malformed_ok(1, "", "error: division by zero\n")
    assert not checks.malformed_ok(1, "", "Traceback (most recent call last):\n  ...\n")
    assert not checks.malformed_ok(0, "key,type\n", "")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
