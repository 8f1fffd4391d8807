import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import click
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gaussorbits
from gaussorbits import cli, expr, ferus, pairdb, report, rootsys
from gaussorbits.cli import main

PAIRS_DAT = resources.files("gaussorbits").joinpath("data/pairs.dat").read_text()


def refused_in_a_child(*argv, seconds=5.0):
    """Run ``python -m gaussorbits.cli *argv`` in a child killed after `seconds`.

    Asserts exit code 1, no output and exactly one stderr line, and returns
    that line; a command that runs without bound fails here instead of
    stalling the suite.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(gaussorbits.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaussorbits.cli", *argv],
            capture_output=True, text=True, timeout=seconds, env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(argv)} still ran after {seconds} s")
    assert (proc.returncode, proc.stdout) == (1, ""), proc
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and proc.stderr == lines[0] + "\n", proc.stderr
    return lines[0]


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestTable1Command:
    def test_symbolic(self, run):
        code, out, _ = run("table1")
        assert code == 0
        assert "4p+2n-7" in out
        assert out.count("\n") >= 33

    def test_check_passes(self, run):
        code, out, _ = run("table1", "--check")
        assert code == 0
        assert "match" in out

    def test_global_check_flag(self, run):
        # --check belongs to table1 alone; before the subcommand it is unknown.
        code, out, err = run("--check", "table1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_numeric_instantiation(self, run):
        code, out, _ = run("--format", "csv", "table1", "--p-range", "2:3", "--n-range", "1:1")
        assert code == 0
        assert "so(5),so(2)+so(3),2,1,3,2,1" in out

    def test_symbolic_csv_equals_golden_file(self, run):
        from importlib import resources

        code, out, _ = run("--format", "csv", "table1")
        assert code == 0
        golden = resources.files("gaussorbits").joinpath("data/table1.expected").read_text()
        assert out == golden

    def test_check_fails_on_bad_database(self, run, tmp_path):
        text = PAIRS_DAT.replace("mult all 8", "mult all 7").replace(
            "dim_m 26", "dim_m 23"
        )
        path = tmp_path / "pairs.dat"
        path.write_text(text)
        code, _, err = run("--pairs", str(path), "table1", "--check")
        assert code == 2
        assert "e6" in err

    def test_bad_range(self, run):
        code, _, err = run("table1", "--p-range", "6:2")
        assert code == 1

    @pytest.mark.parametrize("check", [(), ("--check",)], ids=["grid", "check"])
    def test_grid_above_the_rank_cap(self, run, check):
        start = time.perf_counter()
        code, out, err = run("table1", *check, "--p-range", "2:3000")
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert err == f"error: rank 3000 of A is above the largest rank {rootsys.MAX_RANK}\n"


@pytest.mark.parametrize(
    "command",
    [("table1",), ("table1", "--check"), ("ferus", "--scan")],
    ids=["table1", "table1-check", "ferus-scan"],
)
def test_n_range_above_the_span_cap(run, command):
    start = time.perf_counter()
    code, out, err = run(*command, "--p-range", "2:2", "--n-range", "0:100000000")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"above the largest n span {pairdb.MAX_N_SPAN}" in err


class TestClassifyCommand:
    def test_g2_short(self, run):
        code, out, _ = run("classify", "--pair", "g2|so(4)", "--root", "short")
        assert code == 0
        assert "G2ShortRoot" in out

    def test_non_root_direction(self, run):
        code, out, _ = run("classify", "--pair", "e6|f4", "--root", "1,1,-2")
        assert code == 0
        assert "NotParallelToRoot" in out

    def test_f4_short_not_degenerate(self, run):
        code, out, _ = run(
            "--format", "json", "classify", "--pair", "f4|su(2)+sp(3)", "--root", "short"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is False
        assert payload["rule"] == "ShortRootNonG2"

    def test_with_curvature(self, run):
        code, out, _ = run(
            "--format", "json", "classify",
            "--pair", "so(2p+n)|so(p)+so(p+n)", "--p", "2", "--n", "3",
            "--root", "1,1", "--xi", "1,-1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["curvature_spectrum"] == [["-1", 3], ["0", 1], ["1", 3]]

    # On A3, H = (1, 3, -1, -3) folds to (3, 1, -1, -3); xi = (-3, 1, 3, -1) is
    # normal to H only, and (1, -3, 3, -1), its image under the same swap, to
    # the folded H only.
    A3 = ("classify", "--pair", "su(p+1)|so(p+1)", "--p", "3", "--root", "1,3,-1,-3")

    def test_xi_is_normal_to_the_given_h(self, run):
        code, out, err = run("--format", "json", *self.A3, "--xi=-3,1,3,-1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["H"] == ["3", "1", "-1", "-3"]
        assert payload["curvature_spectrum"] == [["-2", 2], ["-1/3", 1], ["1/2", 2], ["3", 1]]

    def test_xi_normal_to_the_folded_h_only_is_refused(self, run):
        code, out, err = run(*self.A3, "--xi=1,-3,3,-1")
        assert (code, out) == (1, "")
        assert err == (
            "error: xi=RootVec(1, -3, 3, -1) is not orthogonal to H=RootVec(1, 3, -1, -3)\n"
        )

    def test_xi_of_another_dimension(self, run):
        code, out, err = run(
            "classify", "--pair", "su(p+1)|so(p+1)", "--p", "2", "--root", "highest",
            "--xi", "1,1",
        )
        assert (code, out) == (1, "")
        assert err == "error: dimension mismatch: xi 2 vs 3\n"

    def test_unknown_pair(self, run):
        code, _, err = run("classify", "--pair", "su(9)|nothing", "--root", "long")
        assert code == 1

    def test_malformed_vector(self, run):
        code, _, err = run("classify", "--pair", "e6|f4", "--root", "1,x,0")
        assert code == 1

    def test_non_normal_xi(self, run):
        code, _, err = run(
            "classify", "--pair", "e6|f4", "--root", "highest", "--xi", "1,0,-1"
        )
        assert code == 1
        assert "orthogonal" in err

    @pytest.mark.parametrize("pair,vector,label", [
        ("e6|f4", "2,0,1", "A2"),
        ("su(p+1)|so(p+1)", "1,0,0", "A2"),
        ("g2|so(4)", "1,1,1", "G2"),
        ("e7|su(8)", "0,0,0,0,0,0,1,1", "E7"),
        ("e6|sp(4)", "0,0,0,0,0,1,0,0", "E6"),
    ])
    def test_a_point_outside_the_root_span(self, run, pair, vector, label):
        # (2, 0, 1) projects onto the long root (1, -1, 0) of A2; the rest,
        # (1, 1, 1), lies along no root and is orthogonal to every one.
        code, out, err = run("classify", "--pair", pair, "--root", vector)
        assert (code, out) == (1, "")
        shown = vector.replace(",", ", ")
        assert err == f"error: RootVec({shown}) is not in the span of the roots of {label}\n"

    def test_a_normal_outside_the_root_span(self, run):
        code, out, err = run(
            "classify", "--pair", "g2|so(4)", "--root", "short", "--xi", "1,1,1"
        )
        assert (code, out) == (1, "")
        assert err == "error: RootVec(1, 1, 1) is not in the span of the roots of G2\n"

    def test_rank_above_the_cap(self, run):
        start = time.perf_counter()
        code, out, err = run(
            "classify", "--pair", "su(p+1)|so(p+1)", "--p", "3000", "--root", "highest"
        )
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == f"error: rank 3000 of A is above the largest rank {rootsys.MAX_RANK}\n"

    def test_orbit_class_missing_from_family(self, run):
        code, _, err = run("classify", "--pair", "e8|so(16)", "--root", "middle")
        assert code == 1
        assert "middle" in err


class TestFerusCommand:
    def test_certificate(self, run):
        code, out, _ = run("--format", "json", "ferus", "--l", "57")
        assert code == 0
        assert json.loads(out)["F"] == 56

    def test_identities(self, run):
        code, out, _ = run("ferus", "--verify-identities", "--qmax", "6", "--lmax", "128")
        assert code == 0
        assert "verified" in out

    def test_scan(self, run):
        code, out, _ = run(
            "--format", "csv", "ferus", "--scan", "--p-range", "2:2", "--n-range", "1:1"
        )
        assert code == 0
        assert "g2|so(4),,,long,true,5,4,4,true" in out

    def test_certificate_for_a_huge_l(self, run):
        start = time.perf_counter()
        code, out, _ = run("--format", "json", "ferus", "--l", "1000000000000")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["F"] == 10**12

    def test_scan_above_the_rank_cap(self, run):
        start = time.perf_counter()
        code, out, err = run("ferus", "--scan", "--p-range", "2:3000")
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert err == f"error: rank 3000 of A is above the largest rank {rootsys.MAX_RANK}\n"

    # Literal values, so that a build without the caps runs them in the child.
    @pytest.mark.parametrize(
        "flag,value", [("--qmax", 0), ("--qmax", 100_000), ("--lmax", -3), ("--lmax", 10**9)]
    )
    def test_identity_bounds_out_of_range(self, flag, value):
        line = refused_in_a_child("ferus", "--verify-identities", flag, str(value))
        cap = ferus.MAX_QMAX if flag == "--qmax" else ferus.MAX_LMAX
        assert line == f"error: {flag} {value} is outside 1 to {cap}"

    def test_identity_bounds_one_past_the_cap(self):
        for flag, cap in (("--qmax", ferus.MAX_QMAX), ("--lmax", ferus.MAX_LMAX)):
            line = refused_in_a_child("ferus", "--verify-identities", flag, str(cap + 1))
            assert line == f"error: {flag} {cap + 1} is outside 1 to {cap}"

    def test_identity_bounds_of_one_are_accepted(self, run):
        code, out, _ = run("ferus", "--verify-identities", "--qmax", "1", "--lmax", "1")
        assert code == 0
        assert out == "ferus identities: monotone on [1, 1], powers and ranges verified for q <= 1\n"

    def test_help_states_the_caps(self, run):
        code, out, _ = run("ferus", "--help")
        assert code == 0
        flat = " ".join(out.split())
        assert f"(1 to {ferus.MAX_QMAX})" in flat and f"(1 to {ferus.MAX_LMAX})" in flat

    def test_flag_exclusivity(self, run):
        code, _, err = run("ferus", "--l", "5", "--scan")
        assert code == 1


class TestAppendixCommand:
    @pytest.mark.parametrize("algebra", ["g2", "f4", "e6", "e7", "e8"])
    def test_verdicts(self, run, algebra):
        code, out, _ = run("--format", "json", "appendix", "--algebra", algebra)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["projected_type"] == ("G2" if algebra == "g2" else "F4")

    def test_unknown_algebra(self, run):
        code, _, _ = run("appendix", "--algebra", "b3")
        assert code == 1


class TestUserSuppliedDatabase:
    CUSTOM = (
        "pair toy(2p+1)|toy(p)\n"
        "  g toy(2p+1)\n"
        "  k toy(p)\n"
        "  type B p\n"
        "  params p 2 *\n"
        "  mult e_i 5\n"
        "  mult e_i+-e_j 2\n"
        "  dim_m 2*p*p+4*p\n"
        "end\n"
    )

    def test_a_d_record_from_rank_two_is_refused(self, run, tmp_path):
        # D2 = A1 x A1 is reducible: the record's smallest pair is refused.
        path = tmp_path / "pairs.dat"
        path.write_text(PAIRS_DAT.replace(
            "  type D p\n  params p 3 *\n", "  type D p\n  params p 2 *\n", 1))
        line = PAIRS_DAT.splitlines().index("pair so(2p)|so(p)+so(p)") + 1
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == f"error: line {line}: family D requires rank >= 3, got 2\n"

    def test_classify_against_custom_pair(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM)
        code, out, _ = run(
            "--pairs", str(path), "--format", "json",
            "classify", "--pair", "toy(2p+1)|toy(p)", "--p", "3", "--root", "highest",
        )
        assert code == 0
        payload = json.loads(out)
        # B_3, m(e_i)=5, m(e_i+-e_j)=2: l = 2 + 4*5 + ... at e_1+e_2:
        # contributing roots: delta(2) + e_1,e_2 (5+5) + e_i+-e_j pairs (2*4)
        assert payload["l"] == 2 + 10 + 8
        assert payload["nullity"] == 2
        assert payload["rule"] == "LongRoot"

    def test_scan_uses_custom_database(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM)
        code, out, _ = run(
            "--pairs", str(path), "--format", "csv",
            "ferus", "--scan", "--p-range", "2:3", "--n-range", "0:0",
        )
        assert code == 0
        data_lines = [ln for ln in out.splitlines() if ln.startswith("toy")]
        assert len(data_lines) == 4  # two ranks x (long, short)

    def test_invalid_custom_database(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("dim_m 2*p*p+4*p", "dim_m 98"))
        code, _, err = run("--pairs", str(path), "pairs", "list")
        assert code == 1
        assert "98" in err or "rank" in err

    def test_expression_dividing_by_zero(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("dim_m 2*p*p+4*p", "dim_m 2*p*p+4*p/(p-p)"))
        code, _, err = run("--pairs", str(path), "pairs", "list")
        assert code == 1
        assert err == "error: line 8: expression '2*p*p+4*p/(p-p)' divides by zero\n"

    def test_long_expression_error_is_one_short_line(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        long_sum = "+".join(["p"] * 100_000)
        path.write_text(self.CUSTOM.replace("dim_m 2*p*p+4*p", "dim_m " + long_sum))
        code, _, err = run("--pairs", str(path), "pairs", "list")
        assert code == 1
        assert err.startswith("error: line 8: expression 'p+p+p")
        assert err.count("\n") == 1 and len(err) < 120

    @pytest.mark.parametrize("name", ["toy(2(p+1))", "y(n/(p-p))"])
    def test_name_with_nested_parentheses(self, run, tmp_path, name):
        # Only the innermost part would be evaluated: "toy(2(4))" at p = 3.
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("  k toy(p)\n", f"  k {name}\n"))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == f"error: line 1: name {name!r} nests parentheses\n"

    # One A_p family with multiplicity m; dim_m = p(p+1)/2 * m + p stays
    # consistent with it.
    A_FAMILY = (
        "pair toy(p+1)|toy(p)\n"
        "  g toy(p+1)\n"
        "  k toy(p)\n"
        "  type A p\n"
        "  params p 2 *\n"
        "  mult all {m}\n"
        "{flags}"
        "  dim_m p*(p+1)*({m})/2+p\n"
        "end\n"
    )

    @pytest.mark.parametrize("m,flags,error", [
        pytest.param("3", "  flags group_manifold\n",
                     "line 1: toy(p+1)|toy(p): group manifold with multiplicities != 2",
                     id="3-  flags group_manifold\n-group manifold with multiplicities != 2"),
        pytest.param("p-2", "", "line 6: expression 'p-2' is 0 < 1 at p=2",
                     id="p-2--multiplicity of all is 0 < 1"),
    ])
    def test_instantiate_refuses_the_smallest_pair(self, run, tmp_path, m, flags, error):
        # Both are proved at load, the multiplicity on its own line, so no
        # instantiation refuses them.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m=m, flags=flags))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == f"error: {error}\n"

    def test_dim_m_wrong_above_p_min(self, run, tmp_path):
        # Right at p = 2 (3 + 2 + 0 = 5), wrong from p = 3: the identity in p
        # refuses it at load, not at the first bad instance.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="1", flags="").replace(
            "dim_m p*(p+1)*(1)/2+p", "dim_m p*(p+1)/2+p+(p-2)"))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == (
            "error: line 1: toy(p+1)|toy(p): multiplicity total p*p/2+p/2 + rank p"
            " != dim_m p*p/2+5p/2-2\n"
        )

    def test_multiplicity_not_integral_above_p_min(self, run, tmp_path):
        # p/2 is 1 at p = 2 and 3/2 at p = 3, and dim_m follows it, so the
        # identity holds: only integrality on the quadrant p >= 2 refuses it.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="p/2", flags=""))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == "error: line 6: expression 'p/2' is not integral: 3/2\n"

    def test_multiplicity_below_one_above_p_min(self, run, tmp_path):
        # 3-p is 1 at p = 2 and 0 at p = 3, and dim_m follows it, so the
        # identity holds: only its fall along the unbounded p axis refuses it.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="3-p", flags=""))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == "error: line 6: expression '3-p' falls below 1 as p grows\n"

    def test_falling_multiplicity_on_a_bounded_range_loads(self, run, tmp_path):
        # 5-p is 3, 2 and 1 at p = 2, 3 and 4, the corners of its range.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="5-p", flags="").replace(
            "params p 2 *", "params p 2 4"))
        code, out, err = run("--pairs", str(path), "--format", "csv", "pairs", "list")
        assert (code, err) == (0, "")
        assert out == "key,type,rank,p,n,flags\ntoy(p+1)|toy(p),A,p,2:4,-,-\n"

    def test_multiplicity_of_degree_two_is_refused(self, run, tmp_path):
        # p(p+1)/2 is an integer at every p, but no multiplicity of a
        # symmetric space is of degree 2.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="p*(p+1)/2", flags=""))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == "error: line 6: expression 'p*(p+1)/2' is not affine in p and n\n"

    @pytest.mark.parametrize("name,message", [
        ("su(p/2)", "expression 'p/2' is not integral: 3/2"),
        ("su(p*p)", "expression 'p*p' is not affine in p and n"),
    ])
    def test_name_part_is_affine_and_integral(self, run, tmp_path, name, message):
        # su(p/2) renders at p = 2; it is refused at load, not by a table at p = 3.
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("  g toy(2p+1)\n", f"  g {name}\n"))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == f"error: line 1: {message}\n"

    def test_expression_of_high_degree_is_refused_at_once(self, run, tmp_path):
        # A product of k factors expands in time that grows like k^3: 200
        # factors took seconds before the degree cap refused them.
        path = tmp_path / "pairs.dat"
        product = "*".join(["(p+n+1)"] * 200)
        path.write_text(self.CUSTOM.replace("dim_m 2*p*p+4*p", "dim_m " + product))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == (f"error: line 8: expression {product[:60]!r}... has degree above "
                       f"{expr.MAX_DEGREE}\n")

    @pytest.mark.parametrize("name,message", [
        ("toy(p+m)", "expression 'p+m' needs a value for 'm'"),
        ("toy(p,n)", "unsupported construct in expression 'p,n'"),
    ])
    def test_name_part_that_is_no_expression(self, run, tmp_path, name, message):
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("  k toy(p)\n", f"  k {name}\n"))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == f"error: line 1: {message}\n"

    def test_dividing_by_an_expression_in_p(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="(p+1)/(p+1)", flags=""))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == (
            "error: line 6: expression '(p+1)/(p+1)' divides by an expression in p or n\n"
        )

    def test_implicit_multiplication_uses_n(self, run, tmp_path):
        # "2n" is 2*n: the record uses n, so it needs its params n.
        path = tmp_path / "pairs.dat"
        path.write_text(
            "pair toy(p+n)|toy(n)\n  g toy(p+n)\n  k toy(n)\n  type B p\n"
            "  params p 2 *\n  params n 1 *\n  mult e_i 2n\n  mult e_i+-e_j 1\n"
            "  dim_m p*p+2n*p\nend\n"
        )
        code, out, err = run("--pairs", str(path), "--format", "csv", "pairs", "list")
        assert (code, err) == (0, "")
        assert out == "key,type,rank,p,n,flags\ntoy(p+n)|toy(n),B,p,2:*,1:*,-\n"

    def test_table1_on_a_bounded_range(self, run, tmp_path):
        # The row is one identity in p, so a range of two values is enough.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="1", flags="").replace(
            "params p 2 *", "params p 2 3"))
        code, out, err = run("--pairs", str(path), "--format", "csv", "table1")
        assert (code, err) == (0, "")
        assert out == "type,rank,g,k,l,r,l-r\nA,p,toy(p+1),toy(p),2p-1,2p-2,1\n"

    # C_p with m(e_i+-e_j) = p: l = (2p-2) p + 1 at the highest root.
    C_QUADRATIC = (
        "pair sq(p)|toy(p)\n  g sq(p)\n  k toy(p)\n  type C p\n  params p 2 *\n"
        "  mult e_i+-e_j p\n  mult 2e_i 1\n  dim_m p*p*p-p*p+2p\nend\n"
    )

    def test_table1_with_l_of_degree_two(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.C_QUADRATIC)
        code, out, err = run("--pairs", str(path), "--format", "csv", "table1")
        assert (code, err) == (0, "")
        assert out == "type,rank,g,k,l,r,l-r\nC,p,sq(p),toy(p),2p*p-2p+1,2p*p-2p,1\n"

    @pytest.mark.parametrize("rank,params,dim_m", [
        pytest.param("p", "  params p 1 *\n", "p*p+p", id="at-p_min"),
        pytest.param("1", "", "2", id="fixed"),
    ])
    def test_rank_below_two_is_refused(self, run, tmp_path, rank, params, dim_m):
        # B_1's one root e_1 breaks the class counts, which hold from rank 2 up.
        path = tmp_path / "pairs.dat"
        path.write_text(f"pair x|y\n  g x\n  k y\n  type B {rank}\n{params}"
                        f"  mult e_i 1\n  mult e_i+-e_j 1\n  dim_m {dim_m}\nend\n")
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == "error: line 1: x|y: rank 1 < 2\n"

    def test_name_part_below_one_is_refused(self, run, tmp_path):
        # toy(p-3) would print as toy(-1) at p = 2.
        path = tmp_path / "pairs.dat"
        path.write_text(self.CUSTOM.replace("  k toy(p)\n", "  k toy(p-3)\n"))
        code, out, err = run("--pairs", str(path), "pairs", "list")
        assert (code, out) == (1, "")
        assert err == "error: line 1: expression 'p-3' is -1 < 1 at p=2\n"

    def test_table_value_not_affine_in_p(self, run, tmp_path):
        # m = p gives l = (2p - 1) p at the highest root, exact as a polynomial;
        # the degeneracy l - r = p is what no table row can hold.
        path = tmp_path / "pairs.dat"
        path.write_text(self.A_FAMILY.format(m="p", flags=""))
        code, out, err = run("--pairs", str(path), "table1")
        assert (code, out) == (2, "")
        assert err == "toy(p+1)|toy(p): l-r = p is not constant\n"


class TestFixedRankFamilyWithN:
    """A family of fixed rank with an n parameter is walked over the n grid."""

    G2_N = (
        "pair g2|toy(n)\n"
        "  g g2\n"
        "  k toy(n)\n"
        "  type G2 2\n"
        "  params n 1 *\n"
        "  mult short n\n"
        "  mult long 1\n"
        "  dim_m 3*n+5\n"
        "end\n"
    )

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(self.G2_N)
        return str(path)

    @staticmethod
    def classified(run, path, n, orbit):
        code, out, _ = run(
            "--pairs", path, "--format", "json",
            "classify", "--pair", "g2|toy(n)", "--n", str(n), "--root", orbit,
        )
        assert code == 0
        return json.loads(out)

    def test_table1_has_a_row_per_n(self, run, path):
        code, out, err = run(
            "--pairs", path, "--format", "json",
            "table1", "--p-range", "2:3", "--n-range", "1:2",
        )
        assert (code, err) == (0, "")
        # A table's JSON holds its values typed, p null for an unused p.
        rows = json.loads(out)
        assert [(row["k"], row["p"], row["n"]) for row in rows] == [
            ("toy(1)", None, 1), ("toy(2)", None, 2)
        ]
        for row in rows:
            want = self.classified(run, path, row["n"], "highest")
            assert (row["l"], row["r"], row["l-r"]) == (want["l"], want["r"], want["nullity"])

    def test_scan_has_two_rows_per_n(self, run, path):
        code, out, err = run(
            "--pairs", path, "--format", "json",
            "ferus", "--scan", "--p-range", "2:3", "--n-range", "1:3",
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert [(row["p"], row["n"], row["orbit"]) for row in rows] == [
            (None, n, orbit) for n in (1, 2, 3) for orbit in ("long", "short")
        ]
        for row in rows:
            want = self.classified(run, path, row["n"], row["orbit"])
            assert (row["degenerate"], row["l"], row["r"]) == (
                want["degenerate"], want["l"], want["r"]
            )


class TestPairsCommand:
    def test_list(self, run):
        code, out, _ = run("pairs", "list")
        assert code == 0
        assert "e8\\|su(2)+e7" in out

    def test_pairs_override(self, run, tmp_path):
        path = tmp_path / "pairs.dat"
        path.write_text(PAIRS_DAT)
        code, out, _ = run("--pairs", str(path), "pairs", "list")
        assert code == 0
        assert "g2\\|so(4)" in out

    def test_zero_upper_bound_is_shown_as_zero(self, run, tmp_path):
        # "*" stands for no upper bound; a bound of 0 is a bound.
        path = tmp_path / "pairs.dat"
        path.write_text(
            "pair so(2p+n)|so(p)+so(p+n)\n"
            "  g so(2p+n)\n"
            "  k so(p)+so(p+n)\n"
            "  type B p\n"
            "  params p 2 *\n"
            "  params n 0 0\n"
            "  mult e_i n+1\n"
            "  mult e_i+-e_j 1\n"
            "  dim_m p*(p+n+1)\n"
            "end\n"
        )
        code, out, _ = run("--pairs", str(path), "--format", "csv", "pairs", "list")
        assert code == 0
        assert out.splitlines()[1] == "so(2p+n)|so(p)+so(p+n),B,p,2:*,0:0,-"
        code, out, err = run(
            "--pairs", str(path), "classify", "--pair", "so(2p+n)|so(p)+so(p+n)",
            "--p", "2", "--n", "3", "--root", "highest",
        )
        assert (code, out) == (1, "")
        assert err == "error: so(2p+n)|so(p)+so(p+n): n=3 outside [0, 0]\n"


class TestPlumbing:
    def test_help(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "table1" in out

    def test_unknown_command(self, run):
        code, _, err = run("nope")
        assert code == 1

    def test_missing_pairs_file(self, run):
        code, _, _ = run("--pairs", "/does/not/exist", "pairs", "list")
        assert code == 1

    MALFORMED = "pair x|y\n  nonsense here\nend\n"

    @pytest.mark.parametrize("argv", [
        ("appendix", "--algebra", "g2"), ("ferus", "--l", "5"),
        ("ferus", "--verify-identities", "--qmax", "2", "--lmax", "8"),
    ])
    def test_a_command_that_reads_no_database_ignores_a_bad_one(self, run, tmp_path, argv):
        path = tmp_path / "pairs.dat"
        path.write_text(self.MALFORMED)
        assert run("--pairs", str(path), *argv) == run(*argv)
        assert run(*argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ("pairs", "list"), ("table1",), ("table1", "--check"), ("ferus", "--scan"),
        ("classify", "--pair", "e6|f4", "--root", "highest"),
    ])
    def test_a_command_that_reads_the_database_refuses_a_bad_one(self, run, tmp_path, argv):
        path = tmp_path / "pairs.dat"
        path.write_text(self.MALFORMED)
        assert run("--pairs", str(path), *argv) == (
            1, "", "error: line 2: unknown field 'nonsense'\n")


class TestUsageErrors:
    """A click usage error is one `error:` line on stderr and exit 1."""

    @pytest.mark.parametrize("argv,line", [
        (("table1", "--p-range", "5:3"), "error: empty range '5:3'"),
        (("table1", "--bogus"), "error: No such option '--bogus'."),
        (("classify", "--pair", "nope", "--root", "long"), "error: unknown pair 'nope'"),
        (("appendix",), "error: Missing option '--algebra'. Choose from: f4, e6, e7, e8, g2"),
    ])
    def test_one_line(self, run, argv, line):
        assert run(*argv) == (1, "", line + "\n")

    def test_key_error_without_quotes(self, run, monkeypatch):
        def missing(db):
            raise KeyError("unknown pair 'x'")

        monkeypatch.setattr(report, "table1_rows", missing)
        assert run("table1") == (1, "", "error: unknown pair 'x'\n")

    @pytest.mark.parametrize("argv", [("--help",), ("table1", "--help"), ("pairs", "--help")])
    def test_help_is_unchanged(self, run, argv):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("Usage: ") and "Options:" in out

    @pytest.mark.parametrize("argv", [(), ("pairs",), ("--format", "csv", "pairs")])
    def test_a_bare_group_prints_its_help(self, run, argv):
        assert run(*argv) == run(*argv, "--help")


def _leaf_commands(group, prefix=()):
    # (argv prefix, command) of every runnable subcommand.
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, prefix + (name,))
        else:
            yield prefix + (name,), command


def _ranges(lo, hi):
    ints = st.integers(min_value=lo, max_value=hi)
    return st.one_of(
        st.builds("{}:{}".format, ints, ints),
        st.sampled_from(["", "3", "a:b", "1:2:3", ":"]),
    )


_VECTORS = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=9).map(
        lambda xs: ",".join(map(str, xs))
    ),
    st.sampled_from(["", "1,x", "1/0", "1e9", "0,0,0"]),
)

# Values per option name; every range and cap stays small, so each case
# runs in bounded time.  An option missing here gets a small integer.
_OPTION_VALUES = {
    "--format": st.sampled_from(["md", "csv", "json", "xml"]),
    "--pairs": st.sampled_from(["/does/not/exist"]),
    "--p-range": _ranges(-2, 5),
    "--n-range": _ranges(-1, 4),
    "--pair": st.sampled_from([fam.key for fam in pairdb.load_database()] + ["nope"]),
    "--root": st.one_of(st.sampled_from(["highest", "long", "short", "middle"]), _VECTORS),
    "--xi": _VECTORS,
    "--p": st.integers(min_value=-2, max_value=8).map(str),
    "--n": st.integers(min_value=-2, max_value=6).map(str),
    "--l": st.integers(min_value=-3, max_value=10**15).map(str),
    "--qmax": st.integers(min_value=-1, max_value=ferus.MAX_QMAX + 1).filter(
        lambda q: q < 12 or q > ferus.MAX_QMAX
    ).map(str),
    "--lmax": st.integers(min_value=-1, max_value=3000).map(str),
    "--algebra": st.sampled_from(["g2", "f4", "e6", "b3"]),
}


def _option_argv(command):
    # A few of the command's real options, each with a value when it takes one.
    options = [
        (param.opts[0], param.is_flag)
        for param in command.params
        if isinstance(param, click.Option)
    ]

    if not options:
        return st.just(())

    def with_value(option):
        name, is_flag = option
        if is_flag:
            return st.just((name,))
        values = _OPTION_VALUES.get(name, st.integers(-2, 9).map(str))
        return values.map(lambda v: (name, v))

    return st.lists(st.sampled_from(options).flatmap(with_value), max_size=4).map(
        lambda parts: tuple(x for part in parts for x in part)
    )


@st.composite
def _argvs(draw):
    argv = draw(_option_argv(cli.cli))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        # A bare group: `gaussorbits`, or `gaussorbits [options] pairs`.
        return draw(st.sampled_from([(), argv + ("pairs",)]))
    prefix, command = draw(st.sampled_from(list(_leaf_commands(cli.cli))))
    argv += prefix + draw(_option_argv(command))
    return argv + tuple(draw(st.lists(st.sampled_from(["--bogus", "extra"]), max_size=1)))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_main_fuzz(capsys, argv):
    # Any argv from the real names answers, fails a check, or is refused in
    # one line; none shows a traceback.
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert len(err.splitlines()) <= 1 and not out, (argv, err)
