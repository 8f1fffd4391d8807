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
from gaussorbits import cli, ferus, pairdb, report, rootsys
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
        code, out, _ = run("--check", "table1")
        assert code == 0

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
