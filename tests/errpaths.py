"""Error-path comparison: the CLI's answers on this tree against a revision's.

    python tests/errpaths.py --against REV    # REV: a commit, branch or tag

The cases are a fixed list of argvs: each subcommand's refusals, a few
commands run with a malformed `--pairs` file or with one whose first D
record starts at rank 2 (D2 is reducible), and `pairs list` on every
deterministic one-line mutation of `pairs.dat` (each line cut, doubled, or
one token swapped for each of a few replacements).  REV's `src/` is taken
with `git archive` into a temporary directory.  Each side runs every case
through `gaussorbits.cli.main` in one fresh interpreter of its own, the
working tree's `src/` or REV's, and the probe prints each case whose exit
code, stdout or stderr differ, both answers beside it.  The exit status is
1 when a case differs.  It writes nothing in the repository, and the file
name has no test_ prefix, so the test suite does not collect it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).parents[1]
PAIRS_DAT = ROOT / "src" / "gaussorbits" / "data" / "pairs.dat"
MALFORMED = "pair x|y\n  nonsense here\nend\n"

# Each subcommand's refusals, and the global options'.
REFUSALS = [
    ["--format", "xml", "pairs", "list"],
    ["--pairs", "/does/not/exist", "pairs", "list"],
    ["nope"],
    ["table1", "--bogus"],
    ["table1", "--p-range", "5:3"],
    ["table1", "--p-range", "a:b"],
    ["table1", "--n-range", "1:2:3"],
    ["table1", "--p-range", "2:3000"],
    ["table1", "--check", "--p-range", "2:3000"],
    ["table1", "--p-range", "2:2", "--n-range", "0:100000000"],
    ["classify", "--root", "long"],
    ["classify", "--pair", "e6|f4"],
    ["classify", "--pair", "nope", "--root", "long"],
    ["classify", "--pair", "e6|f4", "--root", "1,x"],
    ["classify", "--pair", "e6|f4", "--root", "1e9,0,0"],
    ["classify", "--pair", "e6|f4", "--root", "0,0,0"],
    ["classify", "--pair", "e6|f4", "--root", "1,0"],
    ["classify", "--pair", "e6|f4", "--root", "1,1,1"],
    ["classify", "--pair", "e6|f4", "--root", "middle"],
    ["classify", "--pair", "e6|f4", "--root", "highest", "--xi", "1,-1,0"],
    ["classify", "--pair", "su(p+1)|so(p+1)", "--p", "2", "--root", "highest", "--xi", "1,1"],
    # xi normal to the given H only, then to H's chamber point only
    ["classify", "--pair", "su(p+1)|so(p+1)", "--p", "3", "--root", "1,3,-1,-3", "--xi=-3,1,3,-1"],
    ["classify", "--pair", "su(p+1)|so(p+1)", "--p", "3", "--root", "1,3,-1,-3", "--xi=1,-3,3,-1"],
    ["classify", "--pair", "so(2p)|so(p)+so(p)", "--p", "2", "--root", "highest"],
    ["classify", "--pair", "su(p+1)|so(p+1)", "--p", "71", "--root", "highest"],
    ["classify", "--pair", "so(2p+n)|so(p)+so(p+n)", "--p", "2", "--root", "highest"],
    ["ferus"],
    ["ferus", "--l", "5", "--scan"],
    ["ferus", "--l", "-1"],
    ["ferus", "--l", "x"],
    ["ferus", "--verify-identities", "--qmax", "0"],
    ["ferus", "--verify-identities", "--lmax", "0"],
    ["ferus", "--scan", "--p-range", "2:3000"],
    ["ferus", "--scan", "--n-range", "x"],
    ["appendix"],
    ["appendix", "--algebra", "b3"],
    ["pairs", "bogus"],
    ["pairs", "list", "--bogus"],
]

# Commands run with a malformed --pairs file: those that read the database,
# those that do not, and a few refusals of either kind.
WITH_MALFORMED = [
    ["pairs", "list"],
    ["table1"],
    ["table1", "--check"],
    ["table1", "--bogus"],
    ["classify", "--pair", "e6|f4", "--root", "highest"],
    ["classify", "--root", "long"],
    ["ferus", "--scan"],
    ["ferus", "--scan", "--p-range", "a:b"],
    ["ferus", "--l", "5"],
    ["ferus", "--l", "5", "--scan"],
    ["ferus", "--verify-identities", "--qmax", "2", "--lmax", "8"],
    ["appendix", "--algebra", "g2"],
    ["appendix", "--algebra", "b3"],
]

# Commands run with pairs.dat's first D record starting at rank 2.
WITH_D2 = [
    ["pairs", "list"],
    ["classify", "--pair", "so(2p)|so(p)+so(p)", "--p", "2", "--root", "highest"],
]

# What a token of a pairs.dat line is swapped for, one case each.
REPLACEMENTS = ["0", "-1", "71", "p", "n", "2*p", "*", "G2", "BC", "x",
                "hermitian", "normal_real_form", "group_manifold",
                "quaternionic_F4_exceptional"]


def mutations(text: str):
    """(label, text) of each one-line mutation of text, in a fixed order."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        where = f"pairs.dat line {i + 1}"
        yield f"{where} cut", "".join(lines[:i] + lines[i + 1:])
        yield f"{where} doubled", "".join(lines[:i] + [line, line] + lines[i + 1:])
        tokens = body.split()
        for j, token in enumerate(tokens):
            for new in REPLACEMENTS:
                if new != token:
                    swapped = " ".join(tokens[:j] + [new] + tokens[j + 1:])
                    yield (f"{where} token {j + 1} {token!r} -> {new!r}",
                           "".join(lines[:i] + ["  " + swapped + "\n"] + lines[i + 1:]))


def cases():
    """(label, argv, pairs text or None); "{pairs}" in argv names that text's file."""
    for argv in REFUSALS:
        yield " ".join(argv), argv, None
    for argv in WITH_MALFORMED:
        yield "--pairs <malformed> " + " ".join(argv), ["--pairs", "{pairs}", *argv], MALFORMED
    d2 = PAIRS_DAT.read_text().replace("  type D p\n  params p 3 *\n",
                                       "  type D p\n  params p 2 *\n", 1)
    for argv in WITH_D2:
        yield "--pairs <D from rank 2> " + " ".join(argv), ["--pairs", "{pairs}", *argv], d2
    for label, text in mutations(PAIRS_DAT.read_text()):
        yield label, ["--pairs", "{pairs}", "pairs", "list"], text


def worker() -> None:
    # Run each case of stdin (JSON) through cli.main; print [code, out, err]s.
    from gaussorbits.cli import main

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.dat"
        for argv, text in json.load(sys.stdin):
            if text is not None:
                path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([str(path) if a == "{pairs}" else a for a in argv])
                except BaseException as exc:  # a traceback, shown as the answer
                    code = f"raised {type(exc).__name__}: {exc}"
            results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_side(src: Path, payload: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"], input=payload, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def against(rev: str) -> int:
    listed = list(cases())
    payload = json.dumps([[argv, text] for _, argv, text in listed])
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        theirs = run_side(Path(tmp) / "src", payload)
    ours = run_side(ROOT / "src", payload)
    differ = 0
    for (label, _, _), old, new in zip(listed, theirs, ours):
        if old != new:
            differ += 1
            print(f"{label}\n  {rev}: {_show(old)}\n  tree: {_show(new)}")
    print(f"{differ} of {len(listed)} cases differ from {rev}")
    return int(differ > 0)


def _show(result) -> str:
    code, out, err = result
    if len(out) > 60:
        out = out[:60] + "..."
    return f"exit {code}, stdout {out!r}, stderr {err.strip()!r}"


def main(argv) -> int:
    if argv == ["--worker"]:
        worker()
        return 0
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1])
    print("usage: python tests/errpaths.py --against REV", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
