"""Byte-for-byte CLI output against small goldens in tests/golden/.

Each case runs in process through `cli.main` and compares stdout with
`tests/golden/<name>`.  After a deliberate output change, rewrite
the goldens with `PYTHONPATH=src python tests/test_cli_golden.py` and
review the diff.
"""

import sys
from pathlib import Path

import pytest

from gaussorbits.cli import main

GOLDEN = Path(__file__).parent / "golden"

G2_SHORT = ("classify", "--pair", "g2|so(4)", "--root", "short")
SO_XI = (
    "classify", "--pair", "so(2p+n)|so(p)+so(p+n)",
    "--p", "2", "--n", "3", "--root", "1,1", "--xi", "1,-1",
)
BC = ("classify", "--pair", "sp(2p+n)|sp(p)+sp(p+n)", "--p", "3", "--n", "2")
TABLE1_SMALL = ("table1", "--p-range", "2:3", "--n-range", "1:2")
SCAN_TINY = ("ferus", "--scan", "--p-range", "2:3", "--n-range", "0:1")
CASES = {
    "classify_g2_short.md": G2_SHORT,
    "classify_g2_short.json": ("--format", "json", *G2_SHORT),
    "classify_so_xi.md": SO_XI,
    "classify_so_xi.json": ("--format", "json", *SO_XI),
    "classify_bc_short.json": ("--format", "json", *BC, "--root", "short"),
    "classify_bc_middle.md": (*BC, "--root", "middle"),
    "ferus_57.md": ("ferus", "--l", "57"),
    "ferus_57.json": ("--format", "json", "ferus", "--l", "57"),
    "appendix_g2.md": ("appendix", "--algebra", "g2"),
    "appendix_g2.json": ("--format", "json", "appendix", "--algebra", "g2"),
    "appendix_f4.md": ("appendix", "--algebra", "f4"),
    "appendix_f4.json": ("--format", "json", "appendix", "--algebra", "f4"),
    "appendix_e6.md": ("appendix", "--algebra", "e6"),
    "appendix_e6.json": ("--format", "json", "appendix", "--algebra", "e6"),
    "appendix_e7.md": ("appendix", "--algebra", "e7"),
    "appendix_e7.json": ("--format", "json", "appendix", "--algebra", "e7"),
    "appendix_e8.md": ("appendix", "--algebra", "e8"),
    "appendix_e8.json": ("--format", "json", "appendix", "--algebra", "e8"),
    "table1.md": ("table1",),
    "ferus_scan_small.csv": (
        "--format", "csv", "ferus", "--scan", "--p-range", "2:6", "--n-range", "0:4",
    ),
    "table1_grid.csv": (
        "--format", "csv", "table1", "--p-range", "2:6", "--n-range", "1:4",
    ),
    # Every table kind and every record kind in each format it lacks above.
    "table1.csv": ("--format", "csv", "table1"),
    "table1.json": ("--format", "json", "table1"),
    "table1_small.md": TABLE1_SMALL,
    "table1_small.json": ("--format", "json", *TABLE1_SMALL),
    "ferus_scan_tiny.md": SCAN_TINY,
    "ferus_scan_tiny.json": ("--format", "json", *SCAN_TINY),
    "ferus_57.csv": ("--format", "csv", "ferus", "--l", "57"),
    "classify_so_xi.csv": ("--format", "csv", *SO_XI),
    "appendix_g2.csv": ("--format", "csv", "appendix", "--algebra", "g2"),
    "pairs_list.md": ("pairs", "list"),
    "pairs_list.csv": ("--format", "csv", "pairs", "list"),
    "pairs_list.json": ("--format", "json", "pairs", "list"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(list(argv)) != 0:
                sys.exit(f"{name}: non-zero exit")
        (GOLDEN / name).write_text(buf.getvalue())
