"""Table builders and emitters (markdown, CSV, JSON) plus the golden check.

Each symbolic row of the classification table is an identity in the
family integers p and n: l at the highest root is a sum of class counts
times multiplicities, all polynomials, and is rendered in their normal
form, like "4p+2n-7".  The embedded golden file `table1.expected` stores
the published formulas in the same normal form, so `check_table1` can
diff both the symbolic table and the classified values over an
instantiation grid against it.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from importlib import resources
from operator import attrgetter

from . import ferus, orbits, pairdb, rootsys
from .expr import compile_expr
from .rootsys import RootVec


class VerificationFailure(Exception):
    """A --check style comparison found mismatches."""


# The default instantiation grid of `table1` and `table1 --check`.
TABLE1_P_RANGE = (2, 6)
TABLE1_N_RANGE = (1, 4)


@dataclass(frozen=True)
class Table1Row:
    rstype: str = field(metadata={"header": "type"})
    rank: str
    g: str
    k: str
    l: str
    r: str
    degeneracy: int = field(metadata={"header": "l-r"})

    def __post_init__(self):
        # degeneracy must equal l - r at every (p, n): one identity.
        got = compile_expr(self.l) - compile_expr(self.r)
        if got != compile_expr(str(self.degeneracy)):
            raise ValueError(f"degeneracy {self.degeneracy} != l-r = {got}")


def table1_rows(db: pairdb.PairDatabase) -> list[Table1Row]:
    """Symbolic classification table, one row per database family.

    The orbit through the highest root theta is degenerate, theta being
    long: l is the long row of rootsys.HIGHEST_COUNTS times the
    multiplicities, and l - r is the multiplicity of theta's class, the last.
    """
    rows = []
    for family in db:
        l = family.class_sum(rootsys.HIGHEST_COUNTS[family.family]["long"])
        degeneracy = family.mult[-1][1]
        if degeneracy.variables:
            raise VerificationFailure(f"{family.key}: l-r = {degeneracy} is not constant")
        rows.append(Table1Row(family.family, family.rank_expr, family.g_name, family.k_name,
                              l=str(l), r=str(l - degeneracy), degeneracy=degeneracy()))
    return rows


@dataclass(frozen=True)
class Table1Instance:
    rstype: str = field(metadata={"header": "type"})
    g: str
    k: str
    p: int | None
    n: int | None
    l: int
    r: int
    degeneracy: int = field(metadata={"header": "l-r"})


def table1_instances(
    db: pairdb.PairDatabase,
    p_range: tuple[int, int],
    n_range: tuple[int, int],
) -> list[Table1Instance]:
    """Numeric table over a parameter grid (clipped to each row's bounds)."""
    return [
        Table1Instance(
            pair.rstype.family,
            *pair.family.names(pair.p, pair.n),
            p=pair.p,
            n=pair.n,
            l=rep.l,
            r=rep.r,
            degeneracy=rep.nullity,
        )
        for pair, _, rep in orbits.sweep(db.instantiations(p_range, n_range))
    ]


@dataclass(frozen=True)
class PairsRow:
    key: str
    rstype: str = field(metadata={"header": "type"})
    rank: str
    p: str
    n: str
    flags: str


def load_expected() -> list[Table1Row]:
    """The golden table, read as the symbolic CSV output writes it.

    A file whose header is not that output's header is refused.
    """
    text = resources.files("gaussorbits").joinpath("data/table1.expected").read_text()
    reader = csv.reader(io.StringIO(text))
    headers, _ = cells(Table1Row, [])
    got = next(reader, [])
    if got != headers:
        raise ValueError(
            f"table1.expected has header {','.join(got)!r}, expected {','.join(headers)!r}"
        )
    types = typing.get_type_hints(Table1Row)
    names = [f.name for f in fields(Table1Row)]
    return [
        Table1Row(*(types[name](cell) for name, cell in zip(names, rec, strict=True)))
        for rec in reader
    ]


def check_table1(
    db: pairdb.PairDatabase,
    p_range: tuple[int, int] = TABLE1_P_RANGE,
    n_range: tuple[int, int] = TABLE1_N_RANGE,
) -> list[str]:
    """Mismatches between computed table values and the golden file.

    Compares the symbolic rows exactly, then every instantiation of every
    row over the grid against the golden formulas.  An empty list means a
    clean check.
    """
    problems: list[str] = []
    expected = load_expected()
    computed = table1_rows(db)
    if len(expected) != len(computed):
        problems.append(f"row count {len(computed)} != expected {len(expected)}")
    for exp, got in zip(expected, computed):
        if exp != got:
            problems.append(f"symbolic row differs: computed {got} expected {exp}")
    by_gk = {(row.g, row.k): row for row in expected}
    # A family with no expected row is not instantiated.
    checked = pairdb.PairDatabase([f for f in db if (f.g_name, f.k_name) in by_gk])
    for pair, _, report in orbits.sweep(checked.instantiations(p_range, n_range)):
        exp = by_gk[pair.family.g_name, pair.family.k_name]
        want_l, want_r = (compile_expr(f)(pair.p, pair.n) for f in (exp.l, exp.r))
        if (report.l, report.r, report.nullity) != (want_l, want_r, exp.degeneracy):
            problems.append(
                f"{pair.label()}: computed (l, r, l-r) = "
                f"({report.l}, {report.r}, {report.nullity}), expected "
                f"({want_l}, {want_r}, {exp.degeneracy})"
            )
    return problems


# ---------------------------------------------------------------------------
# generic rendering

def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "md":
        headers = [h.replace("|", "\\|") for h in headers]
        rows = [[c.replace("|", "\\|") for c in r] for r in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out += [line(r) for r in rows]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def text(value) -> str:
    """The md and csv text of a value: "" for None, true or false for a bool,
    a list's items' text joined by spaces, str() otherwise."""
    # Identity and exact-type tests, not isinstance: the wide scan's 52k cells pass here.
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is list:
        return " ".join(map(text, value))
    return str(value)


def cells(cls, rows) -> tuple[list[str], list[list[str]]]:
    """Headers and string cells of dataclass rows, one column per field of cls.

    Columns follow the field order, and a field's header is its name unless
    its metadata names another.  A cell is the `text` of its value.
    """
    # Every row class has two fields or more, so get returns a tuple.
    get = attrgetter(*(f.name for f in fields(cls)))
    headers = [f.metadata.get("header", f.name) for f in fields(cls)]
    return headers, [list(map(text, get(row))) for row in rows]


def render_rows(cls, rows, fmt: str) -> str:
    """A table of cls rows: JSON of their to_json dicts, md or csv of their cells."""
    if fmt == "json":
        return render_json([to_json(row) for row in rows])
    return render_table(*cells(cls, rows), fmt)


def scan_cells(rows: list[ferus.ScanRow]):
    return cells(ferus.ScanRow, rows)


def to_json(value):
    """JSON-ready form of a report value.

    A dataclass becomes a dict of its fields keyed by column header, as in
    `cells`, a RootVec a list of rational strings, a Fraction one rational
    string and a tuple a list; other values pass through unchanged.
    """
    if is_dataclass(value):
        return {f.metadata.get("header", f.name): to_json(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, RootVec):
        return [str(c) for c in value.coords]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value
