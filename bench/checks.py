"""Reference computations and output checks for the benchmark.

Nothing here imports gaussorbits.  The expectations come from the paper's
rule (an orbit is degenerate exactly on the line of a long root, or of a
short root when the restricted system is G2, with degeneracy equal to that
root's multiplicity), from the published Table 1 formulas in
`table1.expected`, from the multiplicities listed in `pairs.dat`, and from
the Adams-number formula A((2s+1) 2^(c+4d)) = 2^c + 8d - 1.  Both data
files are parsed here with code of the benchmark's own.

Every `check_*` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Weyl-orbit classes of root lines swept by the equality scan.  In BC the
# short root e_i and the long root 2e_i lie on one line, so the second
# class there is the middle root e_i +- e_j.
SCAN_ORBITS = {
    "A": ("long",), "D": ("long",), "E6": ("long",), "E7": ("long",),
    "E8": ("long",), "B": ("long", "short"), "C": ("long", "short"),
    "F4": ("long", "short"), "G2": ("long", "short"), "BC": ("long", "middle"),
}

# Length class (long/middle/short) of each multiplicity tag of pairs.dat.
TAG_CLASS = {
    "B": {"e_i": "short", "e_i+-e_j": "long"},
    "C": {"e_i+-e_j": "short", "2e_i": "long"},
    "BC": {"e_i": "short", "e_i+-e_j": "middle", "2e_i": "long"},
    "F4": {"long": "long", "short": "short"},
    "G2": {"long": "long", "short": "short"},
}

SCAN_HEADER = ["pair", "p", "n", "orbit", "degenerate", "l", "r", "F(l)", "equality"]


# ---------------------------------------------------------------------------
# expressions and data files

_TOKEN = re.compile(r"\s*(?:(\d+)|([pn])|(.))")


def eval_expr(text: str, p: int | None = None, n: int | None = None) -> Fraction:
    """Exact value of an arithmetic expression in p and n.

    Grammar: sums and differences of products and quotients of factors; a
    factor is an integer, p, n, a signed factor or a parenthesised sum.  A
    factor written right after another (``4p``, ``2(p+1)``) multiplies it.
    """
    tokens = []
    for number, name, other in _TOKEN.findall(text):
        if number:
            tokens.append(int(number))
        elif name:
            tokens.append(name)
        elif other.strip():
            tokens.append(other)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def factor() -> Fraction:
        tok = take() if pos < len(tokens) else None
        if isinstance(tok, int):
            return Fraction(tok)
        if tok in ("p", "n"):
            value = {"p": p, "n": n}[tok]
            if value is None:
                raise ValueError(f"{text!r} needs {tok}")
            return Fraction(value)
        if tok in ("-", "+"):
            value = factor()
            return -value if tok == "-" else value
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced {text!r}")
            return value
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    def term() -> Fraction:
        value = factor()
        while True:
            tok = peek()
            if tok in ("*", "/"):
                take()
                rhs = factor()
                value = value * rhs if tok == "*" else value / rhs
            elif isinstance(tok, int) or tok in ("p", "n", "("):
                value *= factor()
            else:
                return value

    def expr() -> Fraction:
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


def eval_int(text: str, p: int | None = None, n: int | None = None) -> int:
    value = eval_expr(text, p, n)
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not integral at p={p}, n={n}")
    return int(value)


def parse_pairs(text: str) -> list[dict]:
    """Records of pairs.dat: key, g, k, family, rank, p/n ranges, mult, dim_m."""
    records, current = [], None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        word, args = words[0], words[1:]
        if word == "pair":
            current = {"key": args[0], "mult": {}, "p": None, "n": None}
        elif word == "end":
            records.append(current)
            current = None
        elif word == "type":
            current["family"] = args[0]
            current["rank"] = args[1] if args[1] == "p" else int(args[1])
        elif word == "params":
            current[args[0]] = (int(args[1]), None if args[2] == "*" else int(args[2]))
        elif word == "mult":
            current["mult"][args[0]] = args[1]
        elif word in ("g", "k", "dim_m"):
            current[word] = args[0]
    return records


def parse_table1(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def clip(bounds, lo: int, hi: int) -> range:
    """The values of a params range inside lo..hi, inclusive."""
    vmin, vmax = bounds
    return range(max(lo, vmin), (hi if vmax is None else min(hi, vmax)) + 1)


def instantiations(rec: dict, p_range, n_range) -> list[tuple]:
    """(p, n) pairs of one record over a grid, None for an unused parameter."""
    ps = clip(rec["p"], *p_range) if rec["p"] else [None]
    ns = clip(rec["n"], *n_range) if rec["n"] else [None]
    return [(p, n) for p in ps for n in ns]


def rank_of(rec: dict, p: int | None) -> int:
    return p if rec["rank"] == "p" else rec["rank"]


def class_multiplicities(rec: dict, p, n) -> dict[str, int]:
    """Multiplicity of each length class (long/middle/short) of a record."""
    classes = TAG_CLASS.get(rec["family"], {"all": "long"})
    return {classes[tag]: eval_int(expr, p, n) for tag, expr in rec["mult"].items()}


# ---------------------------------------------------------------------------
# Adams and Ferus numbers


def adams(k: int) -> int:
    """A(k) = 2^c + 8d - 1 for k = (2s+1) 2^(c+4d), 0 <= c <= 3."""
    t = 0
    while k % 2 == 0:
        k //= 2
        t += 1
    return 2 ** (t % 4) + 8 * (t // 4) - 1


@lru_cache(maxsize=None)
def ferus_number(l: int) -> int:
    """F(l): the least k >= 1 with A(k) + k >= l."""
    k = 1
    while adams(k) + k < l:
        k += 1
    return k


# ---------------------------------------------------------------------------
# scan-wide


def table1_by_gk(table1: list[dict]) -> dict[tuple[str, str], dict]:
    return {(row["g"], row["k"]): row for row in table1}


def expected_scan_keys(pairs: list[dict], p_range, n_range) -> list[tuple]:
    """(pair, p, n, orbit) of every row the scan must emit, as CSV strings."""
    keys = []
    for rec in pairs:
        for p, n in instantiations(rec, p_range, n_range):
            for orbit in SCAN_ORBITS[rec["family"]]:
                keys.append((rec["key"], "" if p is None else str(p),
                             "" if n is None else str(n), orbit))
    return keys


def check_scan_csv(text: str, pairs: list[dict], table1: list[dict],
                   p_range, n_range) -> list[str]:
    """Check a rendered equality-scan CSV against the rule and Table 1."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != SCAN_HEADER:
        return [f"scan header {header!r}"]
    rows = [dict(zip(SCAN_HEADER, cells)) for cells in reader]
    problems = []
    want = expected_scan_keys(pairs, p_range, n_range)
    got = [(r["pair"], r["p"], r["n"], r["orbit"]) for r in rows]
    if len(got) != len(want):
        problems.append(f"scan has {len(got)} rows, expected {len(want)}")
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        problems.append(f"scan rows differ: missing {missing}, unexpected {extra}")
    by_key = {rec["key"]: rec for rec in pairs}
    formulas = table1_by_gk(table1)
    for row in rows:
        rec = by_key.get(row["pair"])
        if rec is None:
            continue
        where = f"{row['pair']} p={row['p']} n={row['n']} {row['orbit']}"
        try:
            l, r, f = int(row["l"]), int(row["r"]), int(row["F(l)"])
        except ValueError:
            problems.append(f"{where}: non-integer l, r or F(l)")
            continue
        p = int(row["p"]) if row["p"] else None
        n = int(row["n"]) if row["n"] else None
        degenerate = row["orbit"] == "long" or (
            row["orbit"] == "short" and rec["family"] == "G2"
        )
        if row["degenerate"] != str(degenerate).lower():
            problems.append(f"{where}: degenerate={row['degenerate']}")
        if not degenerate and r != l:
            problems.append(f"{where}: non-degenerate but l={l} r={r}")
        if degenerate:
            m = class_multiplicities(rec, p, n)[row["orbit"]]
            if l - r != m:
                problems.append(f"{where}: l-r={l - r}, multiplicity {m}")
        if row["orbit"] == "long":
            formula = formulas[(rec["g"], rec["k"])]
            want_lr = (eval_int(formula["l"], p, n), eval_int(formula["r"], p, n))
            if (l, r) != want_lr:
                problems.append(f"{where}: (l, r)=({l}, {r}), Table 1 gives {want_lr}")
        if f != ferus_number(l):
            problems.append(f"{where}: F({l})={f}, expected {ferus_number(l)}")
        if row["equality"] != str(degenerate and f == r).lower():
            problems.append(f"{where}: equality={row['equality']}")
        if degenerate and r < f:
            problems.append(f"{where}: r={r} < F(l)={f} violates Ferus's inequality")
    return problems


# ---------------------------------------------------------------------------
# classify-mix


def scaled_to_integers(vec) -> tuple[int, ...]:
    """The vector times the least common denominator of its entries."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    return tuple(int(Fraction(x) * den) for x in vec)


def primitive(vec) -> tuple[int, ...]:
    """Coprime integer vector on the ray of a nonzero rational vector."""
    ints = scaled_to_integers(vec)
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class SystemOracle:
    """Root lines and length classes of one root system, from its root list.

    Built from rational coordinate tuples; roots are stored scaled to
    integers so that orthogonality tests stay in integer arithmetic.
    """

    def __init__(self, family: str, positive_roots, simple_roots):
        self.family = family
        den = lcm(*(Fraction(x).denominator for v in positive_roots for x in v))
        self.roots = [tuple(int(Fraction(x) * den) for x in v) for v in positive_roots]
        self.simple = [tuple(int(Fraction(x) * den) for x in v) for v in simple_roots]
        norms = sorted({dot(v, v) for v in self.roots}, reverse=True)
        labels = {1: ("long",), 2: ("long", "short"), 3: ("long", "middle", "short")}
        self.class_of_norm = dict(zip(norms, labels[len(norms)]))
        self.root_class = [self.class_of_norm[dot(v, v)] for v in self.roots]
        self.lines: dict[tuple, list[int]] = {}
        for i, v in enumerate(self.roots):
            self.lines.setdefault(primitive(v), []).append(i)

    def is_dominant(self, vec) -> bool:
        return all(dot(a, vec) >= 0 for a in self.simple)

    def dominant_root(self, cls: str) -> tuple[int, ...]:
        """The unique positive root of a class in the closed chamber."""
        found = [v for v, c in zip(self.roots, self.root_class)
                 if c == cls and self.is_dominant(v)]
        if len(found) != 1:
            raise ValueError(f"{self.family}: {len(found)} dominant {cls} roots")
        return found[0]

    def line(self, ray: tuple[int, ...], mult: dict[str, int]) -> tuple[int, int]:
        """(nullity, bound) on the line of ray.

        The nullity is the multiplicity of the longest root on the line
        when that root is long, or short in G2, and 0 otherwise; the bound
        is the sum of the multiplicities of all positive roots on the line.
        """
        on_line = self.lines.get(ray, [])
        if not on_line:
            return 0, 0
        bound = sum(mult[self.root_class[i]] for i in on_line)
        longest = max(on_line, key=lambda i: dot(self.roots[i], self.roots[i]))
        cls = self.root_class[longest]
        degenerate = cls == "long" or (cls == "short" and self.family == "G2")
        return (mult[cls] if degenerate else 0), bound

    def expectation(self, ray: tuple[int, ...], mult: dict[str, int]):
        """(l, nullity, bound) for the orbit through ray.

        l is the sum of m(mu) over the positive roots mu not orthogonal to ray.
        """
        l = sum(mult[c] for v, c in zip(self.roots, self.root_class) if dot(v, ray))
        return (l, *self.line(ray, mult))


def check_report(report: dict, want_ray, want_l: int, want_nullity: int,
                 bound: int) -> list[str]:
    """Compare one classify report (as a dict) with the rule's expectation."""
    problems = []
    where = f"{report['pair']} H={want_ray}"
    if report["H"] != want_ray:
        problems.append(f"{where}: folded ray {report['H']}, expected {want_ray}")
    if report["l"] != want_l:
        problems.append(f"{where}: l={report['l']}, expected {want_l}")
    if report["nullity"] != want_nullity or report["r"] != want_l - want_nullity:
        problems.append(f"{where}: nullity={report['nullity']} r={report['r']}, "
                        f"expected nullity {want_nullity}")
    if report["degenerate"] != (want_nullity > 0):
        problems.append(f"{where}: degenerate={report['degenerate']}")
    if report["nullity"] > bound:
        problems.append(f"{where}: nullity {report['nullity']} above bound {bound}")
    return problems


# ---------------------------------------------------------------------------
# cli-verify


def check_table1_csv(text: str, table1: list[dict]) -> list[str]:
    got = parse_table1(text)
    if got != table1:
        return [f"table1 CSV has {len(got)} rows differing from table1.expected"]
    return []


def check_table1_check(text: str) -> list[str]:
    if "all rows match" not in text:
        return [f"table1 --check printed {text.strip()[:80]!r}"]
    return []


def check_appendix(text: str, algebra: str, pairs: list[dict]) -> list[str]:
    """Projected type and gamma count, and the projected multiplicities.

    For e6, e7 and e8 the multiplicities must equal the independently
    tabulated quaternionic rows of pairs.dat.
    """
    data = json.loads(text)
    problems = []
    want_type, want_gammas = ("G2", 2) if algebra == "g2" else ("F4", 4)
    if data["projected_type"] != want_type or len(data["gammas"]) != want_gammas:
        problems.append(f"appendix {algebra}: type {data['projected_type']} with "
                        f"{len(data['gammas'])} gammas")
    if data["ok"] is not True:
        problems.append(f"appendix {algebra}: verdict not ok")
    row = {"e6": "e6|su(2)+su(6)", "e7": "e7|su(2)+so(12)", "e8": "e8|su(2)+e7"}.get(algebra)
    if row is not None:
        rec = next(r for r in pairs if r["key"] == row)
        want = sorted([c, m] for c, m in class_multiplicities(rec, None, None).items())
        if sorted(data["multiplicities"]) != want:
            problems.append(f"appendix {algebra}: multiplicities "
                            f"{data['multiplicities']} != {row} {want}")
    return problems


def check_classify(text: str, rec: dict, p, n, orbit_class: str,
                   table1: list[dict]) -> list[str]:
    """A root-line classify report, and its spectrum when one is printed."""
    data = json.loads(text)
    problems = []
    mult = class_multiplicities(rec, p, n)
    degenerate = orbit_class == "long" or (orbit_class == "short" and rec["family"] == "G2")
    want_nullity = mult[orbit_class] if degenerate else 0
    if (data["degenerate"], data["nullity"]) != (degenerate, want_nullity):
        problems.append(f"classify {rec['key']}: degenerate={data['degenerate']} "
                        f"nullity={data['nullity']}")
    if orbit_class == "long":
        formula = table1_by_gk(table1)[(rec["g"], rec["k"])]
        want_lr = (eval_int(formula["l"], p, n), eval_int(formula["r"], p, n))
        if (data["l"], data["r"]) != want_lr:
            problems.append(f"classify {rec['key']}: (l, r)=({data['l']}, "
                            f"{data['r']}), Table 1 gives {want_lr}")
    if "curvature_spectrum" in data:
        total = sum(m for _, m in data["curvature_spectrum"])
        if total != data["l"]:
            problems.append(f"classify {rec['key']}: spectrum sums to {total}, "
                            f"l={data['l']}")
    return problems


def check_ferus_identities(text: str) -> list[str]:
    if not text.startswith("ferus identities:"):
        return [f"ferus --verify-identities printed {text.strip()[:80]!r}"]
    return []


def check_pairs_list(text: str, pairs: list[dict]) -> list[str]:
    keys = [row["key"] for row in csv.DictReader(io.StringIO(text))]
    want = [rec["key"] for rec in pairs]
    if keys != want:
        return [f"pairs list shows {len(keys)} keys, pairs.dat has {len(want)}"]
    return []


def malformed_ok(returncode: int, stdout: str, stderr: str) -> bool:
    """A rejected database: exit 1, nothing on stdout, one line on stderr."""
    return returncode == 1 and not stdout and len(stderr.strip().splitlines()) == 1
