"""Database of irreducible compact symmetric pairs of rank at least two.

Each record of the embedded (or user-supplied) `pairs.dat` describes one
family of pairs: display names, restricted root system, multiplicities of
the Weyl-orbit classes of positive restricted roots (each affine in the
family integers p and n), structural flags and the isotropy dimension.
The multiplicities are the load-bearing data: the dimension of the orbit
through H is the sum of them over the roots not orthogonal to H, and that
is what every table value in this package is computed from.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import rootsys
from .expr import P, Polynomial, compile_expr, quoted
from .rootsys import RootSystem, RootSystemType


def _constant(m: Polynomial, value: int) -> bool:
    return not m.variables and m() == value


# Each flag is a fact of its record's type and multiplicities (by class
# tag), so a set flag they contradict is refused at load; an unset flag is
# never checked.  g is complex exactly when every multiplicity is 2, and
# split exactly when every one is 1 (its Satake diagram is all white); a
# Hermitian pair has type C or BC with m(2e_i) = 1 (C. C. Moore,
# "Compactifications of symmetric spaces II", 1964; Helgason, ch. X,
# Table VI); the quaternionic exceptional pairs of type F4 have long
# multiplicity 1 and short multiplicity 2, 4 or 8.
FLAGS = {
    "group_manifold": (
        "group manifold with multiplicities != 2",
        lambda family, m: all(_constant(x, 2) for x in m.values())),
    "normal_real_form": (
        "normal real form with multiplicities != 1",
        lambda family, m: all(_constant(x, 1) for x in m.values())),
    "hermitian": (
        "hermitian but not of type C or BC with m(2e_i) = 1",
        lambda family, m: family in ("C", "BC") and _constant(m["2e_i"], 1)),
    "quaternionic_F4_exceptional": (
        "quaternionic F4 exceptional but not of type F4 with long multiplicity 1 and short != 1",
        lambda family, m:
            family == "F4" and _constant(m["long"], 1) and not _constant(m["short"], 1)),
}


class PairsFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_NAME_PART = re.compile(r"\(([^()]*)\)")
# An opening parenthesis inside another: "so(2(p+1))".
_NESTED = re.compile(r"\([^()]*\(")


def render_name(name: str, p: int | None = None, n: int | None = None) -> str:
    """name with each part in one pair of parentheses, an expression, evaluated at (p, n)."""
    if _NESTED.search(name):  # only its innermost part would render
        raise ValueError(f"name {quoted(name)} nests parentheses")
    return _NAME_PART.sub(lambda part: "(%d)" % compile_expr(part[1])(p, n), name)


def normalize_key(text: str) -> str:
    text = text.strip().lower().replace(" ", "")
    for old, new in (("⊕", "+"), ("×", "+"), ("²", "^2")):
        text = text.replace(old, new)
    # A doubled summand is the same thing as a square: "g2+g2" -> "g2^2".
    return "|".join(
        re.sub(r"^(.+)\+\1$", r"\1^2", part) for part in text.split("|")
    )


@dataclass(frozen=True)
class Pair:
    """A family at (p, n), None for an unused one: its rank and multiplicities."""

    family: PairFamily
    rstype: RootSystemType
    mult_by_class: tuple[tuple[str, int], ...]  # in rootsys.CLASSES order
    p: int | None
    n: int | None
    # Rendered once by PairFamily.instantiate: classify reads it for every report.
    _label: str

    def system(self) -> RootSystem:
        return rootsys.build(self.rstype)

    def label(self) -> str:
        """The family key and the parameters in use, "key [p=3,n=1]"."""
        return self._label


def bound_text(bound: int | None) -> str:
    """An upper parameter bound as pairs.dat writes it: "*" for none."""
    return "*" if bound is None else str(bound)


# Most n values one grid() call walks; n does not enter the rank, so nothing
# else bounds it.  On a 2-vCPU Xeon VM with Python 3.11 the equality scan of
# so(2p+n) at p = 30 over this cap, 600 rows, takes 8.6 ms (median of 7).
MAX_N_SPAN = 300


def _axis(grid: tuple[int, int], lo: int, hi: int | None) -> range:
    """The values of the inclusive grid that lie in the bounds [lo, hi]."""
    return range(max(grid[0], lo), (grid[1] if hi is None else min(grid[1], hi)) + 1)


@dataclass(frozen=True)
class PairFamily:
    """One record of pairs.dat; instantiate() produces concrete pairs."""

    key: str
    g_name: str
    k_name: str
    family: str
    rank_expr: str  # "p" or a decimal rank
    p_min: int | None
    p_max: int | None
    n_min: int | None
    n_max: int | None
    mult: tuple[tuple[str, Polynomial], ...]  # in rootsys.CLASSES order
    flags: frozenset[str]
    aliases: tuple[str, ...] = ()

    def names(self, p: int | None = None, n: int | None = None) -> tuple[str, str]:
        """The display names (g, k) at (p, n)."""
        return render_name(self.g_name, p, n), render_name(self.k_name, p, n)

    @property
    def uses_p(self) -> bool:
        return self.p_min is not None

    @property
    def uses_n(self) -> bool:
        return self.n_min is not None

    def class_sum(self, counts) -> Polynomial:
        """Sum over the classes of count(rank) * m, counts in CLASSES order: a polynomial."""
        rank = P if self.rank_expr == "p" else int(self.rank_expr)
        return sum((c if rank is P else c(rank)) * m for c, (_, m) in zip(counts, self.mult))

    def _parameter(self, name: str, value: int | None, lo: int | None, hi: int | None):
        """value checked against the bounds [lo, hi]; None for an unused parameter."""
        if lo is None:
            return None
        if value is None:
            raise ValueError(f"{self.key}: parameter {name} is required")
        if value < lo or (hi is not None and value > hi):
            raise ValueError(f"{self.key}: {name}={value} outside [{lo}, {bound_text(hi)}]")
        return value

    def instantiate(self, p: int | None = None, n: int | None = None) -> Pair:
        p = self._parameter("p", p, self.p_min, self.p_max)
        n = self._parameter("n", n, self.n_min, self.n_max)
        rank = p if self.rank_expr == "p" else int(self.rank_expr)
        rstype = RootSystemType(self.family, rank)
        params = ",".join(f"{name}={value}" for name, value in (("p", p), ("n", n))
                          if value is not None)
        label = self.key + (f" [{params}]" if params else "")
        return Pair(self, rstype, tuple((tag, m(p, n)) for tag, m in self.mult), p, n, label)

    def grid(self, p_range, n_range):
        """The (p, n) of the p axis times the n axis, each the inclusive range
        clipped to the family's bounds, or (None,) for an unused parameter.

        A p axis whose top rank is above rootsys.MAX_RANK, or an n axis of
        more than MAX_N_SPAN values, is refused before the first point.  The
        loader proved the lowest rank, so every rank of the axis is valid.
        """
        p_axis = _axis(p_range, self.p_min, self.p_max) if self.uses_p else (None,)
        n_axis = _axis(n_range, self.n_min, self.n_max) if self.uses_n else (None,)
        if p_axis and self.uses_p:
            RootSystemType(self.family, p_axis[-1])  # raises above rootsys.MAX_RANK
        if p_axis and self.uses_n and (span := n_axis.stop - n_axis.start) > MAX_N_SPAN:
            raise ValueError(
                f"{self.key}: n range {n_axis.start}:{n_axis.stop - 1} has {span} "
                f"values, above the largest n span {MAX_N_SPAN}"
            )
        # product stores each axis whole; an n axis beside an empty p axis is uncapped.
        yield from itertools.product(p_axis, n_axis if p_axis else ())

    def instantiations(self, p_range, n_range):
        """The pair at each (p, n) of grid(p_range, n_range), lazily."""
        return itertools.starmap(self.instantiate, self.grid(p_range, n_range))


class PairDatabase:
    """Loaded pair families, with lookup by key, alias or (g, k) names."""

    def __init__(self, families: list[PairFamily]):
        self.families = tuple(families)
        self._index: dict[str, PairFamily] = {}
        for fam in families:
            for key in (fam.key, *fam.aliases):
                norm = normalize_key(key)
                if norm in self._index:
                    raise PairsFormatError(f"duplicate pair key {key!r}")
                self._index[norm] = fam

    def __iter__(self):
        return iter(self.families)

    def instantiations(self, p_range, n_range):
        """Every family's instantiations over the grid, in database order."""
        for family in self.families:
            yield from family.instantiations(p_range=p_range, n_range=n_range)

    def get(self, key: str) -> PairFamily:
        norm = normalize_key(key)
        if norm not in self._index:
            raise KeyError(f"unknown pair {key!r}")
        return self._index[norm]


def _data_path() -> Path:
    return Path(resources.files("gaussorbits").joinpath("data/pairs.dat"))


def load_database(path: str | Path | None = None) -> PairDatabase:
    """Parse pairs.dat (the embedded copy unless a path is given)."""
    text = Path(path).read_text() if path else _data_path().read_text()
    return parse_database(text)


def parse_database(text: str) -> PairDatabase:
    families: list[PairFamily] = []
    current: dict | None = None
    start_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word, args = tokens[0], tokens[1:]
        if word == "pair":
            if current is not None:
                raise PairsFormatError("nested pair record", lineno)
            if len(args) != 1:
                raise PairsFormatError("pair needs exactly one key", lineno)
            current = {"key": args[0], "mult": [], "flags": [], "aliases": [], "lines": {}}
            start_line = lineno
            continue
        if current is None:
            raise PairsFormatError(f"{word!r} outside a pair record", lineno)
        if word == "end":
            families.append(_finish_record(current, start_line))
            current = None
        elif word in ("g", "k"):
            if len(args) != 1:
                raise PairsFormatError(f"{word} needs one value", lineno)
            _set_once(current, word, args[0], lineno)
        elif word == "type":
            if len(args) != 2:
                raise PairsFormatError("type needs family and rank", lineno)
            _set_once(current, word, args, lineno)
        elif word == "params":
            if len(args) != 3 or args[0] not in ("p", "n"):
                raise PairsFormatError("params needs: p|n min max", lineno)
            try:
                lo = int(args[1])
                hi = None if args[2] == "*" else int(args[2])
            except ValueError:
                raise PairsFormatError(f"bad params bounds {args[1:]!r}", lineno) from None
            _set_once(current, f"params {args[0]}", (lo, hi), lineno)
        elif word == "mult":
            if len(args) != 2:
                raise PairsFormatError("mult needs class and expression", lineno)
            current["mult"].append((args[0], args[1]))
            current["lines"][args[0]] = lineno
        elif word == "flags":
            bad = [f for f in args if f not in FLAGS]
            if bad:
                raise PairsFormatError(f"unknown flags {bad}", lineno)
            current["flags"].extend(args)
        elif word == "dim_m":
            if len(args) != 1:
                raise PairsFormatError("dim_m needs one expression", lineno)
            _set_once(current, word, args[0], lineno)
            current["lines"]["dim_m"] = lineno
        elif word == "alias":
            if len(args) != 1:
                raise PairsFormatError("alias needs one key", lineno)
            current["aliases"].append(args[0])
        else:
            raise PairsFormatError(f"unknown field {word!r}", lineno)
    if current is not None:
        raise PairsFormatError("unterminated pair record", start_line)
    return PairDatabase(families)


def _set_once(rec: dict, field: str, value, line: int) -> None:
    """rec[field] = value, refusing a second line of a single-valued field."""
    if field in rec:
        raise PairsFormatError(f"repeated field {field!r}", line)
    rec[field] = value


def _finish_record(rec: dict, line: int) -> PairFamily:
    for field in ("g", "k", "type", "dim_m"):
        if field not in rec:
            raise PairsFormatError(f"pair {rec['key']!r} missing field {field!r}", line)
    family, rank_expr = rec["type"]
    if family not in rootsys.CLASSES:
        raise PairsFormatError(f"unknown family {family!r}", line)
    try:
        rank = P if rank_expr == "p" else int(rank_expr)
    except ValueError:
        raise PairsFormatError(f"bad rank {rank_expr!r}", line) from None
    if (rank is P) != ("params p" in rec):
        which = "rank p but no" if rank is P else "fixed rank and"
        raise PairsFormatError(f"pair {rec['key']!r} has {which} params p", line)
    p_min, p_max = rec.get("params p", (None, None))
    n_min, n_max = rec.get("params n", (None, None))
    # The class counts of CLASSES hold from rank 2 up.
    if (low := p_min if rank is P else rank) < 2:
        raise PairsFormatError(f"{rec['key']}: rank {low} < 2", line)
    tags = [tag for tag, _ in rec["mult"]]
    expected = {tag for tag, *_ in rootsys.CLASSES[family]}
    if set(tags) != expected or len(tags) != len(expected):
        raise PairsFormatError(
            f"pair {rec['key']!r} classes {sorted(tags)} != {sorted(expected)}", line
        )
    # Each expression is parsed once; an error names the expression's line.
    lines, texts = rec["lines"], (*rec["mult"], ("dim_m", rec["dim_m"]))
    exprs = {field: _on_line(lines[field], compile_expr, text) for field, text in texts}
    if any("n" in expr.variables for expr in exprs.values()) != ("params n" in rec):
        raise PairsFormatError(
            f"pair {rec['key']!r}: params n must be present exactly when n is used",
            line,
        )
    dim_m = exprs.pop("dim_m")
    # A multiplicity is affine in p and n (Araki's tables): a few values prove
    # it integral and >= 1 on the ranges, so instantiate only evaluates it.
    for tag, m in exprs.items():
        _on_line(lines[tag], m.check_affine, p_min, n_min)
        _on_line(lines[tag], m.check_positive, rec.get("params p"), rec.get("params n"))
    for flag in rec["flags"]:
        message, holds = FLAGS[flag]
        if not holds(family, exprs):
            raise PairsFormatError(f"{rec['key']}: {message}", line)
    fam = PairFamily(
        key=rec["key"],
        g_name=rec["g"],
        k_name=rec["k"],
        family=family,
        rank_expr=rank_expr,
        p_min=p_min,
        p_max=p_max,
        n_min=n_min,
        n_max=n_max,
        mult=tuple((tag, exprs[tag]) for tag, *_ in rootsys.CLASSES[family]),
        flags=frozenset(rec["flags"]),
        aliases=tuple(rec["aliases"]),
    )
    # The smallest instantiation surfaces a bad rank at load.
    _on_line(line, fam.instantiate, p_min, n_min)
    # dim_m is the multiplicity total plus the rank: one polynomial identity.
    counted = fam.class_sum(count for _, _, count in rootsys.CLASSES[family])
    if counted + rank != dim_m:
        raise PairsFormatError(
            f"{fam.key}: multiplicity total {counted} + rank {rank} != dim_m {dim_m}", line)
    # A name renders at the smallest (p, n), and each part is affine, integral and >= 1.
    _on_line(line, fam.names, p_min, n_min)
    for part in map(compile_expr, _NAME_PART.findall(fam.g_name) + _NAME_PART.findall(fam.k_name)):
        _on_line(line, part.check_affine, p_min, n_min)
        _on_line(line, part.check_positive, rec.get("params p"), rec.get("params n"))
    return fam


def _on_line(line: int, call, *args):
    """call(*args), its ValueError refused as a PairsFormatError on line."""
    try:
        return call(*args)
    except ValueError as exc:
        raise PairsFormatError(str(exc), line) from None
