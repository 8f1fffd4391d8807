"""Polynomials in p and n: the one language of pairs.dat, the class counts and Table 1.

An expression holds integers, p, n, parentheses, + - * and / by a nonzero
constant; a digit before p, n or "(" multiplies, so "4p+2n-7" is 4*p+2*n-7.
Two polynomials are equal exactly when they agree at every (p, n), so an
identity between expressions is proved once, not sampled.
"""

import ast
import functools
import itertools
import operator
import re
from collections import defaultdict
from fractions import Fraction
from math import gcd


def quoted(text: str) -> str:
    # Messages quote a long text only in part, to stay one short line.
    return repr(text) if len(text) <= 60 else repr(text[:60]) + "..."


class Polynomial:
    """Integer numerators of the monomials p^i n^j over one positive denominator.

    f(p, n) is the value, which must be an integer; p or n may be left out
    when f does not use it.  `variables` is the set of names f uses.
    """

    def __init__(self, coeffs: dict, den: int = 1, text: str | None = None):
        # Terms (numerator of p^i n^j, i, j), lowest and in (i, j) order: equal is identical.
        g = gcd(den, *coeffs.values()) * (-1 if den < 0 else 1)
        self._terms = tuple((c // g, i, j) for (i, j), c in sorted(coeffs.items()) if c)
        self._den, self._text = den // g, text
        self.variables = frozenset(name for _, *powers in self._terms
                                   for name, power in zip("pn", powers) if power)

    @property
    def degrees(self) -> tuple[int, int]:
        """The degrees of f in p and in n."""
        return tuple(max((term[k] for term in self._terms), default=0) for k in (1, 2))

    def __call__(self, p: int | None = None, n: int | None = None) -> int:
        if (p is None and "p" in self.variables) or (n is None and "n" in self.variables):
            name = "p" if p is None and "p" in self.variables else "n"
            raise ValueError(
                f"expression {quoted(self._text or str(self))} needs a value for {name!r}")
        p, n, total = p or 0, n or 0, 0
        for c, i, j in self._terms:
            total += c * p**i * n**j
        value, rest = divmod(total, self._den)
        if rest:
            raise ValueError(f"expression {quoted(self._text or str(self))} is not integral: "
                             f"{Fraction(total, self._den)}")
        return value

    def check_integral(self, p0: int | None = None, n0: int | None = None) -> None:
        """Raise ValueError unless f(p, n) is an integer at every p >= p0 and n >= n0.

        With d_p and d_n its degrees, f is a sum of c_ij C(p - p0, i) C(n - n0, j)
        over i <= d_p and j <= d_n, each c_ij a finite difference of f on the
        (d_p + 1) x (d_n + 1) grid at (p0, n0), and each binomial an integer on
        the quadrant.  So f is integral there exactly when it is on that grid.
        """
        self(p0, n0)  # refuses a variable f uses without a value
        if self._den == 1:  # integer coefficients give integer values
            return
        axes = [(None,) if lo is None else range(lo, lo + degree + 1)
                for lo, degree in zip((p0, n0), self.degrees)]
        for p, n in itertools.product(*axes):
            self(p, n)

    def check_least(self, least: int, p_range, n_range) -> None:
        """Raise ValueError unless f(p, n) >= least on the ranges; f of degree <= 1 in p and n.

        A range is (min, max), max None when unbounded, or None for a
        parameter f does not use.  f is linear along each axis, so it is
        least at a corner of the ranges, unless its slope (the coefficient
        of p or n) is negative somewhere along an unbounded axis, where f
        falls without bound.
        """
        ranges = (p_range, n_range)
        corners = [(None,) if r is None else (r[0],) if r[1] is None else r for r in ranges]
        for p, n in itertools.product(*corners):
            if (value := self(p, n)) < least:
                at = ", ".join(f"{name}={v}" for name, v in zip("pn", (p, n)) if v is not None)
                raise ValueError(f"expression {quoted(self._text or str(self))} is "
                                 f"{value} < {least} at {at}")
        for k, (name, r) in enumerate(zip("pn", ranges), 1):
            if name in self.variables and r[1] is None:
                slope = {(i - (k == 1), j - (k == 2)): c for c, i, j in self._terms
                         if (i, j)[k - 1]}
                try:
                    Polynomial(slope, self._den).check_least(0, *ranges)
                except ValueError:
                    raise ValueError(f"expression {quoted(self._text or str(self))} "
                                     f"falls below {least} as {name} grows") from None

    def __add__(self, other):
        other, coeffs = _lift(other), defaultdict(int)
        for c, i, j in self._terms:
            coeffs[i, j] += c * other._den
        for c, i, j in other._terms:
            coeffs[i, j] += c * self._den
        return Polynomial(coeffs, self._den * other._den)

    def __mul__(self, other):
        other, coeffs = _lift(other), defaultdict(int)
        for (c, i, j), (d, k, m) in itertools.product(self._terms, other._terms):
            coeffs[i + k, j + m] += c * d
        return Polynomial(coeffs, self._den * other._den)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + -1 * other

    def __eq__(self, other):
        return isinstance(other, Polynomial) and (self._terms, self._den) == (
            other._terms, other._den)

    def __hash__(self):
        return hash((self._terms, self._den))

    def __str__(self) -> str:
        """The normal form, highest degree first and p before n: "4p+2n-7", "p*p/2-n"."""
        out = []
        for c, i, j in sorted(self._terms, key=lambda t: (-t[1] - t[2], -t[1])):
            value, monomial = Fraction(abs(c), self._den), "*".join("p" * i + "n" * j)
            mag = str(value.numerator) if value.numerator != 1 or not monomial else ""
            over = f"/{value.denominator}" if value.denominator != 1 else ""
            out.append(("-" if c < 0 else "+" if out else "") + mag + monomial + over)
        return "".join(out) or "0"


def _lift(value) -> Polynomial:
    return value if isinstance(value, Polynomial) else Polynomial({(0, 0): value})


P, N = Polynomial({(1, 0): 1}), Polynomial({(0, 1): 1})
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: lambda a, b: a * Polynomial({(0, 0): b._den}, b._terms[0][0])}


@functools.lru_cache(maxsize=1024)
def compile_expr(text: str) -> Polynomial:
    """Parse text once; a bad expression is a one-line ValueError."""
    shown = quoted(text)

    def comp(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return _lift(int(node.value))
        if isinstance(node, ast.Name):
            if node.id not in ("p", "n"):
                raise ValueError(f"expression {shown} needs a value for {node.id!r}")
            return P if node.id == "p" else N
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return comp(node.operand) * (-1 if isinstance(node.op, ast.USub) else 1)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            left, right = comp(node.left), comp(node.right)
            if isinstance(node.op, ast.Div) and not right._terms:
                raise ValueError(f"expression {shown} divides by zero")
            if isinstance(node.op, ast.Div) and right.variables:
                raise ValueError(f"expression {shown} divides by an expression in p or n")
            return _OPS[type(node.op)](left, right)
        raise ValueError(f"unsupported construct in expression {shown}")

    try:
        poly = comp(ast.parse(re.sub(r"(\d)\s*([pn(])", r"\1*\2", text), mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"bad expression {shown}: {exc}") from None
    except (MemoryError, RecursionError):
        raise ValueError(f"expression {shown} is nested too deeply") from None
    return Polynomial({(i, j): c for c, i, j in poly._terms}, poly._den, text)
