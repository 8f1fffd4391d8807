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
    def degree(self) -> int:
        """The total degree of f in p and n."""
        return max((i + j for _, i, j in self._terms), default=0)

    def _shown(self) -> str:
        return quoted(self._text or str(self))

    def __call__(self, p: int | None = None, n: int | None = None) -> int:
        if (p is None and "p" in self.variables) or (n is None and "n" in self.variables):
            name = "p" if p is None and "p" in self.variables else "n"
            raise ValueError(f"expression {self._shown()} needs a value for {name!r}")
        p, n, total = p or 0, n or 0, 0
        for c, i, j in self._terms:
            total += c * p**i * n**j
        value, rest = divmod(total, self._den)
        if rest:
            raise ValueError(f"expression {self._shown()} is not integral: "
                             f"{Fraction(total, self._den)}")
        return value

    def check_affine(self, p0: int | None = None, n0: int | None = None) -> None:
        """Raise ValueError unless f is affine in p and n and integral at every p >= p0, n >= n0.

        Such an f = c + a*p + b*n is integral there exactly when it is at
        (p0, n0) and one step along each variable it uses, the steps a and b.
        """
        if self.degree > 1:
            raise ValueError(f"expression {self._shown()} is not affine in p and n")
        self(p0, n0)  # refuses a variable f uses without a value
        if "p" in self.variables:
            self(p0 + 1, n0)
        if "n" in self.variables:
            self(p0, n0 + 1)

    def check_positive(self, p_range, n_range) -> None:
        """Raise ValueError unless the affine f is >= 1 on the ranges.

        A range is (min, max), max None when unbounded, or None for an unused
        parameter.  f is least at a corner of the ranges, unless it falls
        along an unbounded axis, where its coefficient is negative.
        """
        ranges = (p_range, n_range)
        corners = [(None,) if r is None else (r[0],) if r[1] is None else r for r in ranges]
        for p, n in itertools.product(*corners):
            if (value := self(p, n)) < 1:
                at = ", ".join(f"{name}={v}" for name, v in zip("pn", (p, n)) if v is not None)
                at = f" at {at}" if at else ""  # no parameter in a fixed-rank record
                raise ValueError(f"expression {self._shown()} is {value} < 1{at}")
        for c, i, j in self._terms:
            if c < 0 and i + j and ranges[j][1] is None:
                raise ValueError(f"expression {self._shown()} falls below 1 as {'pn'[j]} grows")

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


# Largest total degree of an expression or any part of it: k factors of
# degree 1 expand in time that grows like k^3, and pairs.dat and the class
# counts reach degree 2.  Python 3.11 on a 2-vCPU Xeon VM, median of 7: 200
# factors (p+n+1), 1.6 KB, are refused in 2 ms (4.4 s to expand), and 1.6 KB
# of products of 6 such factors, the most work per character, compile in 12 ms.
MAX_DEGREE = 6


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
            if (out := _OPS[type(node.op)](left, right)).degree > MAX_DEGREE:
                raise ValueError(f"expression {shown} has degree above {MAX_DEGREE}")
            return out
        raise ValueError(f"unsupported construct in expression {shown}")

    try:
        poly = comp(ast.parse(re.sub(r"(\d)\s*([pn(])", r"\1*\2", text), mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"bad expression {shown}: {exc}") from None
    except (MemoryError, RecursionError):
        raise ValueError(f"expression {shown} is nested too deeply") from None
    return Polynomial({(i, j): c for c, i, j in poly._terms}, poly._den, text)
