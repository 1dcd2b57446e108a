"""Exact rational arithmetic, sparse multivariate polynomials, and
polynomial identity testing.

All arithmetic in this package is exact.  Rationals are `fractions.Fraction`
(arbitrary-precision, always reduced, positive denominator), re-exported here
as `Rational`.  A polynomial is stored as

    variables : tuple of variable names, sorted lexicographically
    terms     : dict mapping exponent tuples to non-zero coefficients, each an
                int when integral and a Fraction otherwise

Exponent tuples are dense over the declared variable list, so two polynomials
over different variable sets are aligned (union of the variable lists) before
any comparison or arithmetic.  The zero polynomial has an empty term dict.

Term dicts over one fixed variable list are added and multiplied by
`add_terms`, `mul_terms` and `pow_terms`, the single implementation behind
`SparsePolynomial` arithmetic and `Circuit.expand_symbolic`.  They accept
`int` as well as `Fraction` coefficients: integer arithmetic is exact and
much cheaper than `Fraction`'s, so callers keep coefficients `int` while they
are integral.  `common_denominator` is the matching trick for evaluation:
scale rational inputs by the lcm D of their denominators, compute over the
integers, and divide by the right power of D once at the end.

Identity testing comes in two flavours: `poly_equal_symbolic` compares
normalized term maps, and `poly_equal_randomized` is a seeded Schwartz-Zippel
test over integer points drawn from [0, 2**32).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParameter, MissingVariable, ParseError, SizeCap

Rational = Fraction

# An assignment maps variable names to Rationals (plain ints also work since
# Fraction arithmetic absorbs them).
Assignment = Dict[str, Rational]

SAMPLE_RANGE = 2 ** 32


def rat(num, den=1) -> Rational:
    """Build a Rational from integers (or parse a string like '3/4')."""
    return Fraction(num, den) if den != 1 else Fraction(num)


def rational_to_json(value) -> Dict[str, str]:
    """The JSON form {"num": str, "den": str} of an int or Fraction; SizeCap
    if a part is longer than Python converts to a string."""
    value = Fraction(value)
    try:
        return {"num": str(value.numerator), "den": str(value.denominator)}
    except ValueError as exc:
        raise SizeCap(f"exact value over Python's {sys.get_int_max_str_digits()}-digit limit") from exc


def int_from_json(value) -> int:
    """An integer read from JSON: an int (not a bool) or an integer string.
    Anything else, a float such as 1.5 included, raises ParseError instead of
    being truncated."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"not an integer: {value!r}")


def rational_from_json(data) -> Rational:
    """Parse the form written by `rational_to_json`; ParseError when a key is
    missing, a value is not an integer or the denominator is 0."""
    try:
        return Fraction(int_from_json(data["num"]), int_from_json(data["den"]))
    except (KeyError, TypeError, ZeroDivisionError, ParseError) as exc:
        raise ParseError(f"malformed rational {data!r}: {exc}") from exc


def common_denominator(values: Iterable) -> Optional[int]:
    """The lcm of the denominators of `values` (ints and Fractions), or None
    if any value is something else, such as a polynomial used as a ring
    element, which callers then use exactly as given."""
    den = 1
    for v in values:
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                return None
            if den % v.denominator:
                den = lcm(den, v.denominator)
    return den


# -- term dicts ---------------------------------------------------------------
#
# A term dict maps exponent tuples, all over one variable list, to non-zero
# int or Fraction coefficients.


def add_terms(into: Dict[Tuple[int, ...], Rational], terms: Mapping[Tuple[int, ...], Rational],
              scale=1) -> Dict[Tuple[int, ...], Rational]:
    """Add `scale` times `terms` into `into` in place, dropping coefficients
    that cancel; returns `into`."""
    get = into.get
    for exp, coeff in terms.items():
        s = get(exp, 0) + (coeff if scale == 1 else scale * coeff)
        if s:
            into[exp] = s
        else:
            into.pop(exp, None)
    return into


def mul_terms(p: Mapping[Tuple[int, ...], Rational],
              q: Mapping[Tuple[int, ...], Rational]) -> Dict[Tuple[int, ...], Rational]:
    """The product of two term dicts over the same variable list."""
    out: Dict[Tuple[int, ...], Rational] = {}
    get = out.get
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exp = tuple(map(add, e1, e2))
            s = get(exp, 0) + c1 * c2
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def pow_terms(p: Mapping[Tuple[int, ...], Rational], k: int,
              num_vars: int) -> Dict[Tuple[int, ...], Rational]:
    """The k-th power of a term dict over `num_vars` variables, by squaring."""
    result: Dict[Tuple[int, ...], Rational] = {(0,) * num_vars: 1}
    base = p
    while k:
        if k & 1:
            result = mul_terms(result, base)
        base = mul_terms(base, base) if k > 1 else base
        k >>= 1
    return result


class SparsePolynomial:
    """Exact multivariate polynomial with rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Tuple[int, ...], Rational] | None = None):
        vs = tuple(sorted(variables))
        if len(set(vs)) != len(vs):
            raise InvalidParameter(f"duplicate variable names in {variables!r}")
        self.variables = vs
        clean: Dict[Tuple[int, ...], Rational] = {}
        for exp, coeff in (terms or {}).items():
            if len(exp) != len(vs):
                raise InvalidParameter(f"exponent vector {exp} has wrong length for {vs}")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                clean[tuple(exp)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SparsePolynomial":
        return SparsePolynomial((), {})

    @staticmethod
    def constant(value) -> "SparsePolynomial":
        return SparsePolynomial((), {(): Fraction(value)})

    @staticmethod
    def variable(name: str) -> "SparsePolynomial":
        return SparsePolynomial((name,), {(1,): Fraction(1)})

    # -- variable alignment ------------------------------------------------

    def aligned_to(self, variables: Sequence[str]) -> "SparsePolynomial":
        """Re-express this polynomial over a superset of its variables."""
        vs = tuple(sorted(variables))
        if vs == self.variables:
            return self
        missing = set(self.variables) - set(vs)
        if missing:
            raise InvalidParameter(f"target variable set lacks {sorted(missing)}")
        pos = {v: i for i, v in enumerate(vs)}
        idx = [pos[v] for v in self.variables]
        terms: Dict[Tuple[int, ...], Rational] = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(vs)
            for i, e in zip(idx, exp):
                new[i] = e
            terms[tuple(new)] = coeff
        return SparsePolynomial(vs, terms)

    @staticmethod
    def _common(p: "SparsePolynomial", q: "SparsePolynomial"):
        vs = tuple(sorted(set(p.variables) | set(q.variables)))
        return p.aligned_to(vs), q.aligned_to(vs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "SparsePolynomial":
        p, q = self._common(self, _as_poly(other))
        return SparsePolynomial(p.variables, add_terms(dict(p.terms), q.terms))

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "SparsePolynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "SparsePolynomial":
        p, q = self._common(self, _as_poly(other))
        return SparsePolynomial(p.variables, mul_terms(p.terms, q.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePolynomial":
        if not isinstance(k, int) or k < 0:
            raise InvalidParameter("polynomial powers must be non-negative integers")
        return SparsePolynomial(self.variables, pow_terms(self.terms, k, len(self.variables)))

    def scale(self, c) -> "SparsePolynomial":
        c = Fraction(c)
        if c == 0:
            return SparsePolynomial(self.variables, {})
        return SparsePolynomial(self.variables, {e: c * v for e, v in self.terms.items()})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def evaluate(self, assignment: Mapping[str, Rational]) -> Rational:
        return poly_eval(self, assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return poly_equal_symbolic(self, other)

    def __hash__(self):
        p = self.drop_unused()
        return hash((p.variables, frozenset(p.terms.items())))

    def drop_unused(self) -> "SparsePolynomial":
        """Remove variables that appear in no term (normal form for equality)."""
        used = [i for i in range(len(self.variables)) if any(e[i] for e in self.terms)]
        if len(used) == len(self.variables):
            return self
        vs = tuple(self.variables[i] for i in used)
        terms = {tuple(e[i] for i in used): c for e, c in self.terms.items()}
        return SparsePolynomial(vs, terms)

    def __repr__(self):
        if not self.terms:
            return "SparsePolynomial(0)"
        bits = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exp) if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "SparsePolynomial(" + " + ".join(bits) + ")"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exp": list(exp), **rational_to_json(c)}
                for exp, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SparsePolynomial":
        try:
            vs = list(data["vars"])
            terms = {
                tuple(t["exp"]): rational_from_json(t)
                for t in data["terms"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed polynomial JSON: {exc}") from exc
        return SparsePolynomial(vs, terms)


def _as_poly(value) -> SparsePolynomial:
    if isinstance(value, SparsePolynomial):
        return value
    return SparsePolynomial.constant(value)


def poly_eval(p: SparsePolynomial, assignment: Mapping[str, Rational]) -> Rational:
    """Exact value of p at a total assignment of its variables."""
    for v in p.variables:
        if v not in assignment:
            raise MissingVariable(f"assignment lacks variable {v!r}")
    values = [Fraction(assignment[v]) for v in p.variables]
    # Over the integers: with D the lcm of the values' denominators and C that
    # of the coefficients', p(v) = sum_t (C c_t) prod (D v)^e * D^(top - deg t)
    # / (C D^top), where top is p's total degree.
    den = common_denominator(values)
    cden = common_denominator(p.terms.values())
    top = max(p.degree(), 0)
    powers = [den ** k for k in range(top + 1)]
    nums = [v.numerator * (den // v.denominator) for v in values]
    total = 0
    for exp, coeff in p.terms.items():
        term = coeff.numerator * (cden // coeff.denominator)
        deg = 0
        for val, e in zip(nums, exp):
            if e:
                term *= val if e == 1 else val ** e
                deg += e
        total += term * powers[top - deg]
    return Fraction(total, cden * powers[top])


def poly_equal_symbolic(p: SparsePolynomial, q: SparsePolynomial) -> bool:
    """True iff p and q have identical term maps after variable alignment."""
    a, b = SparsePolynomial._common(p.drop_unused(), q.drop_unused())
    return a.terms == b.terms


def poly_equal_randomized(
    f: Callable[[Assignment], Rational],
    g: Callable[[Assignment], Rational],
    variables: Sequence[str],
    degree_bound: int,
    trials: int,
    seed: int,
) -> bool:
    """Schwartz-Zippel identity test of two evaluation oracles.

    Samples `trials` points with coordinates uniform in [0, 2**32) from a
    seeded RNG; per-trial false-acceptance probability is at most
    degree_bound / 2**32.  Deterministic given the seed.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    if degree_bound < 0:
        raise InvalidParameter("degree_bound must be >= 0")
    rng = random.Random(seed)
    names = list(variables)
    for _ in range(trials):
        point = {v: Fraction(rng.randrange(SAMPLE_RANGE)) for v in names}
        if f(point) != g(point):
            return False
    return True


# -- exact linear algebra helpers -------------------------------------------
#
# Small dense systems over the rationals (Vandermonde inversions, basis
# certificates).  Plain Gaussian elimination; exactness matters, speed does
# not at these sizes.


def _eliminate(m: List[List[Fraction]], n: int) -> Fraction:
    """Gauss-Jordan elimination in place on the n x n system `m` (its rows
    may carry extra columns): each pivot row is scaled to 1 and its column
    cleared in every other row.  Returns the determinant of the square part,
    0 as soon as a column has no pivot."""
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def exact_det(matrix: Sequence[Sequence[Rational]]) -> Rational:
    """Determinant of a square rational matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InvalidParameter("determinant of a non-square matrix")
    return _eliminate([[Fraction(x) for x in row] for row in matrix], n)


def solve_linear(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> List[Rational]:
    """Solve M x = b exactly; raises InvalidParameter if M is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise InvalidParameter("solve_linear needs a square system")
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    if _eliminate(m, n) == 0:
        raise InvalidParameter("singular matrix in solve_linear")
    return [m[r][n] for r in range(n)]
