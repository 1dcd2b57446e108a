"""Exact arithmetic, polynomial evaluation and equality, and exact linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from symcirc.errors import InvalidParameter, MissingVariable, ParseError
from symcirc.exactnum import (
    SparsePolynomial,
    exact_det,
    poly_equal_symbolic,
    poly_eval,
    int_from_json,
    rational_from_json,
    rational_to_json,
    solve_linear,
)

x = SparsePolynomial(["x"], {(1,): 1})
x_plus_y = SparsePolynomial(["x", "y"], {(1, 0): 1, (0, 1): 1})
ZERO = SparsePolynomial((), {})


def test_poly_eval_examples():
    assert poly_eval(x_plus_y, {"x": 1, "y": 1}) == 2
    assert poly_eval(ZERO, {"x": 7}) == 0
    assert poly_eval(SparsePolynomial(["x"], {(2,): 1}), {"x": Fraction(3, 2)}) == Fraction(9, 4)


def test_exponents_follow_the_given_variable_order():
    p = SparsePolynomial(["y", "x"], {(1, 0): 1, (2, 3): Fraction(1, 2)})
    assert p.variables == ("x", "y")
    assert p.terms == {(0, 1): 1, (3, 2): Fraction(1, 2)}
    assert poly_eval(p, {"x": 2, "y": 3}) == 3 + Fraction(8 * 9, 2)


def test_coefficients_must_be_exact():
    assert SparsePolynomial(["x"], {(1,): Fraction(4, 2)}).terms == {(1,): 2}
    for bad in (0.1, "1/3", None, True):
        with pytest.raises(InvalidParameter, match="not an int or a Fraction"):
            SparsePolynomial(["x"], {(1,): bad})


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariable):
        poly_eval(x_plus_y, {"x": 1})


def test_symbolic_equality_examples():
    assert poly_equal_symbolic(x_plus_y, SparsePolynomial(["y", "x"], {(0, 1): 1, (1, 0): 1}))
    assert poly_equal_symbolic(x, SparsePolynomial(["x", "y"], {(1, 0): 1, (0, 1): 0}))
    assert not poly_equal_symbolic(x, SparsePolynomial(["x"], {(1,): 2}))


def test_symbolic_equality_is_equivalence_and_refines_evaluation():
    rng = random.Random(5)
    polys = [_random_poly(rng, ["x", "y", "z"]) for _ in range(12)]
    for p in polys:
        assert poly_equal_symbolic(p, p)
    for p in polys:
        for q in polys:
            assert poly_equal_symbolic(p, q) == poly_equal_symbolic(q, p)
            if poly_equal_symbolic(p, q):
                for _ in range(5):
                    a = {v: Fraction(rng.randint(-9, 9)) for v in ("x", "y", "z")}
                    assert poly_eval(p.aligned_to(("x", "y", "z")), a) == \
                        poly_eval(q.aligned_to(("x", "y", "z")), a)


def _random_poly(rng, names, max_degree=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0] * len(names)
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(len(names))] += 1
        if sum(exp) > max_degree:
            continue
        terms[tuple(exp)] = Fraction(rng.randint(-5, 5))
    return SparsePolynomial(names, terms)


def test_rational_json_codec():
    for value in (0, 7, -3, Fraction(-5, 6), Fraction(10 ** 30, 7)):
        data = rational_to_json(value)
        assert set(data) == {"num", "den"} and all(isinstance(v, str) for v in data.values())
        assert rational_from_json(data) == value
    for bad in ({"num": "1"}, {"den": "1"}, {"num": "1", "den": "0"}, {"num": "x", "den": "1"},
                {"num": "1.5", "den": "1"}, {"num": 1.5, "den": 1}, {"num": True, "den": "1"},
                {"num": None, "den": "1"}, [1, 2], "1/2"):
        with pytest.raises(ParseError):
            rational_from_json(bad)


def test_int_from_json_is_strict():
    assert [int_from_json(v) for v in (0, -3, "12", "-7", 10 ** 30)] == [0, -3, 12, -7, 10 ** 30]
    for bad in (1.5, 1.0, True, False, None, "1.5", "x", [1], {"num": "1"}):
        with pytest.raises(ParseError):
            int_from_json(bad)


def test_degree_and_zero_conventions():
    assert ZERO.degree() == -1
    assert SparsePolynomial((), {(): 4}).degree() == 0
    assert SparsePolynomial(["x", "y"], {(2, 1): 1}).degree() == 3


def test_exact_linear_algebra():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert exact_det(m) == -2
    sol = solve_linear(m, [Fraction(5), Fraction(11)])
    assert sol == [Fraction(1), Fraction(2)]
    assert exact_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    with pytest.raises(InvalidParameter):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                     [Fraction(0), Fraction(0)])


def _leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_exact_det_and_solve_linear_against_definitions():
    rng = random.Random(11)
    singular = 0
    for _ in range(200):
        n = rng.randint(0, 4)
        # Mostly zeros, so pivots are often missing and rows must be swapped.
        m = [[Fraction(rng.choice([0, 0, 0, rng.randint(-3, 3)]), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        det = exact_det(m)
        assert det == _leibniz_det(m) and type(det) is Fraction
        if det == 0:
            singular += 1
            with pytest.raises(InvalidParameter, match="singular matrix in solve_linear"):
                solve_linear(m, rhs)
        else:
            sol = solve_linear(m, rhs)
            assert [sum(a * b for a, b in zip(row, sol)) for row in m] == rhs
    assert singular > 20
    with pytest.raises(InvalidParameter, match="determinant of a non-square matrix"):
        exact_det([[1, 2]])
    with pytest.raises(InvalidParameter, match="solve_linear needs a square system"):
        solve_linear([[1, 2]], [1])
