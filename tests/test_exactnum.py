"""Exact arithmetic and polynomial identity testing."""

import random
from fractions import Fraction

import pytest

from symcirc.errors import InvalidParameter, MissingVariable, ParseError
from symcirc.exactnum import (
    SparsePolynomial,
    exact_det,
    poly_equal_randomized,
    poly_equal_symbolic,
    poly_eval,
    rat,
    int_from_json,
    rational_from_json,
    rational_to_json,
    solve_linear,
)

x = SparsePolynomial.variable("x")
y = SparsePolynomial.variable("y")


def test_poly_eval_examples():
    assert poly_eval(x + y, {"x": 1, "y": 1}) == 2
    assert poly_eval(SparsePolynomial.zero(), {"x": 7}) == 0
    assert poly_eval(x * x, {"x": rat(3, 2)}) == rat(9, 4)


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariable):
        poly_eval(x + y, {"x": 1})


def test_symbolic_equality_examples():
    assert poly_equal_symbolic(x + y, y + x)
    assert poly_equal_symbolic(x, x + y.scale(0))
    assert not poly_equal_symbolic(x, x + x)


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


def test_eval_is_ring_homomorphism_on_random_polys():
    # poly_eval(p+q) = poly_eval(p) + poly_eval(q) and likewise for products,
    # over at least 100 random pairs with <= 5 variables and degree <= 4.
    rng = random.Random(11)
    names = ["v1", "v2", "v3", "v4", "v5"]
    for _ in range(100):
        p = _random_poly(rng, names)
        q = _random_poly(rng, names)
        a = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
        ps, qs = p.aligned_to(names), q.aligned_to(names)
        assert poly_eval(p + q, a) == poly_eval(ps, a) + poly_eval(qs, a)
        assert poly_eval(p * q, a) == poly_eval(ps, a) * poly_eval(qs, a)


def test_pow_and_scale():
    p = (x + 1) ** 2
    assert p == x * x + x.scale(2) + SparsePolynomial.constant(1)
    assert (x ** 0) == SparsePolynomial.constant(1)
    with pytest.raises(InvalidParameter):
        x ** -1


def test_randomized_equality():
    f = lambda a: poly_eval((x + 1) ** 2, a)
    g = lambda a: poly_eval(x * x + x.scale(2) + SparsePolynomial.constant(1), a)
    assert poly_equal_randomized(f, g, ["x"], degree_bound=2, trials=5, seed=3)
    h = lambda a: poly_eval(x, a)
    assert not poly_equal_randomized(f, h, ["x"], degree_bound=2, trials=5, seed=3)
    with pytest.raises(InvalidParameter):
        poly_equal_randomized(f, g, ["x"], degree_bound=2, trials=0, seed=3)


def test_randomized_equality_circuit_vs_oracle():
    # A compiled homomorphism circuit against its brute-force expansion.
    from symcirc import compilers, oracle
    from symcirc.pattern import make_path

    report = compilers.compile_single(make_path(2), 2, 2, "td")
    expansion = oracle.hom_poly(make_path(2), 2, 2)
    names = sorted(expansion.variables)
    f = lambda a: report.circuit.evaluate(a)
    g = lambda a: poly_eval(expansion, a)
    assert poly_equal_randomized(f, g, names, degree_bound=1, trials=3, seed=9)


def test_randomized_equality_deterministic():
    calls = []

    def probe(a):
        calls.append(a["x"])
        return poly_eval(x, a)

    poly_equal_randomized(probe, probe, ["x"], 1, 3, seed=42)
    first = list(calls)
    calls.clear()
    poly_equal_randomized(probe, probe, ["x"], 1, 3, seed=42)
    assert calls == first


def test_json_round_trip():
    p = x * y.scale(3) - SparsePolynomial.constant(rat(1, 2))
    q = SparsePolynomial.from_json(p.to_json())
    assert poly_equal_symbolic(p, q)
    assert SparsePolynomial.from_json(SparsePolynomial.zero().to_json()).is_zero()


def test_malformed_polynomial_json():
    good = {"vars": ["x"], "terms": [{"exp": [1], "num": "3", "den": "2"}]}
    assert SparsePolynomial.from_json(good) == x.scale(rat(3, 2))
    for term in ({"exp": [1], "num": "3", "den": "0"}, {"exp": [1], "num": "3"},
                 {"num": "3", "den": "1"}):
        with pytest.raises(ParseError):
            SparsePolynomial.from_json({"vars": ["x"], "terms": [term]})
    with pytest.raises(ParseError):
        SparsePolynomial.from_json({"terms": []})


def test_rational_json_codec():
    for value in (0, 7, -3, rat(-5, 6), Fraction(10 ** 30, 7)):
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
    assert SparsePolynomial.zero().degree() == -1
    assert SparsePolynomial.constant(4).degree() == 0
    assert (x * x * y).degree() == 3


def test_exact_linear_algebra():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert exact_det(m) == -2
    sol = solve_linear(m, [Fraction(5), Fraction(11)])
    assert sol == [Fraction(1), Fraction(2)]
    assert exact_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    with pytest.raises(InvalidParameter):
        solve_linear([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                     [Fraction(0), Fraction(0)])
