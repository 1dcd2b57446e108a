"""Circuit IR: validation, evaluation, expansion, serialization."""

import random
from fractions import Fraction

import pytest

from symcirc import circuit
from symcirc.circuit import (
    Circuit,
    CircuitBuilder,
    FORMULA,
    FORMULA_MULTI,
    GENERAL,
    SKEW,
    var_name,
)
from symcirc.errors import MissingVariable, ParseError, SizeCap
from symcirc.exactnum import SparsePolynomial, rat


def _plus_xy():
    b = CircuitBuilder()
    out = b.plus([(b.var("x"), 1), (b.var("y"), 1)])
    return b.finish(out)


def test_validate_examples():
    b = CircuitBuilder()
    c = b.finish(b.var("x"))
    assert c.validate(FORMULA)[0]

    b = CircuitBuilder()
    p1 = b.plus([(b.var("x"), 1), (b.const(1), 1)])
    p2 = b.plus([(b.var("y"), 1), (b.const(2), 1)])
    t = b.times([(p1, 1), (p2, 1)])
    c = b.finish(t)
    ok, why = c.validate(SKEW)
    assert not ok and "internal children" in why
    assert c.validate(GENERAL)[0]
    assert c.validate(FORMULA)[0]

    # A plus gate feeding two parents: not a formula, fine in general.
    b = CircuitBuilder()
    shared = b.plus([(b.var("x"), 1)])
    t1 = b.times([(shared, 1), (b.var("y"), 1)])
    t2 = b.times([(shared, 1), (b.var("z"), 1)])
    c = b.finish(b.plus([(t1, 1), (t2, 1)]))
    assert not c.validate(FORMULA)[0]
    assert not c.validate(FORMULA_MULTI)[0]
    assert c.validate(GENERAL)[0]


def test_shape_implications():
    rng = random.Random(2)
    for _ in range(25):
        c = _random_circuit(rng)
        for shape, weaker in ((FORMULA, FORMULA_MULTI), (FORMULA_MULTI, GENERAL), (SKEW, GENERAL)):
            if c.validate(shape)[0]:
                assert c.validate(weaker)[0]


def test_size_examples():
    b = CircuitBuilder()
    c = b.finish(b.var("x"))
    assert c.size() == 1
    c = _plus_xy()
    assert c.size() == 5
    b = CircuitBuilder()
    c = b.finish(b.plus([(b.var("x"), 2)]))
    assert c.size() == 4


def test_evaluate_examples():
    c = _plus_xy()
    assert c.evaluate({"x": 2, "y": 3}) == 5
    b = CircuitBuilder()
    c = b.finish(b.times([(b.var("x"), 2)]))
    assert c.evaluate({"x": 3}) == 9
    b = CircuitBuilder()
    c = b.finish(b.plus([(b.var("x"), 2)]))
    assert c.evaluate({"x": 3}) == 6
    with pytest.raises(MissingVariable):
        c.evaluate({})


def test_expand_examples():
    c = _plus_xy()
    x, y = SparsePolynomial.variable("x"), SparsePolynomial.variable("y")
    assert c.expand_symbolic() == x + y
    b = CircuitBuilder()
    xg = b.var("x")
    t = b.times([(b.plus([(xg, 1), (b.const(1), 1)]), 1),
                 (b.plus([(xg, 1), (b.const(-1), 1)]), 1)])
    c = b.finish(t)
    assert c.expand_symbolic() == x * x - SparsePolynomial.constant(1)


def test_expand_cap(monkeypatch):
    b = CircuitBuilder()
    acc = b.plus([(b.var(f"v{i}"), 1) for i in range(8)])
    sq = b.times([(acc, 4)])
    c = b.finish(sq)
    monkeypatch.setattr(circuit, "EXPANSION_TERM_LIMIT", 10)
    with pytest.raises(SizeCap):
        c.expand_symbolic()


def _random_circuit(rng: random.Random) -> Circuit:
    b = CircuitBuilder()
    pool = [b.var(f"x_{i}_{j}") for i in (1, 2) for j in (1, 2)] + [b.const(1), b.const(rat(2, 3))]
    out = pool[0]
    for _ in range(rng.randint(1, 10)):
        size = rng.randint(1, 3)
        children = [(rng.choice(pool), rng.randint(1, 2)) for _ in range(size)]
        op = b.plus if rng.random() < 0.5 else b.times
        out = op(children)
        pool.append(out)
    return b.finish(out)


def test_serialize_round_trip_random():
    rng = random.Random(9)
    for k in range(100):
        c = _random_circuit(rng)
        again = Circuit.deserialize(c.serialize())
        assert again.size() == c.size()
        assert again.labels == c.labels
        assert again.children == c.children
        a = {v: Fraction(rng.randint(-3, 3)) for v in c.variables()}
        assert c.evaluate(a) == again.evaluate(a)


def test_serialize_constant_circuit():
    b = CircuitBuilder()
    c = b.finish(b.const(rat(7, 5)))
    again = Circuit.deserialize(c.serialize())
    assert again.evaluate({}) == rat(7, 5)


def test_deserialize_rejects_garbage():
    with pytest.raises(ParseError):
        Circuit.deserialize(b"not json")
    with pytest.raises(ParseError):
        Circuit.from_json({"gates": [{"id": 0, "label": "frobnicate"}],
                           "wires": [], "output": 0})


def test_to_dot():
    c = _plus_xy()
    dot = c.to_dot()
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 3 and len(edge_lines) == 2


def test_unique_input_gates():
    b = CircuitBuilder()
    assert b.var("x") == b.var("x")
    assert b.const(2) == b.const(rat(2))
    assert b.const(rat(1, 2)) != b.const(rat(2, 1))


def test_evaluation_matches_expansion_on_random_circuits():
    rng = random.Random(4)
    for _ in range(20):
        c = _random_circuit(rng)
        poly = c.expand_symbolic()
        for _ in range(20):
            a = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in c.variables()}
            full = dict(a)
            assert c.evaluate(full) == poly.evaluate({v: full.get(v, Fraction(0))
                                                      for v in poly.variables})


def test_depth_metric():
    b = CircuitBuilder()
    inner = b.plus([(b.var("x"), 1)])
    outer = b.times([(inner, 1), (b.var("y"), 1)])
    c = b.finish(outer)
    assert c.depth() == 2
