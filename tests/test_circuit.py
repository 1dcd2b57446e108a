"""Circuit IR: validation, evaluation, expansion, serialization."""

import math
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
from symcirc.errors import InvalidParameter, MissingVariable, ParseError, SizeCap
from symcirc.exactnum import SparsePolynomial


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


def test_builder_rejects_unknown_gate_labels():
    b = CircuitBuilder()
    out = b.gate(("minus",), [(b.var("x"), 1)])
    with pytest.raises(InvalidParameter, match="unknown gate label"):
        b.finish(out)


def test_constants_must_be_exact():
    b = CircuitBuilder()
    assert b.labels[b.const(Fraction(4, 2))] == ("const", 2)
    for bad in (0.1, "1/3", True, None):
        with pytest.raises(InvalidParameter, match="not an int or a Fraction"):
            b.const(bad)


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
    assert c.expand_symbolic() == SparsePolynomial(["x", "y"], {(1, 0): 1, (0, 1): 1})
    b = CircuitBuilder()
    xg = b.var("x")
    t = b.times([(b.plus([(xg, 1), (b.const(1), 1)]), 1),
                 (b.plus([(xg, 1), (b.const(-1), 1)]), 1)])
    c = b.finish(t)
    assert c.expand_symbolic() == SparsePolynomial(["x"], {(2,): 1, (0,): -1})


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
    pool = [b.var(f"x_{i}_{j}") for i in (1, 2) for j in (1, 2)] + [b.const(1), b.const(Fraction(2, 3))]
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
    c = b.finish(b.const(Fraction(7, 5)))
    again = Circuit.deserialize(c.serialize())
    assert again.evaluate({}) == Fraction(7, 5)


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
    assert b.const(2) == b.const(Fraction(2))
    assert b.const(Fraction(1, 2)) != b.const(Fraction(2, 1))


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


def _past_kernel_threshold(c, assignment):
    """The values of the first evaluation of a fresh circuit, which is
    interpreted, and of one run by the kernel built since."""
    values = [c.evaluate(assignment) for _ in range(circuit.KERNEL_AFTER + 1)]
    assert c._kernel is not None
    return values[0], values[-1]


def test_kernel_takes_wide_gates():
    # 5000 operands on one line would make compile() raise RecursionError.
    names = [f"v{k}" for k in range(5000)]
    ints = {name: -1 if k % 100 else 3 for k, name in enumerate(names)}
    halves = {name: Fraction(v, 2) for name, v in ints.items()}
    for kind in ("plus", "times"):
        for point in (ints, halves):
            b = CircuitBuilder()
            c = b.finish(b.gate((kind,), [(b.var(name), 2) for name in names]))
            if kind == "plus":
                want = 2 * sum(point.values())
            else:
                want = math.prod(point.values()) ** 2
            assert _past_kernel_threshold(c, point) == (want, want)


def test_one_kernel_serves_int_and_fraction_points(monkeypatch):
    """KERNEL_AFTER evaluations of a fresh circuit, alternating int and
    fractional points, build one kernel; it then gives the interpreter's
    value and type at every point."""
    builds = []

    def counted(*args):
        builds.append(args)
        return build_kernel(*args)

    build_kernel = circuit._build_kernel
    monkeypatch.setattr(circuit, "_build_kernel", counted)
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    # x**2 * y + 3x + 5: the Plus gate lifts 3x and 5 by D ** 2.
    c = b.finish(b.plus([(b.times([(x, 2), (y, 1)]), 1), (x, 3), (b.const(5), 1)]))
    points = [{"x": k - 7, "y": 3 - 2 * k} if k % 2 == 0 else
              {"x": Fraction(k - 20, 2), "y": Fraction(k, 3)}
              for k in range(circuit.KERNEL_AFTER)]
    first = [c.evaluate(point) for point in points]
    assert len(builds) == 1 and c._kernel is not None
    assert {type(value) for value in first} == {int, Fraction}
    # All but the last of `first` were interpreted.
    for point, interpreted in zip(points[:-1], first):
        got = c.evaluate(point)
        assert got == interpreted == point["x"] ** 2 * point["y"] + 3 * point["x"] + 5
        assert type(got) is type(interpreted)
    assert len(builds) == 1


def test_bool_inputs_are_rejected_in_both_tiers():
    b = CircuitBuilder()
    c = b.finish(b.times([(b.var("x_1_1"), 1)]))
    with pytest.raises(InvalidParameter, match="not an int or a Fraction: True"):
        c.evaluate({"x_1_1": True})
    assert _past_kernel_threshold(c, {"x_1_1": 3}) == (3, 3)
    with pytest.raises(InvalidParameter, match="not an int or a Fraction: True"):
        c.evaluate({"x_1_1": True})


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, "3"])
def test_inputs_of_other_types_raise_the_same_text_in_both_tiers(bad):
    """An input that is not exactly an int or a Fraction leaves the int-only
    path and raises the text `common_denominator` gives, first among ints
    or among Fractions, before and after the kernel is built; so does a
    missing variable."""
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    c = b.finish(b.plus([(b.times([(x, 1), (y, 2)]), 1), (b.const(3), 1)]))
    for tier in range(2):
        for other in (5, Fraction(1, 3)):
            for point in ({"x": bad, "y": other}, {"x": other, "y": bad}):
                with pytest.raises(InvalidParameter) as exc:
                    c.evaluate(point)
                assert str(exc.value) == f"not an int or a Fraction: {bad!r}"
        with pytest.raises(MissingVariable) as exc:
            c.evaluate({"x": 1})
        assert str(exc.value) == "assignment lacks 'y'"
        if tier == 0:
            assert _past_kernel_threshold(c, {"x": 2, "y": 3}) == (21, 21)


def test_the_plan_reads_the_circuits_own_wires():
    """A gate with nothing to fold steps over its own children dict, not a
    copy; only gates with a folded or dropped wire get a new one."""
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    passing = b.plus([(x, 1)])  # folds onto x
    kept = b.times([(x, 1), (y, 2)])
    refolded = b.times([(passing, 1), (y, 2), (b.const(1), 4)])
    c = b.finish(b.plus([(kept, 1), (refolded, 2)]))
    steps = {step[0]: step[1] for step in c._evaluation_program()[5]}
    assert passing not in steps
    assert steps[kept] is c.children[kept] and steps[c.output] is c.children[c.output]
    assert steps[refolded] == {x: 1, y: 2} and steps[refolded] is not c.children[refolded]
    assert c.evaluate({"x": 2, "y": 3}) == 3 * 2 * 9


def test_kernel_source_holds_no_variable_names():
    hostile = ['"); import os; ("', "g1", "xs", "den", "__import__('os').getcwd()",
               "a\nb", "\\", "'''"]
    gates = [{"id": k, "label": {"var": name}} for k, name in enumerate(hostile)]
    gates += [{"id": 8, "label": {"const": {"num": "3", "den": "2"}}},
              {"id": 9, "label": "times"}, {"id": 10, "label": "plus"}]
    wires = [[9, k, k % 3 + 1] for k in range(8)] + [[10, 9, 1], [10, 8, 1], [10, 1, 2]]
    c = Circuit.from_json({"gates": gates, "wires": wires, "output": 10})
    point = {name: k + 1 for k, name in enumerate(hostile)}
    product = 1
    for k in range(8):
        product *= (k + 1) ** (k % 3 + 1)
    want = product + Fraction(3, 2) + 2 * 2
    assert _past_kernel_threshold(c, point) == (want, want)
    del point["den"]
    fresh = Circuit.from_json(c.to_json())
    for tier in (fresh, c):
        with pytest.raises(MissingVariable) as exc:
            tier.evaluate(point)
        assert str(exc.value) == "assignment lacks 'den'"


def _reference_topo_order(c: Circuit):
    """The depth-first order `Circuit.topo_order` walks for every circuit:
    from each gate in id order, children in id order, a gate emitted once
    its children are.  Kept here as the reference for the read-off order of
    circuits whose wires all go to lower ids."""
    state, order = [0] * c.num_gates(), []
    for start in range(c.num_gates()):
        if state[start]:
            continue
        stack = [(start, iter(sorted(c.children[start])))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if state[child] == 1:
                    raise InvalidParameter("circuit contains a cycle")
                if state[child] == 0:
                    state[child] = 1
                    stack.append((child, iter(sorted(c.children[child]))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
    return order


def _shuffled_json(c: Circuit, rng: random.Random) -> dict:
    """c's JSON with its gate ids permuted."""
    data, perm = c.to_json(), list(range(c.num_gates()))
    rng.shuffle(perm)
    return {"gates": [{"id": perm[g["id"]], "label": g["label"]} for g in data["gates"]],
            "wires": [[perm[p], perm[q], m] for p, q, m in data["wires"]],
            "output": perm[data["output"]]}


def test_topo_order_matches_the_depth_first_reference():
    from symcirc.symmetry import random_symmetric_circuit

    rng = random.Random(32)
    circuits = [_random_circuit(rng) for _ in range(60)]
    circuits += [random_symmetric_circuit(2, 3, rng, 40, mode) for mode in ("general", "skew") * 5]
    upward = 0
    for c in circuits:
        shuffled = Circuit.from_json(_shuffled_json(c, rng))
        upward += any(ch > p for p, ch, _ in shuffled.wires())
        for built in (c, Circuit.from_json(c.to_json()), shuffled):
            assert built.topo_order() == _reference_topo_order(built)
        assert c.topo_order() == list(range(c.num_gates()))
    assert upward > len(circuits) // 2


def _gates(*labels):
    return [{"id": g, "label": label} for g, label in enumerate(labels)]


@pytest.mark.parametrize("gates, wires, output, error", [
    # A cycle through gates 1 and 2.
    (_gates({"var": "x"}, "plus", "plus"), [[1, 2, 1], [2, 1, 1], [2, 0, 1]], 1,
     "invalid circuit: circuit contains a cycle"),
    # A self-loop.
    (_gates({"var": "x"}, "plus"), [[1, 0, 1], [1, 1, 1]], 1,
     "invalid circuit: circuit contains a cycle"),
    # Gate 1 hangs off nothing.
    (_gates({"var": "x"}, {"var": "y"}, "plus"), [[2, 0, 1]], 2,
     "invalid circuit: unreachable gates present"),
    # Gates 1 and 2 hang off each other, but off nothing the output reaches.
    (_gates({"var": "x"}, "plus", "plus", "times"), [[1, 0, 1], [2, 1, 1], [3, 0, 2]], 3,
     "invalid circuit: unreachable gates present"),
    (_gates({"var": "x"}, "plus"), [[1, 0, 1]], 0, "invalid circuit: output gate has parents"),
])
def test_from_json_names_each_structural_fault(gates, wires, output, error):
    with pytest.raises(ParseError) as info:
        Circuit.from_json({"gates": gates, "wires": wires, "output": output})
    assert str(info.value) == error


def test_a_circuit_may_wire_to_higher_ids():
    # Gate 0 = (x + 1) * x^2 + x, every wire going to a higher id.
    gates = _gates("plus", "times", {"var": "x"}, {"const": {"num": "1", "den": "1"}}, "plus")
    wires = [[0, 1, 1], [0, 2, 1], [1, 4, 1], [1, 2, 2], [4, 2, 1], [4, 3, 1]]
    c = Circuit.from_json({"gates": gates, "wires": wires, "output": 0})
    assert c.validate(GENERAL) == (True, "")
    assert c.topo_order() == _reference_topo_order(c) == [2, 3, 4, 1, 0]
    assert c.evaluate({"x": 2}) == 3 * 4 + 2


def test_a_finished_builder_takes_no_more_calls():
    b = CircuitBuilder()
    x = b.var("x")
    c = b.finish(b.plus([(x, 1), (b.const(1), 1)]))
    for call in (lambda: b.var("y"), lambda: b.plus([(x, 1)]), lambda: b.finish(x)):
        with pytest.raises(InvalidParameter, match="finished"):
            call()
    assert c.evaluate({"x": 2}) == 3 and c.num_gates() == 3
