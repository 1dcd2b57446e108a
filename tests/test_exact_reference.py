"""The integer-first evaluators against plain Fraction loops written here.

The brute-force oracles, circuit evaluation and symbolic expansion compute
over the integers and divide once; every check below recomputes the same
value the slow, obvious way, with one Fraction operation per step, on seeded
rational inputs with negative and zero entries, mixed denominators and
multiedges.  Circuit evaluation is checked on both of its tiers: the
interpreter loop and, past KERNEL_AFTER evaluations, the generated kernel.
"""

import itertools
import random
from fractions import Fraction

from symcirc import compilers
from symcirc.circuit import KERNEL_AFTER, CircuitBuilder
from symcirc.exactnum import SparsePolynomial
from symcirc.oracle import (
    ColouredGraph,
    WeightedHost,
    colhom_eval,
    emb_eval,
    hom_count,
)
from symcirc.pattern import BipartiteMultigraph, make_cycle, make_path

DENOMINATORS = (1, 1, 2, 3, 5, 7)

PATTERNS = (
    make_path(3),
    make_cycle(4),
    BipartiteMultigraph(1, 1, {(0, 0): 3}),
    BipartiteMultigraph(2, 2, {(0, 0): 2, (0, 1): 1, (1, 1): 3}),
    BipartiteMultigraph(2, 1, {(0, 0): 1, (1, 0): 2}),
    BipartiteMultigraph(2, 2, {(0, 0): 1}),  # isolated vertices
)


def _weight(rng):
    """A rational weight: zero about one time in five, else signed with a
    denominator drawn from DENOMINATORS."""
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6) or 1, rng.choice(DENOMINATORS))


def _host(n, m, rng):
    return WeightedHost(n, m, {(i, j): _weight(rng) for i in range(n) for j in range(m)})


def _reference_sum(f, weight, maps):
    total = Fraction(0)
    for image in maps:
        term = Fraction(1)
        for (i, j), mult in f.edges.items():
            term *= Fraction(weight(image[i], image[f.a_count + j])) ** mult
        total += term
    return total


def _all_maps(f, n, m):
    return itertools.product(*([range(n)] * f.a_count + [range(m)] * f.b_count))


def _injective(f, image):
    left, right = image[:f.a_count], image[f.a_count:]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def test_hom_and_emb_match_fraction_loops():
    rng = random.Random(11)
    for f in PATTERNS:
        for n, m in ((1, 1), (2, 3), (3, 2), (3, 3)):
            host = _host(n, m, rng)
            want = _reference_sum(f, host.get, _all_maps(f, n, m))
            assert hom_count(f, host) == want
            injective = [image for image in _all_maps(f, n, m) if _injective(f, image)]
            assert emb_eval(f, host) == _reference_sum(f, host.get, injective)


def test_colhom_matches_fraction_loop():
    rng = random.Random(13)
    for f in PATTERNS[:5]:
        colours = [v + 1 for v in f.vertices()]
        for n in (1, 2, 3):
            g = ColouredGraph({c: n for c in colours})
            for (u, v, _) in f.edge_list_global():
                for i in range(n):
                    for j in range(n):
                        g.set_weight((u + 1, i), (v + 1, j), _weight(rng))

            total = Fraction(0)
            for image in itertools.product(range(n), repeat=f.num_vertices()):
                term = Fraction(1)
                for (u, v, mult) in f.edge_list_global():
                    term *= Fraction(g.get((u + 1, image[u]), (v + 1, image[v]))) ** mult
                total += term
            assert colhom_eval(f, g) == total


def test_polynomial_weights_take_the_ring_path():
    a, b = SparsePolynomial.variable("a"), SparsePolynomial.variable("b")
    weights = {(0, 0): a + b, (0, 1): a.scale(Fraction(-1, 2)), (1, 0): b * b,
               (1, 1): SparsePolynomial.constant(Fraction(2, 3))}
    f = PATTERNS[3]
    value = hom_count(f, WeightedHost(2, 2, weights))
    assert isinstance(value, SparsePolynomial)
    rng = random.Random(14)
    for _ in range(4):
        point = {"a": _weight(rng), "b": _weight(rng)}
        numeric = {k: w.evaluate(point) for k, w in weights.items()}
        want = _reference_sum(f, lambda i, j: numeric.get((i, j), 0), _all_maps(f, 2, 2))
        assert value.evaluate(point) == want
    assert hom_count(f, WeightedHost(2, 2, {})) == 0


def _random_circuit(rng, names, gates):
    """A random DAG over `names` with signed, non-integral constants and
    wire multiplicities up to 3."""
    builder = CircuitBuilder()
    pool = [builder.var(x) for x in names]
    pool += [builder.const(Fraction(rng.randint(-5, 5), rng.choice(DENOMINATORS)))
             for _ in range(3)]
    for _ in range(gates):
        kids = [(rng.choice(pool), rng.randint(1, 3 if rng.random() < 0.3 else 1))
                for _ in range(rng.randint(1, 3))]
        pool.append((builder.plus if rng.random() < 0.5 else builder.times)(kids))
    return builder.finish(builder.plus([(g, 1) for g in pool[-3:]]))


def _reference_evaluate(c, assignment):
    values = {}
    for g in c.topo_order():
        lbl = c.labels[g]
        if lbl[0] == "var":
            values[g] = Fraction(assignment[lbl[1]])
        elif lbl[0] == "const":
            values[g] = Fraction(lbl[1])
        elif lbl[0] == "plus":
            values[g] = sum((mult * values[ch] for ch, mult in c.children[g].items()),
                            Fraction(0))
        else:
            value = Fraction(1)
            for ch, mult in c.children[g].items():
                value *= values[ch] ** mult
            values[g] = value
    return values[c.output]


def _reference_expand(c):
    """Polynomials as dicts from sorted ((variable, exponent), ...) to Fraction."""
    polys = {}
    for g in c.topo_order():
        lbl = c.labels[g]
        if lbl[0] == "var":
            polys[g] = {((lbl[1], 1),): Fraction(1)}
        elif lbl[0] == "const":
            polys[g] = {(): Fraction(lbl[1])}
        else:
            acc = {} if lbl[0] == "plus" else {(): Fraction(1)}
            for ch, mult in c.children[g].items():
                if lbl[0] == "plus":
                    for mono, coeff in polys[ch].items():
                        acc[mono] = acc.get(mono, Fraction(0)) + mult * coeff
                    continue
                for _ in range(mult):
                    product = {}
                    for m1, c1 in acc.items():
                        for m2, c2 in polys[ch].items():
                            powers = dict(m1)
                            for x, e in m2:
                                powers[x] = powers.get(x, 0) + e
                            mono = tuple(sorted(powers.items()))
                            product[mono] = product.get(mono, Fraction(0)) + c1 * c2
                    acc = product
            polys[g] = acc
    return {mono: coeff for mono, coeff in polys[c.output].items() if coeff != 0}


def _as_reference(p):
    return {tuple((x, e) for x, e in zip(p.variables, exp) if e): coeff
            for exp, coeff in p.terms.items()}


def test_circuits_match_fraction_loops():
    rng = random.Random(15)
    circuits = [_random_circuit(rng, ["x", "y", "z"], rng.randint(4, 12)) for _ in range(25)]
    circuits += [compilers.compile_single(f, 2, 2, shape).circuit
                 for f in PATTERNS[:4] for shape in ("td", "pw", "tw")]
    for c in circuits:
        names = c.variables()
        assert _as_reference(c.expand_symbolic()) == _reference_expand(c)
        for _ in range(3):
            point = {x: _weight(rng) for x in names}
            assert c.evaluate(point) == _reference_evaluate(c, point)
        ints = {x: rng.randint(-4, 4) for x in names}
        want = _reference_evaluate(c, ints)
        got = c.evaluate(ints)
        assert got == want
        integral = all(lbl[1].denominator == 1 for lbl in c.labels if lbl[0] == "const")
        assert isinstance(got, int if integral else Fraction)
        if names:
            assert isinstance(c.evaluate({x: Fraction(v) for x, v in ints.items()}), Fraction)


def test_kernels_match_fraction_loops():
    """Past KERNEL_AFTER evaluations of each circuit, on int, Fraction,
    integral Fraction and polynomial inputs, values and types match the
    reference."""
    rng = random.Random(16)
    circuits = [_random_circuit(rng, ["x", "y", "z"], rng.randint(4, 12)) for _ in range(12)]
    circuits += [compilers.compile_single(f, 2, 2, shape).circuit
                 for f in PATTERNS[1:3] for shape in ("td", "pw", "tw")]
    t = SparsePolynomial.variable("t")
    shifted = 0
    for c in circuits:
        names = c.variables()
        if not names:
            continue
        integral = all(lbl[1].denominator == 1 for lbl in c.labels if lbl[0] == "const")
        shifted += any(gate[2] for gate in c._evaluation_program()[5])
        for _ in range(KERNEL_AFTER + 2):
            ints = {x: rng.randint(-4, 4) for x in names}
            got = c.evaluate(ints)
            assert got == _reference_evaluate(c, ints)
            assert type(got) is (int if integral else Fraction)
            point = {x: _weight(rng) for x in names}
            point[names[0]] = Fraction(2 * rng.randint(-3, 3) + 1, 2)  # so D > 1
            got = c.evaluate(point)
            assert got == _reference_evaluate(c, point) and type(got) is Fraction
            got = c.evaluate({x: Fraction(v) for x, v in ints.items()})
            assert got == _reference_evaluate(c, ints) and type(got) is Fraction
            # Each variable is t + q; the value at t = 0 and t = 1 is the
            # reference at q and at q + 1.
            lifts = {x: rng.randint(-3, 3) for x in names}
            got = c.evaluate({x: t + q for x, q in lifts.items()})
            assert type(got) is SparsePolynomial
            for t0 in (0, 1):
                assert got.evaluate({"t": t0}) == \
                    _reference_evaluate(c, {x: q + t0 for x, q in lifts.items()})
        assert c._kernel is not None
    assert shifted >= 3
