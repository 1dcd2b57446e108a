"""Compilers against the brute-force oracle and their shape/symmetry contracts."""

import itertools
import random
from fractions import Fraction

import pytest

from symcirc import compilers, oracle, symmetry, width
from symcirc.circuit import FORMULA_MULTI, GENERAL, SKEW
from symcirc.errors import InvalidDecomposition, InvalidEliminationTree, InvalidParameter
from symcirc.oracle import ColouredGraph, WeightedHost
from symcirc.pattern import (
    BipartiteMultigraph,
    enumerate_bipartite_multigraphs,
    make_complete_binary_tree,
    make_complete_bipartite,
    make_cycle,
    make_grid,
    make_path,
)

ALL_ONES_22 = {f"x_{i}_{j}": Fraction(1) for i in (1, 2) for j in (1, 2)}


def test_td_compiler_examples():
    rep = compilers.compile_single(make_path(2), 2, 2, "td")
    assert rep.circuit.evaluate(ALL_ONES_22) == 4
    rep3 = compilers.compile_single(make_path(3), 2, 2, "td")
    assert rep3.circuit.evaluate(ALL_ONES_22) == 8
    weighted = dict(ALL_ONES_22)
    weighted["x_1_1"] = Fraction(2)
    host = WeightedHost.from_assignment(2, 2, weighted)
    assert rep3.circuit.evaluate(weighted) == oracle.hom_count(make_path(3), host)


def test_td_compiler_shape_and_bounds():
    f = make_path(4)
    d, forest = width.treedepth_exact(f)
    rep = compilers.compile_certificate(f, forest, 2, 2)
    assert rep.shape == FORMULA_MULTI
    assert rep.circuit.validate(FORMULA_MULTI)[0]
    assert rep.claimed_bounds["support_bound"] == d
    assert rep.circuit.size() <= rep.claimed_bounds["size_bound"]
    assert symmetry.is_rigid(rep.circuit)


def test_td_compiler_rejects_invalid_forest():
    f = make_path(3)
    bad = width.EliminationForest({0: None, 1: None, 2: None})
    with pytest.raises(InvalidEliminationTree):
        compilers.compile_certificate(f, bad, 2, 2)


def test_pw_compiler_examples():
    rep = compilers.compile_single(make_path(4), 2, 2, "pw")
    assert rep.circuit.evaluate(ALL_ONES_22) == 16
    assert rep.circuit.validate(SKEW)[0]
    rep_c4 = compilers.compile_single(make_cycle(4), 2, 2, "pw")
    assert rep_c4.circuit.evaluate(ALL_ONES_22) == 16
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    rep_d = compilers.compile_single(double, 2, 2, "pw")
    zeros = {name: Fraction(0) for name in ALL_ONES_22}
    zeros["x_1_1"] = Fraction(2)
    assert rep_d.circuit.evaluate(zeros) == 4


def test_pw_compiler_rejects_invalid_decomposition():
    f = make_path(3)
    bad = width.PathDecomposition([frozenset({0}), frozenset({1})])
    with pytest.raises(InvalidDecomposition):
        compilers.compile_certificate(f, bad, 2, 2)


def test_tw_compiler_examples():
    star = make_complete_bipartite(1, 3)
    rep = compilers.compile_single(star, 2, 2, "tw")
    assert rep.circuit.evaluate({f"x_{i}_{j}": Fraction(1)
                                 for i in (1, 2) for j in (1, 2)}) == 16
    k22 = make_complete_bipartite(2, 2)
    rng = random.Random(6)
    host = WeightedHost(3, 3, {(i, j): Fraction(rng.randint(0, 1))
                               for i in range(3) for j in range(3)})
    rep_k = compilers.compile_single(k22, 3, 3, "tw")
    assert rep_k.circuit.evaluate(host.to_assignment()) == oracle.hom_count(k22, host)


def test_tw_agrees_with_pw_on_path_decompositions():
    f = make_path(4)
    pw, pdeco = width.pathwidth_exact(f)
    rep_pw = compilers.compile_certificate(f, pdeco, 2, 2)
    rep_tw = compilers.compile_certificate(f, pdeco.as_tree(), 2, 2)
    rng = random.Random(4)
    for _ in range(10):
        a = {name: Fraction(rng.randint(-4, 4)) for name in ALL_ONES_22}
        assert rep_pw.circuit.evaluate(a) == rep_tw.circuit.evaluate(a)


def test_compilers_match_oracle_symbolically():
    patterns = [
        make_path(2), make_path(4), make_cycle(4),
        make_complete_bipartite(2, 2),
        BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1}),
        BipartiteMultigraph(2, 2, {(0, 0): 1}),  # edge plus isolated vertices
        BipartiteMultigraph(2, 2),               # edgeless
    ]
    for f in patterns:
        for n, m in ((1, 2), (2, 2), (3, 2)):
            hp = oracle.hom_poly(f, n, m)
            for shape in ("td", "pw", "tw"):
                rep = compilers.compile_single(f, n, m, shape)
                assert rep.circuit.expand_symbolic() == hp, (f, shape, n, m)
                assert symmetry.is_symmetric(rep.circuit, n, m)


def test_compilers_on_every_optimal_decomposition_variant():
    # The compilers accept any valid certificate, not just the optimal one.
    f = make_path(3)
    hp = oracle.hom_poly(f, 2, 2)
    # A wasteful path decomposition.
    deco = width.PathDecomposition([frozenset({0, 2}), frozenset({0, 1, 2})])
    assert width.validate_decomposition(f, deco)[0]
    rep = compilers.compile_certificate(f, deco, 2, 2)
    assert rep.circuit.expand_symbolic() == hp
    # A deeper elimination tree (path-shaped instead of centred).
    forest = width.EliminationForest({0: None, 2: 0, 1: 2})
    assert width.validate_decomposition(f, forest)[0]
    rep2 = compilers.compile_certificate(f, forest, 2, 2)
    assert rep2.circuit.expand_symbolic() == hp
    assert rep2.circuit.validate(FORMULA_MULTI)[0]


def test_lincomb_examples():
    p2, p3 = make_path(2), make_path(3)
    single = compilers.compile_lincomb([(Fraction(1), p2)], 2, 2, "td")
    direct = compilers.compile_single(p2, 2, 2, "td")
    assert single.circuit.expand_symbolic() == direct.circuit.expand_symbolic()
    cancel = compilers.compile_lincomb([(Fraction(1), p2), (Fraction(-1), p2)], 2, 2, "pw")
    rng = random.Random(2)
    for _ in range(10):
        a = {name: Fraction(rng.randint(-5, 5)) for name in ALL_ONES_22}
        assert cancel.circuit.evaluate(a) == 0
    mix = compilers.compile_lincomb([(Fraction(1), p2), (Fraction(2), p3)], 2, 2, "td")
    assert mix.circuit.evaluate(ALL_ONES_22) == 4 + 2 * 8
    assert mix.circuit.validate(FORMULA_MULTI)[0]
    assert symmetry.is_symmetric(mix.circuit, 2, 2)
    assert symmetry.is_rigid(mix.circuit)


def test_lincomb_shapes():
    p2, c4 = make_path(2), make_cycle(4)
    for shape, want in (("td", FORMULA_MULTI), ("pw", SKEW), ("tw", GENERAL)):
        rep = compilers.compile_lincomb(
            [(Fraction(1, 2), p2), (Fraction(-3), c4)], 2, 2, shape)
        assert rep.shape == want
        assert rep.circuit.validate(want)[0]
        hp = oracle.hom_poly(p2, 2, 2).scale(Fraction(1, 2)) + \
            oracle.hom_poly(c4, 2, 2).scale(-3)
        assert rep.circuit.expand_symbolic() == hp


def test_colourful_examples():
    p2 = make_path(2)
    idc = oracle.identity_colouring(p2)
    rep = compilers.compile_colourful(p2, idc, 1, "td")
    from symcirc.exactnum import SparsePolynomial
    assert rep.circuit.expand_symbolic() == SparsePolynomial.variable("x_1_1__2_1")
    # All-ones at n=2 gives the number of maps.
    rep2 = compilers.compile_colourful(p2, idc, 2, "pw")
    ones = {name: Fraction(1) for name in rep2.circuit.variables()}
    assert rep2.circuit.evaluate(ones) == 4


def test_colourful_rejects_empty_hosts():
    p3 = make_path(3)
    for shape in ("td", "pw", "tw"):
        with pytest.raises(InvalidParameter, match="host sizes must be >= 1"):
            compilers.compile_colourful(p3, oracle.identity_colouring(p3), 0, shape)


def test_colourful_matches_oracle():
    rng = random.Random(10)
    p3 = make_path(3)
    idc = oracle.identity_colouring(p3)
    g = ColouredGraph({c: 2 for c in idc.values()})
    for (u, v, _) in p3.edge_list_global():
        for i in range(2):
            for j in range(2):
                g.set_weight((idc[u], i), (idc[v], j),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    want = oracle.colhom_eval(p3, g)
    assignment = g.to_assignment()
    for shape in ("td", "pw", "tw"):
        rep = compilers.compile_colourful(p3, idc, 2, shape)
        full = {name: assignment.get(name, Fraction(0)) for name in rep.circuit.variables()}
        assert rep.circuit.evaluate(full) == want
    # Against the expanded colourful polynomial as well.
    rep = compilers.compile_colourful(p3, idc, 2, "td")
    assert rep.circuit.expand_symbolic() == oracle.colhom_poly(p3, 2)


def test_colourful_non_identity_colouring():
    # A proper colouring with a repeated colour.
    p3 = make_path(3)
    colouring = {0: "left", 1: "left", 2: "mid"}
    rep = compilers.compile_colourful(p3, colouring, 2, "tw")
    rng = random.Random(12)
    g = ColouredGraph({"left": 2, "mid": 2})
    for i in range(2):
        for j in range(2):
            g.set_weight(("left", i), ("mid", j), Fraction(rng.randint(-2, 2)))
    want = oracle.coloured_hom_eval(p3, colouring, g)
    assignment = g.to_assignment()
    full = {name: assignment.get(name, Fraction(0)) for name in rep.circuit.variables()}
    assert rep.circuit.evaluate(full) == want


def _fattened_path_decomposition(f, rng):
    """A valid but non-optimal path decomposition: extend each vertex's
    occurrence interval one bag to the left with probability 1/2."""
    _, deco = width.pathwidth_exact(f)
    bags = [set(b) for b in deco.bags]
    for v in f.vertices():
        occ = [i for i, b in enumerate(bags) if v in b]
        if occ and occ[0] > 0 and rng.random() < 0.5:
            bags[occ[0] - 1].add(v)
    return width.PathDecomposition([frozenset(b) for b in bags])


def test_compilers_accept_arbitrary_valid_certificates():
    rng = random.Random(23)
    # The last pattern has an isolated vertex, A-vertex 1.
    patterns = [make_path(4), make_cycle(4), make_complete_bipartite(1, 3),
                BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1}),
                BipartiteMultigraph(2, 2, {(0, 0): 1, (0, 1): 2})]
    for f in patterns:
        hp = oracle.hom_poly(f, 2, 2)
        for _ in range(3):
            deco = _fattened_path_decomposition(f, rng)
            assert width.validate_decomposition(f, deco)[0]
            rep = compilers.compile_certificate(f, deco, 2, 2)
            assert rep.circuit.expand_symbolic() == hp
            rep_tw = compilers.compile_certificate(f, deco.as_tree(), 2, 2)
            assert rep_tw.circuit.expand_symbolic() == hp
        # A chain elimination forest (any linear order is valid), with the
        # isolated vertices above the others.
        order = list(f.vertices())
        rng.shuffle(order)
        order.sort(key=lambda v: v not in f.isolated_vertices())
        parent = {order[0]: None}
        for prev, v in zip(order, order[1:]):
            parent[v] = prev
        forest = width.EliminationForest(parent)
        assert width.validate_decomposition(f, forest)[0]
        rep_td = compilers.compile_certificate(f, forest, 2, 2)
        assert rep_td.circuit.expand_symbolic() == hp
        assert rep_td.circuit.validate(FORMULA_MULTI)[0]


def test_compile_certificate_of_a_deep_chain_forest():
    f = make_path(1200)
    order = list(f.vertices())
    forest = width.EliminationForest({v: (order[k - 1] if k else None)
                                      for k, v in enumerate(order)})
    rep = compilers.compile_certificate(f, forest, 1, 1)
    assert rep.shape == FORMULA_MULTI and rep.claimed_bounds["support_bound"] == 1200
    assert rep.circuit.evaluate({"x_1_1": Fraction(1)}) == 1


def _check_bag_table_is_shared(f, deco, n, m):
    """The bag-table compile is rigid, has its shape, repeats no internal gate
    (label and children), and is a fixpoint of `rigidify`: returned as it is
    unless formula-shaped, which `rigidify` rebuilds as a tree."""
    report = compilers.compile_certificate(f, deco, n, m)
    c, where = report.circuit, (f.to_json(), n, m)
    assert symmetry.is_rigid(c), where
    assert c.validate(report.shape)[0], where
    keys = [(c.labels[g], tuple(sorted(c.children[g].items())))
            for g in range(c.num_gates()) if not c.is_input(g)]
    assert len(set(keys)) == len(keys), where
    if c.validate(FORMULA_MULTI)[0]:
        assert symmetry.rigidify(c).num_gates() == c.num_gates(), where
    else:
        assert symmetry.rigidify(c) is c, where


def test_bag_tables_are_built_shared_at_every_host_size_and_certificate():
    for f in enumerate_bipartite_multigraphs(6, 8, max_mult=2)[::7]:
        decos = [width.pathwidth_exact(f)[1], width.treewidth_exact(f)[1]]
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for deco in decos:
                _check_bag_table_is_shared(f, deco, n, m)
    # Certificates that are not optimal: one bag holding every vertex, and
    # trees from seeded random elimination orders.
    rng = random.Random(12)
    for f in (make_path(5), make_cycle(4), make_complete_bipartite(2, 3),
              BipartiteMultigraph(2, 2, {(0, 0): 2, (0, 1): 1, (1, 1): 1})):
        everything = frozenset(f.vertices())
        order = list(f.vertices())
        rng.shuffle(order)
        decos = [width.PathDecomposition([everything]),
                 width.TreeDecomposition([everything], [None]),
                 width._decomposition_from_order(
                     width._neighbourhood_unions(f.adjacency()), order)]
        for n, m in ((2, 2), (2, 3), (3, 2)):
            for deco in decos:
                assert width.validate_decomposition(f, deco)[0]
                _check_bag_table_is_shared(f, deco, n, m)


def test_lincomb_orbit_bound():
    # The combination circuit's orbit size stays within the largest term bound.
    p2, p3 = make_path(2), make_path(3)
    rep = compilers.compile_lincomb([(Fraction(1), p2), (Fraction(2), p3)], 3, 3, "td")
    d = max(width.treedepth_exact(p2)[0], width.treedepth_exact(p3)[0])
    assert rep.claimed_bounds["orbit_bound"] == (3 + 3) ** d
    analysis = symmetry.SymmetryAnalysis(rep.circuit, 3, 3)
    assert analysis.max_orbit() <= rep.claimed_bounds["orbit_bound"]


def test_compile_report_json():
    rep = compilers.compile_single(make_path(2), 2, 2, "td")
    data = rep.to_json()
    assert data["shape"] == FORMULA_MULTI
    assert "circuit" in data and "claimed_bounds" in data
