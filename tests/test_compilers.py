"""Compilers against the brute-force oracle and their shape/symmetry contracts."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from symcirc import compilers, oracle, symmetry, width
from symcirc.circuit import CircuitBuilder, FORMULA_MULTI, GENERAL, SKEW
from symcirc.errors import InvalidDecomposition, InvalidEliminationTree, InvalidParameter
from symcirc.exactnum import SparsePolynomial, add_terms
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
        p2_poly, c4_poly = oracle.hom_poly(p2, 2, 2), oracle.hom_poly(c4, 2, 2)
        terms = add_terms(add_terms({}, p2_poly.terms, Fraction(1, 2)), c4_poly.terms, -3)
        hp = SparsePolynomial(p2_poly.variables, terms)  # both over all four variables
        assert rep.circuit.expand_symbolic() == hp


def test_colourful_examples():
    p2 = make_path(2)
    idc = oracle.identity_colouring(p2)
    rep = compilers.compile_colourful(p2, idc, 1, "td")
    assert rep.circuit.expand_symbolic() == SparsePolynomial(["x_1_1__2_1"], {(1,): 1})
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


def _reference_bag_tables(f, deco, ranges, varmap):
    """The bag-table program written directly: tables keyed by tuples of
    (vertex, image) pairs, and one builder call per edge variable, forget
    gate and product of every labelling.  The compiler must build the same
    circuit, gate for gate."""
    builder = CircuitBuilder(share=True)
    const1 = builder.const(1)
    children = deco.children()
    assignment = {i: [] for i in range(len(deco.bags))}
    for (a_g, b_g, mult) in f.edge_list_global():
        idx = next(k for k, bag in enumerate(deco.bags) if a_g in bag and b_g in bag)
        assignment[idx].append((a_g, b_g, mult))

    def table_for(t):
        bag = deco.bags[t]
        child_groups = []
        for ch in sorted(children[t]):
            groups = {}
            for phi, gid in table_for(ch).items():
                groups.setdefault(tuple((v, img) for v, img in phi if v in bag), []).append(gid)
            child_groups.append((deco.bags[ch], groups))
        table = {}
        vs = sorted(bag)
        for images in itertools.product(*[range(1, ranges(v) + 1) for v in vs]):
            phi = tuple(zip(vs, images))
            image = dict(phi)
            factors = {}
            for (a_g, b_g, mult) in assignment[t]:
                gid = builder.var(varmap(a_g, image[a_g], b_g, image[b_g]))
                factors[gid] = factors.get(gid, 0) + mult
            parts = sorted(factors.items())
            for child_bag, groups in child_groups:
                key = tuple((v, img) for v, img in phi if v in child_bag)
                parts.append((builder.plus([(g, 1) for g in groups[key]]), 1))
            if not parts:
                table[phi] = const1
            elif len(parts) == 1 and parts[0][1] == 1:
                table[phi] = parts[0][0]
            else:
                table[phi] = builder.times(parts)
        return table

    root_table = table_for(deco.root)
    return builder.finish(builder.plus([(gid, 1) for _, gid in sorted(root_table.items())]))


def _assert_bag_tables_match_reference(f, cert, ranges, varmap):
    tree = cert.as_tree() if isinstance(cert, width.PathDecomposition) else cert
    got = compilers._general_from_tree(f, tree, ranges, varmap).serialize()
    assert got == _reference_bag_tables(f, tree, ranges, varmap).serialize(), f.to_json()


def _check_bag_table_is_shared(f, deco, n, m):
    """The bag-table compile is rigid, has its shape, repeats no internal gate
    (label and children), is returned by `rigidify` as it is, and is
    byte-identical to the reference construction."""
    report = compilers.compile_certificate(f, deco, n, m)
    c, where = report.circuit, (f.to_json(), n, m)
    _assert_bag_tables_match_reference(f, deco, compilers._matrix_ranges(f, n, m),
                                       compilers._matrix_varmap)
    assert symmetry.is_rigid(c), where
    assert c.validate(report.shape)[0], where
    keys = [(c.labels[g], tuple(sorted(c.children[g].items())))
            for g in range(c.num_gates()) if not c.is_input(g)]
    assert len(set(keys)) == len(keys), where
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


def test_colourful_bag_tables_match_the_reference():
    rng = random.Random(31)
    for f in enumerate_bipartite_multigraphs(5, 6, max_mult=2)[::9]:
        colours = list(f.vertices())
        rng.shuffle(colours)
        for colouring in ({v: v for v in f.vertices()}, dict(zip(f.vertices(), colours))):
            for shape, n in itertools.product(("pw", "tw"), (1, 2, 3)):
                report = compilers.compile_colourful(f, colouring, n, shape)
                cert = compilers._exact_certificate(f, shape)[1]
                tree = cert.as_tree() if shape == "pw" else cert
                want = _reference_bag_tables(f, tree, lambda v: n, compilers._colour_varmap(colouring))
                assert report.circuit.serialize() == want.serialize(), (f.to_json(), colouring)


def test_bag_tables_call_plus_once_per_forget_gate_and_once_for_the_output(monkeypatch):
    """Each (child, projection of a parent labelling onto the shared bag
    vertices) gets one `plus` call, whatever the number of parent labellings
    that need it."""
    calls = []
    plus = CircuitBuilder.plus

    def counted(self, children):
        calls.append(children)
        return plus(self, children)

    monkeypatch.setattr(CircuitBuilder, "plus", counted)
    rng = random.Random(5)
    cases = [(make_cycle(4), width.treewidth_exact(make_cycle(4))[1], 4, 3),
             (make_path(5), width.pathwidth_exact(make_path(5))[1].as_tree(), 3, 2),
             (make_complete_bipartite(2, 3), width.TreeDecomposition([frozenset(range(5))], [None]), 2, 2)]
    for f in (make_grid(2, 3), make_complete_binary_tree(2)):
        order = list(f.vertices())
        rng.shuffle(order)
        cases.append((f, width._decomposition_from_order(width._neighbourhood_unions(f.adjacency()),
                                                          order), 2, 3))
    for f, deco, n, m in cases:
        ranges = compilers._matrix_ranges(f, n, m)
        forgets = sum(math.prod(ranges(v) for v in deco.bags[t] & deco.bags[p])
                      for t, p in enumerate(deco.parent) if p is not None)
        calls.clear()
        compilers._general_from_tree(f, deco, ranges, compilers._matrix_varmap)
        assert len(calls) == forgets + 1, f.to_json()


def test_lincomb_weights_must_be_exact():
    assert compilers.compile_lincomb([(Fraction(6, 3), make_path(2))], 1, 1, "td") \
        .circuit.evaluate({"x_1_1": 1}) == 2
    for bad in (0.1, "1/3", True):
        with pytest.raises(InvalidParameter, match="not an int or a Fraction"):
            compilers.compile_lincomb([(bad, make_path(2))], 1, 1, "td")


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
