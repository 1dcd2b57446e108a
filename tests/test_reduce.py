"""Reduction toolkit: gadgets, CFI pairs, slices, doubles, extractions."""

import random
from fractions import Fraction

import pytest

from symcirc import oracle, reduce
from symcirc.errors import (
    ColourMismatch,
    InvalidBranchSets,
    InvalidParameter,
    NotConnected,
    NotSquare,
    ZeroCoefficient,
)
from symcirc.oracle import ColouredGraph, WeightedHost
from symcirc.pattern import (
    BipartiteMultigraph,
    BranchSets,
    find_minor,
    make_cycle,
    make_grid,
    make_path,
    quotient,
)


def _edge_pairs(f):
    return [(u + 1, v + 1) for (u, v, _) in f.edge_list_global()]


def test_clique_grid_examples():
    assert oracle.colhom_eval(make_grid(1, 1), reduce.clique_grid_gadget(1, {})) == 2
    ones = {(i, j): Fraction(1) for i in range(1, 5) for j in range(i + 1, 5)}
    assert oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, ones)) == 6
    probe = dict(ones)
    probe[(1, 2)] = Fraction(0)
    assert oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, probe)) == 5


def test_clique_grid_random_targets():
    rng = random.Random(3)
    for _ in range(5):
        y = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 2))
             for i in range(1, 5) for j in range(i + 1, 5)}
        lhs = oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, y))
        assert lhs == reduce.clique_poly(2, y)


def test_btree_gadget():
    from symcirc.pattern import make_complete_binary_tree

    assert oracle.colhom_eval(make_path(1), reduce.btree_vp_gadget(1, {1: Fraction(2)}, {})) == 1
    # m = 2 with every weight one (including diagonal Y) counts all maps.
    x = {i: Fraction(1) for i in range(1, 65)}
    y = {(i, j): Fraction(1) for i in range(1, 65) for j in range(i, 65)}
    tree = reduce.btree_vp_gadget(2, x, y)
    assert oracle.colhom_eval(make_complete_binary_tree(2), tree) == 64 ** 3


def test_path_gadget_examples():
    x1 = {1: Fraction(3)}
    y1 = {(1, 1): Fraction(1)}
    lhs = oracle.colhom_eval(make_path(3), reduce.path_vbp_gadget(1, x1, y1))
    assert lhs == reduce.path_vbp_poly(1, x1, y1) == 9
    # m = 2 all-ones X with off-diagonal Y counts non-repeating walks.
    x2 = {i: Fraction(1) for i in range(1, 5)}
    y2 = {(i, j): Fraction(1) for i in range(1, 5) for j in range(i + 1, 5)}
    lhs = oracle.colhom_eval(make_path(4), reduce.path_vbp_gadget(2, x2, y2))
    assert lhs == reduce.path_vbp_poly(2, x2, y2) == 36
    # Zero X kills everything.
    assert oracle.colhom_eval(make_path(4), reduce.path_vbp_gadget(2, {}, y2)) == 0


def test_path_gadget_random():
    rng = random.Random(8)
    for _ in range(3):
        x = {i: Fraction(rng.randint(-3, 3)) for i in range(1, 5)}
        y = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(1, 5) for j in range(i, 5)}
        lhs = oracle.colhom_eval(make_path(4), reduce.path_vbp_gadget(2, x, y))
        assert lhs == reduce.path_vbp_poly(2, x, y)


def test_minor_gadget_identity_cases():
    rng = random.Random(5)
    p2, p3 = make_path(2), make_path(3)
    # Trivial case: S = F'.
    branch = find_minor(p2, p2)
    for _ in range(5):
        y = ColouredGraph.random({1: 2, 2: 2}, [(1, 2)], rng)
        gadget = reduce.minor_gadget(p2, p2, branch, 2, y)
        assert oracle.colhom_eval(p2, gadget) == oracle.colhom_eval(p2, y)
    # P_2 as a minor of P_3.
    branch = find_minor(p2, p3)
    for _ in range(5):
        y = ColouredGraph.random({1: 2, 2: 2}, [(1, 2)], rng)
        gadget = reduce.minor_gadget(p3, p2, branch, 2, y)
        assert oracle.colhom_eval(p3, gadget) == oracle.colhom_eval(p2, y)
    # The 4-cycle as a minor of the 2x3 grid.
    c4, g23 = make_cycle(4), make_grid(2, 3)
    branch = find_minor(c4, g23)
    for _ in range(3):
        y = ColouredGraph.random({v + 1: 2 for v in c4.vertices()}, _edge_pairs(c4), rng)
        gadget = reduce.minor_gadget(g23, c4, branch, 2, y)
        assert oracle.colhom_eval(g23, gadget) == oracle.colhom_eval(c4, y)


def test_minor_gadget_rejects_multigraph_host():
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    branch = find_minor(make_path(2), make_path(2))
    with pytest.raises(InvalidParameter):
        reduce.minor_gadget(double, make_path(2), branch, 1,
                            ColouredGraph({1: 1, 2: 1}))


@pytest.mark.parametrize("sets, b0, reason", [
    (({0},), {1, 2, 3}, "one branch set per S-vertex"),
    (((), {0, 2}), {1, 3}, "non-empty"),
    (({0, 2}, {1, 2}), {3}, "disjoint"),
    (({0, 2}, {1}), (), "partition V\\(F\\)"),
    (({0, 1}, {2, 3}), (), "connected subgraph"),
    (({0}, {3}), {1, 2}, "no F-edge between"),
])
def test_minor_gadget_rejects_bad_branch_sets(sets, b0, reason):
    # P4 is the path 0 - 2 - 1 - 3 in global ids; P2 is the edge 0 - 1.
    branch = BranchSets(tuple(frozenset(bs) for bs in sets), frozenset(b0))
    with pytest.raises(InvalidBranchSets, match=reason):
        reduce.minor_gadget(make_path(4), make_path(2), branch, 1, ColouredGraph({1: 1, 2: 1}))


def test_uncolour_expand():
    rng = random.Random(7)
    p2, p3 = make_path(2), make_path(3)
    for f in (p2, p3):
        colours = [v + 1 for v in f.vertices()]
        pairs = [(a, b) for a in colours for b in colours if a <= b]
        g = ColouredGraph.random({c: 1 for c in colours}, pairs, rng)
        reduce.uncolour_expand(f, colours, 1, g)
    # |C| = 1 collapses to the plain homomorphism count.
    g1 = ColouredGraph.random({1: 2}, [(1, 1)], rng)
    reduce.uncolour_expand(BipartiteMultigraph(1, 1, {(0, 0): 1}), [1], 2, g1)


def test_tensor_product_identities():
    rng = random.Random(9)
    p3 = make_path(3)
    sizes = {v + 1: 2 for v in p3.vertices()}
    pairs = _edge_pairs(p3)
    g = ColouredGraph.random(sizes, pairs, rng)
    h = ColouredGraph.random(sizes, pairs, rng)
    prod = reduce.tensor_product(g, h)
    assert oracle.colhom_eval(p3, prod) == oracle.colhom_eval(p3, g) * oracle.colhom_eval(p3, h)
    # One-vertex-per-class all-ones acts as the identity.
    one = ColouredGraph({c: 1 for c in sizes})
    for (a, b) in pairs:
        one.set_weight((a, 0), (b, 0), Fraction(1))
    assert oracle.colhom_eval(p3, reduce.tensor_product(g, one)) == oracle.colhom_eval(p3, g)
    # Single class pair with scalar weights multiplies.
    g2 = ColouredGraph({1: 1, 2: 1})
    g2.set_weight((1, 0), (2, 0), Fraction(2))
    h2 = ColouredGraph({1: 1, 2: 1})
    h2.set_weight((1, 0), (2, 0), Fraction(3))
    prod2 = reduce.tensor_product(g2, h2)
    assert prod2.get((1, 0), (2, 0)) == 6
    # Associativity up to class-index relabelling: compare colhom values.
    k = ColouredGraph.random(sizes, pairs, rng)
    left = reduce.tensor_product(reduce.tensor_product(g, h), k)
    right = reduce.tensor_product(g, reduce.tensor_product(h, k))
    assert oracle.colhom_eval(p3, left) == oracle.colhom_eval(p3, right)


def test_tensor_colour_mismatch():
    g = ColouredGraph({1: 1})
    h = ColouredGraph({2: 1})
    with pytest.raises(ColourMismatch):
        reduce.tensor_product(g, h)


def test_degree_slice():
    rng = random.Random(10)
    p3 = make_path(3)
    sub = BipartiteMultigraph(2, 1, {(0, 0): 1})
    colouring = {0: 1, 1: 2, 2: 3}

    def combined(g):
        return oracle.coloured_hom_eval(sub, colouring, g) + oracle.colhom_eval(p3, g)

    g = ColouredGraph.random({1: 2, 2: 2, 3: 2}, [(1, 3), (2, 3)], rng)
    assert reduce.degree_slice(combined, 1, 2, g) == oracle.coloured_hom_eval(sub, colouring, g)
    assert reduce.degree_slice(combined, 2, 2, g) == oracle.colhom_eval(p3, g)
    assert reduce.degree_slice(combined, 0, 2, g) == 0
    assert reduce.degree_slice(combined, 5, 2, g) == 0
    # A homogeneous combination is its own slice.
    homogeneous = lambda gg: oracle.colhom_eval(p3, gg)
    assert reduce.degree_slice(homogeneous, 2, 2, g) == homogeneous(g)


def test_degree_slice_host_variant():
    rng = random.Random(11)
    p2, p3 = make_path(2), make_path(3)

    def combined(host):
        return oracle.hom_count(p2, host) + oracle.hom_count(p3, host)

    g = WeightedHost.random(2, 2, rng)
    assert reduce.degree_slice(combined, 1, 2, g) == oracle.hom_count(p2, g)
    assert reduce.degree_slice(combined, 2, 2, g) == oracle.hom_count(p3, g)


def test_degree_slice_rejects_a_negative_degree():
    # hom_P2 + 5 at the 1 x 1 host of weight 3 has slices 5 and 3; k = -1
    # once read the last coefficient, as a list index.
    p2 = make_path(2)
    combined = lambda host: oracle.hom_count(p2, host) + 5
    g = WeightedHost(1, 1, {(0, 0): Fraction(3)})
    assert [reduce.degree_slice(combined, k, 1, g) for k in (0, 1)] == [5, 3]
    for k in (-1, -2):
        with pytest.raises(InvalidParameter, match=f"degree {k} of a slice"):
            reduce.degree_slice(combined, k, 1, g)


def test_clique_gadget_exhaustive_01():
    from itertools import product

    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    grid = make_grid(2, 2)
    for bits in product((0, 1), repeat=len(pairs)):
        y = {pair: Fraction(bit) for pair, bit in zip(pairs, bits)}
        assert oracle.colhom_eval(grid, reduce.clique_grid_gadget(2, y)) == \
            reduce.clique_poly(2, y)


def test_cfi_pair_examples():
    p2 = make_path(2)
    pair = reduce.cfi_pair(p2)
    idc = oracle.identity_colouring(p2)
    assert oracle.coloured_hom_eval(p2, idc, pair.even) == 1
    assert oracle.coloured_hom_eval(p2, idc, pair.odd) == 0
    p3 = make_path(3)
    pair3 = reduce.cfi_pair(p3)
    idc3 = oracle.identity_colouring(p3)
    assert oracle.coloured_hom_eval(p3, idc3, pair3.even) != \
        oracle.coloured_hom_eval(p3, idc3, pair3.odd)
    # Class sizes stay within 2^(degree-1).
    c4 = make_cycle(4)
    pair4 = reduce.cfi_pair(c4)
    assert all(size <= 2 for size in pair4.even.sizes.values())


def test_cfi_preconditions():
    with pytest.raises(NotConnected):
        reduce.cfi_pair(BipartiteMultigraph(2, 0))
    with pytest.raises(InvalidParameter):
        reduce.cfi_pair(BipartiteMultigraph(1, 1, {(0, 0): 2}))
    for one_vertex in (BipartiteMultigraph(1, 0), BipartiteMultigraph(0, 1)):
        with pytest.raises(InvalidParameter, match="at least one edge"):
            reduce.cfi_pair(one_vertex)


def test_bipartite_double_examples():
    p2 = make_path(2)
    x = Fraction(4, 3)
    lhs = oracle.hom_count(p2, reduce.bipartite_double(WeightedHost(1, 1, {(0, 0): x})))
    assert lhs == 2 + 2 * x
    edgeless = BipartiteMultigraph(2, 1)
    g = WeightedHost.random(2, 2, random.Random(1))
    assert oracle.hom_count(edgeless, reduce.bipartite_double(g)) == 4 ** 3
    assert reduce.check_quotient_identity(make_path(3), g)
    with pytest.raises(NotSquare):
        reduce.bipartite_double(WeightedHost(1, 2))


def test_extract_via_subgraph():
    rng = random.Random(14)
    p2, p3 = make_path(2), make_path(3)
    cases = [
        (p2, p2, 1),
        (p3, p2, 1),
        (BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1}), p2, 1),
        (p3, p2, 2),
    ]
    for f, s, n in cases:
        evaluator = reduce.extract_colhom_via_subgraph(f, s, n, reduce.brute_hom_oracle(f))
        for _ in range(5):
            g = ColouredGraph.random({v + 1: n for v in s.vertices()}, _edge_pairs(s), rng)
            assert evaluator(g) == oracle.colhom_eval(s, g), (f, s, n)


def test_extract_via_minor_degenerates_to_subgraph():
    rng = random.Random(15)
    p2, p3 = make_path(2), make_path(3)
    sub = reduce.extract_colhom_via_subgraph(p3, p2, 1, reduce.brute_hom_oracle(p3))
    minor = reduce.extract_colhom_via_minor(p3, p2, 1, reduce.brute_hom_oracle(p3))
    for _ in range(5):
        g = ColouredGraph.random({1: 1, 2: 1}, [(1, 2)], rng)
        want = oracle.colhom_eval(p2, g)
        assert sub(g) == want == minor(g)


def test_extract_via_minor_grid():
    rng = random.Random(16)
    c4, p3 = make_cycle(4), make_path(3)
    evaluator = reduce.extract_colhom_via_minor(c4, p3, 1, reduce.brute_hom_oracle(c4))
    for _ in range(3):
        g = ColouredGraph.random({v + 1: 1 for v in p3.vertices()}, _edge_pairs(p3), rng)
        assert evaluator(g) == oracle.colhom_eval(p3, g)


def test_extract_single_from_lincomb():
    rng = random.Random(17)
    p2, p3 = make_path(2), make_path(3)

    def lincomb(host):
        return oracle.hom_count(p2, host) + 2 * oracle.hom_count(p3, host)

    for ell, pattern in ((0, p2), (1, p3)):
        evaluator = reduce.extract_single_from_lincomb(
            lincomb, [p2, p3], [Fraction(1), Fraction(2)], ell, 2, 3, seed=5)
        for _ in range(5):
            g = WeightedHost.random(2, 2, rng)
            assert evaluator(g) == oracle.hom_count(pattern, g)
    # Single-pattern combinations recover the oracle itself.
    solo = reduce.extract_single_from_lincomb(
        lambda host: oracle.hom_count(p2, host), [p2], [Fraction(1)], 0, 2, 3, seed=5)
    g = WeightedHost.random(2, 2, rng)
    assert solo(g) == oracle.hom_count(p2, g)
    with pytest.raises(ZeroCoefficient):
        reduce.extract_single_from_lincomb(lincomb, [p2, p3],
                                           [Fraction(0), Fraction(2)], 0, 2, 3)


def test_host_tensor_multiplicative():
    rng = random.Random(18)
    f = make_path(3)
    g = WeightedHost.random(2, 2, rng)
    h = WeightedHost.random(3, 3, rng)
    assert oracle.hom_count(f, reduce.host_tensor(g, h)) == \
        oracle.hom_count(f, g) * oracle.hom_count(f, h)


def test_extraction_oracle_call_bound():
    # Constant-depth c-reduction contract: per evaluation the pipeline makes
    # 2 * (|E(F)| + 1) oracle calls (one per interpolation node and CFI side).
    rng = random.Random(20)
    p2, p3 = make_path(2), make_path(3)
    calls = [0]

    def counting_oracle(host):
        calls[0] += 1
        return oracle.hom_count(p3, host)

    evaluator = reduce.extract_colhom_via_subgraph(p3, p2, 1, counting_oracle)
    calls[0] = 0
    g = ColouredGraph.random({1: 1, 2: 1}, [(1, 2)], rng)
    evaluator(g)
    assert calls[0] == 2 * (p3.num_edge_slots() + 1)
