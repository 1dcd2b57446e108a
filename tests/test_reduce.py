"""Reduction toolkit: gadgets, CFI pairs, slices, doubles, extractions."""

import contextlib
import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from symcirc import oracle, reduce
from symcirc.errors import (
    CAPS,
    ColourMismatch,
    InvalidBranchSets,
    InvalidParameter,
    NotConnected,
    NotSquare,
    SizeCap,
    ZeroCoefficient,
)
from symcirc.oracle import ColouredGraph, WeightedHost
from symcirc.pattern import (
    BipartiteMultigraph,
    BranchSets,
    complete_binary_tree_structure,
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


# The three target families as hand-written loops over their definitions,
# independent of the `oracle._weighted_sum` kernel that `reduce` sums them by.


def _reference_sym(y, u, v):
    return y.get((u, v), y.get((v, u), Fraction(0)))


def _reference_clique_poly(n, y):
    total = Fraction(0)
    for subset in itertools.combinations(range(1, 2 * n + 1), n):
        term = Fraction(1)
        for i, j in itertools.combinations(subset, 2):
            term = term * y.get((i, j), Fraction(0))
            if term == 0:
                break
        total = total + term
    return total


def _reference_btree_vp_poly(m, x, y):
    """Maps are tuples over the tree's vertices 0..|V|-1, 1-based values.
    The X factors start from the int 1 and default to the int 0, so maps
    that miss X's support cost no Fraction arithmetic."""
    graph, _, right = complete_binary_tree_structure(m)
    edges = [(u, v) for (u, v, _) in graph.edge_list_global()]
    total = Fraction(0)
    for h in itertools.product(range(1, m ** 6 + 1), repeat=graph.num_vertices()):
        term = 1
        for v in right.values():
            term = term * x.get(h[v], 0)
            if term == 0:
                break
        if term == 0:
            continue
        for (u, v) in edges:
            term = term * _reference_sym(y, h[u], h[v])
            if term == 0:
                break
        total = total + term
    return total


def _reference_path_vbp_poly(m, x, y):
    total = Fraction(0)
    for h in itertools.product(range(1, m ** 2 + 1), repeat=m + 1):
        term = x.get(h[0], Fraction(0)) * x.get(h[-1], Fraction(0))
        if term == 0:
            continue
        for i in range(m):
            term = term * _reference_sym(y, h[i], h[i + 1])
            if term == 0:
                break
        total = total + term
    return total


def test_targets_match_their_reference_loops():
    rng = random.Random(29)

    def rational():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def upper(size, strict):
        return {(i, j): rational() for i in range(1, size + 1)
                for j in range(i + strict, size + 1)}

    for n in range(1, 5):
        y = upper(2 * n, 1)
        assert reduce.clique_poly(n, y) == _reference_clique_poly(n, y), n
    for m in (1, 2, 3):
        x, y = {i: rational() for i in range(1, m * m + 1)}, upper(m * m, 0)
        assert reduce.path_vbp_poly(m, x, y) == _reference_path_vbp_poly(m, x, y), m
    x, y = {1: rational()}, upper(1, 0)
    assert reduce.btree_vp_poly(1, x, y) == _reference_btree_vp_poly(1, x, y)
    # m = 2 at an X with two non-zero entries, so the reference loop stays short.
    x, y = {i: rational() for i in rng.sample(range(1, 65), 2)}, upper(64, 0)
    value = reduce.btree_vp_poly(2, x, y)
    assert value != 0 and value == _reference_btree_vp_poly(2, x, y)


@contextlib.contextmanager
def _caps(**caps):
    token = CAPS.set(MappingProxyType({**CAPS.get(), **caps}))
    try:
        yield
    finally:
        CAPS.reset(token)


def test_targets_check_the_map_cap_before_summing():
    with _caps(brute_force_maps=6560):
        with pytest.raises(SizeCap, match=r"6561 exceeds cap 6560 \(set by --caps brute_force_maps\)"):
            reduce.path_vbp_poly(3, {}, {})
    with _caps(brute_force_maps=69):
        with pytest.raises(SizeCap, match=r"70 exceeds cap 69 \(set by --caps brute_force_maps\)"):
            reduce.clique_poly(4, {})
    # 729^3 = 387,420,489 maps under the default cap: refused before any table.
    with pytest.raises(SizeCap, match=r"\(set by --caps brute_force_maps\)$"):
        reduce.btree_vp_poly(3, {}, {})


def test_subgraph_extraction_caps_its_colourings_at_construction():
    calls = []
    c4, p3 = make_cycle(4), make_path(3)
    # Of the C(4, 2) two-edge subgraphs of C4, the 4 paths have |V(P3)| = 3
    # non-isolated vertices, each with 3! bijections onto the colours: 24.
    with _caps(brute_force_maps=23):
        with pytest.raises(SizeCap, match=r"bijection count 24 exceeds cap 23 "
                                          r"\(set by --caps brute_force_maps\)$"):
            reduce.extract_colhom_via_subgraph(c4, p3, 1, calls.append)
    assert calls == []
    with _caps(brute_force_maps=24):
        reduce.extract_colhom_via_subgraph(c4, p3, 1, calls.append)
    assert calls == []


def test_subgraph_extraction_of_c4_from_the_grid_walks_only_its_squares(monkeypatch):
    """The walk over the 2^12 edge subsets of the 3x3 grid is charged 4096;
    of its 495 four-edge subgraphs only the 4 squares have 4 non-isolated
    vertices: 4 * 4! = 96 bijections, where all colourings would be 4^9 =
    262144 per subgraph."""
    calls, seen, normalizer = [], [], reduce._normalizer
    monkeypatch.setattr(reduce, "_normalizer", lambda s, candidates, ncls: normalizer(
        s, seen.append(list(candidates)) or seen[0], ncls))
    grid, c4 = make_grid(3, 3), make_cycle(4)
    with _caps(brute_force_maps=4095):
        with pytest.raises(SizeCap, match=r"^candidate count 4096 exceeds cap 4095 "):
            reduce.extract_colhom_via_subgraph(grid, c4, 1, calls.append)
    with _caps(brute_force_maps=4096):
        reduce.extract_colhom_via_subgraph(grid, c4, 1, calls.append)
    assert calls == [] and len(seen[0]) == 495
    with _caps(brute_force_maps=95):
        with pytest.raises(SizeCap, match=r"^bijection count 96 exceeds cap 95 "):
            normalizer(c4, seen[0], Fraction(2))
    with _caps(brute_force_maps=96):
        normalizer(c4, seen[0], Fraction(2))


def test_extraction_from_a_large_pattern_exits_before_walking_its_candidates():
    """The 4x4 grid has 2^24 edge subsets, and the minor pipeline expands
    each into 2^16 two-colourings: over the default cap either way."""
    calls = []
    grid, c4 = make_grid(4, 4), make_cycle(4)
    with pytest.raises(SizeCap, match=r"^candidate count 16777216 exceeds cap 10000000 "):
        reduce.extract_colhom_via_subgraph(grid, c4, 1, calls.append)
    with pytest.raises(SizeCap, match=r"^candidate count 1099511627776 exceeds cap 10000000 "):
        reduce.extract_colhom_via_minor(grid, c4, 1, calls.append)
    assert calls == []


def _reference_normalizer(s, candidates, ncls):
    """The normalizer by definition: every colouring of each candidate graph
    by V(S), kept if every colour class holds exactly one non-isolated vertex
    and the coloured edge multiset is exactly E(S), each edge once; each
    isolated vertex is weighted by ncls."""
    wanted = {}
    for (u, v, _) in s.edge_list_global():
        key = frozenset((u + 1, v + 1))
        wanted[key] = wanted.get(key, 0) + 1
    total = Fraction(0)
    for graph, weight in candidates:
        edge_list = graph.edge_list_global()
        iso_factor = ncls ** len(graph.isolated_vertices())
        for values in itertools.product(range(1, s.num_vertices() + 1), repeat=graph.num_vertices()):
            colour_of = dict(zip(graph.vertices(), values))
            class_members, coloured_edges = {}, {}
            for (u, v, mult) in edge_list:
                cu, cv = colour_of[u], colour_of[v]
                class_members.setdefault(cu, set()).add(u)
                class_members.setdefault(cv, set()).add(v)
                key = frozenset(((cu, 0), (cv, 1))) if cu == cv else frozenset((cu, cv))
                coloured_edges[key] = coloured_edges.get(key, 0) + mult
            if (coloured_edges == wanted
                    and set(class_members) == set(range(1, s.num_vertices() + 1))
                    and all(len(m) == 1 for m in class_members.values())):
                total += weight * iso_factor
    return total


def test_normalizer_matches_the_all_colourings_reference(monkeypatch):
    """Subgraph and minor candidates, with isolated vertices and with the
    accumulated multiplicities of quotients and of a doubled edge."""
    normalizer, checked = reduce._normalizer, []

    def both(s, candidates, ncls):
        candidates = list(candidates)
        want = _reference_normalizer(s, candidates, ncls)
        assert normalizer(s, candidates, ncls) == want
        checked.append(want)
        return want

    monkeypatch.setattr(reduce, "_normalizer", both)
    p2, p3 = make_path(2), make_path(3)
    doubled = BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1})
    for f, s in ((p3, p2), (doubled, p2), (make_cycle(4), p3)):
        for extract in (reduce.extract_colhom_via_subgraph, reduce.extract_colhom_via_minor):
            for n in (1, 2):
                extract(f, s, n, None)
    assert len(checked) == 12 and all(checked)


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
