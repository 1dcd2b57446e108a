"""Brute-force reference semantics: hom, colhom, emb, bases, expansions."""

import random
from fractions import Fraction

import pytest

from symcirc.errors import InvalidParameter, ParseError, SizeCap
from symcirc.oracle import (
    ColouredGraph,
    WeightedHost,
    colhom_eval,
    colhom_poly,
    coloured_hom_eval,
    emb_eval,
    find_hom_basis,
    hom_count,
    hom_indistinguishable,
    hom_poly,
    hom_to_emb_terms,
    identity_colouring,
)
from symcirc.pattern import (
    BipartiteMultigraph,
    make_complete_bipartite,
    make_cycle,
    make_path,
)


def test_hom_count_examples():
    p2 = make_path(2)
    assert hom_count(p2, WeightedHost.all_ones(2, 2)) == 4
    # An added isolated left vertex multiplies the count by n.
    padded = BipartiteMultigraph(2, 1, {(0, 0): 1})
    host = WeightedHost.random(3, 2, random.Random(0))
    assert hom_count(padded, host) == 3 * hom_count(p2, host)
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    assert hom_count(double, WeightedHost(2, 2, {(0, 0): Fraction(3)})) == 9


def test_hom_count_all_ones_counts_maps():
    for f in (make_path(3), make_cycle(4), BipartiteMultigraph(2, 2)):
        for n, m in ((1, 1), (2, 3)):
            expected = Fraction(n) ** f.a_count * Fraction(m) ** f.b_count
            assert hom_count(f, WeightedHost.all_ones(n, m)) == expected


def test_hom_multiplicative_over_disjoint_union():
    rng = random.Random(3)
    f1, f2 = make_path(3), make_cycle(4)
    host = WeightedHost.random(2, 2, rng)
    assert hom_count(f1.disjoint_union(f2), host) == \
        hom_count(f1, host) * hom_count(f2, host)


def test_hom_permutation_invariance():
    rng = random.Random(5)
    f = make_path(4)
    host = WeightedHost.random(3, 2, rng)
    # Permute rows and columns of the host.
    perm_rows = [2, 0, 1]
    perm_cols = [1, 0]
    permuted = WeightedHost(3, 2, {
        (perm_rows[i], perm_cols[j]): w for (i, j), w in host.weights.items()
    })
    assert hom_count(f, host) == hom_count(f, permuted)


def test_hom_poly_matches_hom_count():
    rng = random.Random(7)
    for f in (make_path(3), make_cycle(4), BipartiteMultigraph(1, 1, {(0, 0): 2})):
        p = hom_poly(f, 2, 2)
        for _ in range(5):
            host = WeightedHost.random(2, 2, rng)
            assert p.evaluate(host.to_assignment()) == hom_count(f, host)


def test_size_cap():
    big = BipartiteMultigraph(8, 8)
    with pytest.raises(SizeCap):
        hom_count(big, WeightedHost.all_ones(10, 10))


def test_colhom_examples():
    p2 = make_path(2)
    g = ColouredGraph({1: 1, 2: 1})
    g.set_weight((1, 0), (2, 0), Fraction(5, 7))
    assert colhom_eval(p2, g) == Fraction(5, 7)
    # Isolated pattern vertex rescales by the class size.
    rng = random.Random(1)
    padded = BipartiteMultigraph(2, 1, {(0, 0): 1})
    g2 = ColouredGraph({1: 3, 2: 3, 3: 3})
    for i in range(3):
        for j in range(3):
            g2.set_weight((1, i), (3, j), Fraction(rng.randint(-3, 3)))
    # colhom of padded with identity colouring = 3 * colhom of P_2 under the
    # restriction (colours 1 and 3 play the edge's roles).
    val_padded = colhom_eval(padded, g2)
    val_edge = coloured_hom_eval(p2, {0: 1, 1: 3}, g2)
    assert val_padded == 3 * val_edge


def test_colhom_integer_counts_on_01():
    c4 = make_cycle(4)
    idc = identity_colouring(c4)
    rng = random.Random(9)
    g = ColouredGraph({c: 2 for c in idc.values()})
    for (u, v, _) in c4.edge_list_global():
        for i in range(2):
            for j in range(2):
                if rng.random() < 0.6:
                    g.set_weight((idc[u], i), (idc[v], j), Fraction(1))
    value = colhom_eval(c4, g)
    assert value.denominator == 1 and value >= 0


def test_colhom_poly_variables():
    p2 = make_path(2)
    poly = colhom_poly(p2, 1)
    assert list(poly.variables) == ["x_1_1__2_1"]


def test_emb_examples():
    p2 = make_path(2)
    assert emb_eval(p2, WeightedHost.all_ones(3, 4)) == 12
    two_edges = BipartiteMultigraph(2, 2, {(0, 0): 1, (1, 1): 1})
    assert emb_eval(two_edges, WeightedHost.all_ones(2, 2)) == 4
    wide = make_complete_bipartite(3, 1)
    assert emb_eval(wide, WeightedHost.all_ones(2, 5)) == 0


def test_hom_to_emb_examples():
    p2 = make_path(2)
    terms = hom_to_emb_terms(p2)
    assert len(terms) == 1 and terms[0] == p2
    two_edges = BipartiteMultigraph(2, 2, {(0, 0): 1, (1, 1): 1})
    terms = hom_to_emb_terms(two_edges)
    assert len(terms) == 4
    host = WeightedHost.all_ones(2, 2)
    values = [emb_eval(t, host) for t in terms]
    assert hom_count(two_edges, host) == sum(values) == 16
    assert sorted(values) == [4, 4, 4, 4]


def test_hom_to_emb_at_weighted_hosts():
    # The multiplicity-accumulating quotient is the reading that holds at
    # weighted hosts, not only 0/1 ones.
    rng = random.Random(13)
    for f in (make_path(4), make_cycle(4), BipartiteMultigraph(2, 2, {(0, 0): 2, (1, 1): 1})):
        host = WeightedHost.random(3, 3, rng)
        total = sum(emb_eval(t, host) for t in hom_to_emb_terms(f))
        assert total == hom_count(f, host)


def test_find_hom_basis_examples():
    p2 = make_path(2)
    cert = find_hom_basis([p2], 1, seed=0)
    assert cert.matrix[0][0] != 0
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    cert = find_hom_basis([p2, double], 2, seed=0)
    from symcirc.exactnum import exact_det
    assert exact_det(cert.matrix) != 0
    with pytest.raises(InvalidParameter):
        find_hom_basis([p2, BipartiteMultigraph(1, 1, {(0, 0): 1})], 2, seed=0)
    with pytest.raises(InvalidParameter):
        find_hom_basis([BipartiteMultigraph(2, 1, {(0, 0): 1})], 2, seed=0)


def test_hom_indistinguishable_basics():
    rng = random.Random(4)
    g = WeightedHost.random(2, 2, rng)
    assert hom_indistinguishable(g, g, [make_path(2), make_path(3)])
    h = WeightedHost.all_ones(2, 2)
    g2 = WeightedHost(2, 2, {(0, 0): Fraction(1)})
    assert not hom_indistinguishable(g2, h, [make_path(2)])


def test_coloured_graph_json_round_trip():
    rng = random.Random(6)
    g = ColouredGraph.random({1: 2, 2: 2}, [(1, 2)], rng)
    again = ColouredGraph.from_json(g.to_json())
    assert again.sizes == g.sizes
    assert again.weights == g.weights


@pytest.mark.parametrize("size", [1.5, True, Fraction(1), -1])
def test_host_sizes_must_be_ints(size):
    """Floats, bools and Fractions are not sizes, even when integral."""
    with pytest.raises(InvalidParameter, match="int"):
        WeightedHost(size, 1, {})
    with pytest.raises(InvalidParameter, match="int"):
        WeightedHost(1, size, {})
    with pytest.raises(InvalidParameter, match="int"):
        ColouredGraph({1: size, 2: 1})


@pytest.mark.parametrize("data", [0, None, "host", [1, 1], 1.5])
def test_from_json_rejects_non_objects(data):
    for cls in (WeightedHost, ColouredGraph, BipartiteMultigraph):
        with pytest.raises(ParseError):
            cls.from_json(data)
