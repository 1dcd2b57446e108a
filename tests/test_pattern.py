"""Patterns, generators, isomorphism, quotients, minors."""

import itertools
import random
from fractions import Fraction

import pytest

from symcirc.errors import InvalidParameter, SizeCap
from symcirc.pattern import (
    BipartiteMultigraph,
    are_isomorphic,
    contract,
    enumerate_bipartite_multigraphs,
    find_minor,
    make_complete_binary_tree,
    make_complete_bipartite,
    make_cycle,
    make_grid,
    make_path,
    quotient,
)


def test_make_path():
    p1 = make_path(1)
    assert (p1.a_count, p1.b_count, p1.num_edge_slots()) == (1, 0, 0)
    p2 = make_path(2)
    assert (p2.a_count, p2.b_count, p2.num_edge_slots()) == (1, 1, 1)
    p5 = make_path(5)
    assert (p5.a_count, p5.b_count, p5.num_edge_slots()) == (3, 2, 4)
    with pytest.raises(InvalidParameter):
        make_path(0)


def test_make_grid():
    g = make_grid(1, 1)
    assert g.num_vertices() == 1 and not g.edges
    g = make_grid(2, 2)
    assert g.num_vertices() == 4 and g.num_edge_slots() == 4
    g = make_grid(3, 3)
    assert g.num_vertices() == 9 and g.num_edge_slots() == 12
    with pytest.raises(InvalidParameter):
        make_grid(0, 3)


def test_make_complete_binary_tree():
    assert make_complete_binary_tree(1).num_vertices() == 1
    t = make_complete_binary_tree(2)
    assert t.num_vertices() == 3 and t.num_edge_slots() == 2
    assert make_complete_binary_tree(7).num_vertices() == 7


def test_norm_counts_multiplicities():
    g = BipartiteMultigraph(1, 1, {(0, 0): 2})
    assert g.norm() == 4


def test_isomorphism_examples():
    p3 = make_path(3)
    relabelled = BipartiteMultigraph(2, 1, {(1, 0): 1, (0, 0): 1})
    assert are_isomorphic(p3, relabelled)
    single = BipartiteMultigraph(1, 1, {(0, 0): 1})
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    assert not are_isomorphic(single, double)
    assert not are_isomorphic(make_path(4), make_complete_bipartite(1, 3))


def test_isomorphism_is_equivalence_and_permutation_invariant():
    rng = random.Random(1)
    graphs = enumerate_bipartite_multigraphs(4, 4, max_mult=2)[:40]
    for g in graphs:
        assert are_isomorphic(g, g)
        # Permute both sides independently at random.
        pa = list(range(g.a_count))
        pb = list(range(g.b_count))
        rng.shuffle(pa)
        rng.shuffle(pb)
        edges = {(pa[i], pb[j]): m for (i, j), m in g.edges.items()}
        h = BipartiteMultigraph(g.a_count, g.b_count, edges)
        assert are_isomorphic(g, h)
    for g in graphs[:12]:
        for h in graphs[:12]:
            assert are_isomorphic(g, h) == are_isomorphic(h, g)


def test_canonical_key_matches_two_side_reference():
    # Reference: g and h are isomorphic iff some pair of side permutations
    # maps the edges of g onto those of h, so the graphs with g's key must be
    # exactly g's orbit.
    for a, b, max_mult in ((3, 3, 1), (2, 3, 2)):
        cells = list(itertools.product(range(a), range(b)))
        graphs = [BipartiteMultigraph(a, b, {c: m for c, m in zip(cells, mults) if m})
                  for mults in itertools.product(range(max_mult + 1), repeat=len(cells))]
        by_key = {}
        for g in graphs:
            by_key.setdefault(g.canonical_key(), set()).add(frozenset(g.edges.items()))
        for g in graphs:
            orbit = {frozenset(((pa[i], pb[j]), m) for (i, j), m in g.edges.items())
                     for pa in itertools.permutations(range(a))
                     for pb in itertools.permutations(range(b))}
            assert by_key[g.canonical_key()] == orbit


def _definitional_census(max_vertices, max_slots, max_mult):
    """Every labelled multiplicity vector in lexicographic order, the first of each class kept."""
    seen, out = set(), []
    for a in range(max_vertices + 1):
        for b in range(max_vertices + 1 - a):
            cells = list(itertools.product(range(a), range(b)))
            for mults in itertools.product(range(max_mult + 1), repeat=len(cells)):
                g = BipartiteMultigraph(a, b, {c: m for c, m in zip(cells, mults) if m})
                if a + b and sum(mults) <= max_slots and g.canonical_key() not in seen:
                    seen.add(g.canonical_key())
                    out.append(g)
    return out


def test_census_matches_the_definitional_enumeration():
    # (5, 4, 2) and (5, 6, 3) have graphs over the slot cap; (6, 9, 1) has none.
    for caps in ((5, 6, 3), (6, 9, 1), (5, 4, 2)):
        got = [(g.a_count, g.b_count, list(g.edges.items()))
               for g in enumerate_bipartite_multigraphs(*caps)]
        want = [(g.a_count, g.b_count, list(g.edges.items())) for g in _definitional_census(*caps)]
        assert got == want, caps


def test_isomorphism_caps_side_size_at_ten():
    wide = BipartiteMultigraph(1, 11)
    with pytest.raises(SizeCap, match="^canonical form capped at side size 10$"):
        wide.canonical_key()
    with pytest.raises(SizeCap, match="^canonical form capped at side size 10$"):
        BipartiteMultigraph(11, 1).canonical_key()
    with pytest.raises(SizeCap, match="^isomorphism test capped at side size 10$"):
        are_isomorphic(wide, make_path(2))
    with pytest.raises(SizeCap, match="^isomorphism test capped at side size 10$"):
        are_isomorphic(make_path(2), BipartiteMultigraph(11, 0))
    fan = BipartiteMultigraph(1, 10, {(0, j): j + 1 for j in range(10)})
    assert are_isomorphic(fan, fan)


def test_quotient_examples():
    edge = make_path(2)
    collapsed = quotient(edge, {0: "A", 1: "A"})
    assert collapsed.num_vertices() == 1 and not collapsed.edges
    unchanged = quotient(edge, {0: "A", 1: "B"})
    assert are_isomorphic(unchanged, edge)
    # P_3 with both endpoints A-coloured: contract one edge, keep the other.
    p3 = make_path(3)
    q = quotient(p3, {0: "A", 1: "B", 2: "A"})
    assert q.num_vertices() == 2 and q.num_edge_slots() == 1


def test_quotient_respects_colouring_as_bipartition():
    rng = random.Random(7)
    for g in enumerate_bipartite_multigraphs(5, 6, max_mult=2)[:50]:
        s = {v: rng.choice("AB") for v in g.vertices()}
        q = quotient(g, s)
        # Every surviving edge has one endpoint per side by construction;
        # the graph type enforces it, so just sanity-check slot conservation.
        assert q.num_edge_slots() <= g.num_edge_slots()


def test_contract_numbers_classes_by_least_id():
    # K_{2,2}: A = {0, 1}, B = {2, 3}.  Merging 1 with 0 and 3 with 2 stacks
    # all four edges on one pair.
    k22 = make_complete_bipartite(2, 2)
    merged = contract(k22, [(1, 0), (3, 2)])
    assert (merged.a_count, merged.b_count, merged.edges) == (1, 1, {(0, 0): 4})
    # Moving vertex 0 to side B drops its edges; the classes of each side
    # are numbered in order of their least global id.
    moved = contract(k22, [], ["B", "A", "B", "B"])
    assert (moved.a_count, moved.b_count, moved.edges) == (1, 3, {(0, 1): 1, (0, 2): 1})
    with pytest.raises(InvalidParameter):
        contract(k22, [(0, 2)])


def test_find_minor_examples():
    p2, p3, p4 = make_path(2), make_path(3), make_path(4)
    assert find_minor(p2, p4) is not None
    assert find_minor(make_cycle(4), p4) is None
    witness = find_minor(p3, make_grid(2, 2))
    assert witness is not None
    witness.validate(p3, make_grid(2, 2))


def test_find_minor_rejects_multigraph_pattern():
    double = BipartiteMultigraph(1, 1, {(0, 0): 2})
    with pytest.raises(InvalidParameter):
        find_minor(double, make_path(3))


def test_minor_witness_validates_exhaustively():
    cases = [
        (make_path(3), make_cycle(4)),
        (make_cycle(4), make_grid(2, 3)),
        (make_complete_bipartite(1, 3), make_grid(2, 3)),
    ]
    for s, f in cases:
        witness = find_minor(s, f)
        assert witness is not None
        assert witness.validate(s, f)


def test_edge_multiplicities_must_be_ints_of_at_least_one():
    assert BipartiteMultigraph(1, 1, {(0, 0): 2}).edges == {(0, 0): 2}
    for bad in (1.5, 1.0, True, Fraction(2), "2", 0, -1):
        with pytest.raises(InvalidParameter, match="edge multiplicities must be ints >= 1"):
            BipartiteMultigraph(1, 1, {(0, 0): bad})


def test_vertex_counts_must_be_ints_of_at_least_zero():
    assert BipartiteMultigraph(0, 2).num_vertices() == 2
    for bad in (1.5, 1.0, True, Fraction(1), "1", -1):
        for counts in ((bad, 1), (1, bad)):
            with pytest.raises(InvalidParameter, match="vertex counts must be ints >= 0"):
                BipartiteMultigraph(*counts, {(0, 0): 1})


def test_graph_json_round_trip():
    for g in enumerate_bipartite_multigraphs(4, 5, max_mult=2)[:30]:
        assert BipartiteMultigraph.from_json(g.to_json()) == g

