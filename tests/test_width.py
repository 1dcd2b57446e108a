"""Exact width solvers, certificates, and validation."""

import itertools
import math
import random

import pytest

from symcirc import width
from symcirc.errors import SizeCap
from symcirc.pattern import (
    BipartiteMultigraph,
    enumerate_bipartite_multigraphs,
    make_complete_binary_tree,
    make_complete_bipartite,
    make_cycle,
    make_grid,
    make_path,
)
from symcirc.width import (
    EliminationForest,
    PathDecomposition,
    TreeDecomposition,
    pathwidth_exact,
    treedepth_exact,
    treewidth_exact,
    validate_decomposition,
)


def test_treewidth_examples():
    value, cert = treewidth_exact(make_path(5))
    assert value == 1
    assert validate_decomposition(make_path(5), cert)[0]
    value, cert = treewidth_exact(make_complete_bipartite(2, 2))
    assert value == 2
    assert validate_decomposition(make_complete_bipartite(2, 2), cert)[0]
    value, _ = treewidth_exact(BipartiteMultigraph(1, 0))
    assert value == 0


def test_pathwidth_examples():
    for n in (2, 3, 5, 7):
        value, cert = pathwidth_exact(make_path(n))
        assert value == 1
        assert validate_decomposition(make_path(n), cert)[0]
    # Complete binary tree with 4 leaves: tw <= pw <= td - 1.
    t = make_complete_binary_tree(4)
    tw, _ = treewidth_exact(t)
    pw, cert = pathwidth_exact(t)
    td, _ = treedepth_exact(t)
    assert tw <= pw <= td - 1
    assert validate_decomposition(t, cert)[0]
    assert pathwidth_exact(make_path(2))[0] == 1


def test_treedepth_examples():
    assert treedepth_exact(make_path(1))[0] == 1
    assert treedepth_exact(make_path(2))[0] == 2
    value, cert = treedepth_exact(make_path(3))
    assert value == 2
    assert validate_decomposition(make_path(3), cert)[0]
    # Disconnected graphs use a forest: two isolated vertices have depth 1.
    assert treedepth_exact(BipartiteMultigraph(2, 0))[0] == 1


def test_certificates_match_values():
    graphs = [make_path(6), make_cycle(6), make_complete_bipartite(2, 3),
              make_grid(2, 3), make_complete_binary_tree(7)]
    for g in graphs:
        tw, tcert = treewidth_exact(g)
        ok, why = validate_decomposition(g, tcert)
        assert ok, why
        assert tcert.width() == tw
        pw, pcert = pathwidth_exact(g)
        ok, why = validate_decomposition(g, pcert)
        assert ok, why
        assert pcert.width() == pw
        td, ecert = treedepth_exact(g)
        ok, why = validate_decomposition(g, ecert)
        assert ok, why
        assert ecert.height() == td


def test_validate_rejects_bad_decompositions():
    p3 = make_path(3)
    # Missing edge coverage: bags never contain an edge's endpoints jointly.
    bad = PathDecomposition([frozenset({0}), frozenset({2}), frozenset({1})])
    ok, why = validate_decomposition(p3, bad)
    assert not ok and "edge" in why
    # Disconnected occurrence set.
    bad2 = PathDecomposition([frozenset({0, 2}), frozenset({1}), frozenset({0, 2, 1})])
    ok, why = validate_decomposition(p3, bad2)
    assert not ok
    # Elimination forest with incomparable adjacent vertices.
    bad3 = EliminationForest({0: None, 2: None, 1: 0})
    ok, why = validate_decomposition(p3, bad3)
    assert not ok and "incomparable" in why


def test_width_invariants_small_graphs():
    from symcirc.pattern import enumerate_bipartite_multigraphs

    for g in enumerate_bipartite_multigraphs(6, 6, max_mult=1)[:120]:
        tw, _ = treewidth_exact(g)
        pw, _ = pathwidth_exact(g)
        td, _ = treedepth_exact(g)
        assert tw <= pw <= td - 1
        n = g.num_vertices()
        if n >= 2:
            assert td <= (tw + 1) * math.log2(n) + 1e-9


def test_width_ignores_multiplicities():
    simple = make_path(3)
    doubled = BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1})
    assert treewidth_exact(simple)[0] == treewidth_exact(doubled)[0]
    assert pathwidth_exact(simple)[0] == pathwidth_exact(doubled)[0]
    assert treedepth_exact(simple)[0] == treedepth_exact(doubled)[0]


def test_size_cap():
    big = BipartiteMultigraph(8, 8)
    with pytest.raises(SizeCap):
        treewidth_exact(big)


def test_certificates_validate_on_disconnected_graphs():
    from symcirc.pattern import enumerate_bipartite_multigraphs

    graphs = [g for g in enumerate_bipartite_multigraphs(5, 4, max_mult=2)
              if not g.is_connected()][:60]
    assert graphs
    for g in graphs:
        for value, cert in (treewidth_exact(g), pathwidth_exact(g), treedepth_exact(g)):
            ok, why = validate_decomposition(g, cert)
            assert ok, (g, why)


def test_decomposition_json_round_trip():
    g = make_grid(2, 3)
    tw, tcert = treewidth_exact(g)
    again = TreeDecomposition.from_json(tcert.to_json())
    assert validate_decomposition(g, again)[0] and again.width() == tw
    pw, pcert = pathwidth_exact(g)
    againp = PathDecomposition.from_json(pcert.to_json())
    assert validate_decomposition(g, againp)[0] and againp.width() == pw
    td, ecert = treedepth_exact(g)
    againe = EliminationForest.from_json(ecert.to_json())
    assert validate_decomposition(g, againe)[0] and againe.height() == td


def test_validators_report_the_first_violation():
    p3 = make_path(3)  # the path 0 - 2 - 1 over global ids
    b02, b12, b2 = frozenset({0, 2}), frozenset({1, 2}), frozenset({2})
    chain = "parent pointers from bag {} leave the tree or cycle".format
    cases = [
        (TreeDecomposition([b02, b12, b2], [1, 0, None]), chain(0)),
        (TreeDecomposition([b2, b02, b12], [None, 2, 1]), chain(1)),
        (TreeDecomposition([b02, b12, b2, b2], [2, None, 3, 2]), chain(0)),
        (TreeDecomposition([b02, b12], [7, None]), chain(0)),
        (PathDecomposition([b02, b2]), "bags cover [0, 2] instead of V(F)"),
        (PathDecomposition([frozenset({0}), b2, frozenset({1})]), "edge (0,2) not inside any bag"),
        (PathDecomposition([b02, frozenset({1}), b02 | b12]),
         "occurrence set of vertex 0 is disconnected"),
        (TreeDecomposition([b02, b12, b02], [None, 0, 1]),
         "occurrence set of vertex 0 is disconnected"),
        (EliminationForest({0: None, 1: None}), "elimination forest must cover exactly V(F)"),
        (EliminationForest({0: 7, 1: None, 2: None}), "vertex 0 has parent 7 outside V(F)"),
        (EliminationForest({0: None, 1: 2, 2: 1}), "parent pointers cycle at vertex 1"),
        (EliminationForest({2: 0, 0: 1, 1: 0}), "parent pointers cycle at vertex 2"),
        (EliminationForest({0: None, 2: None, 1: 0}), "edge (0,2) joins incomparable vertices"),
        (EliminationForest({1: None, 0: 1, 2: 1}), "edge (0,2) joins incomparable vertices"),
    ]
    for deco, why in cases:
        assert validate_decomposition(p3, deco) == (False, why)
    assert validate_decomposition(p3, EliminationForest({2: None, 0: 2, 1: 0})) == (True, "")


class _CountingList(list):
    """A parent list that counts its element reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class _CountingDict(dict):
    """A parent map that counts its element reads."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_validators_read_each_parent_a_bounded_number_of_times():
    # A walk from every node to the root reads a path's pointers n^2/2 times.
    p2, n = make_path(2), 5000
    parent = _CountingList([i + 1 for i in range(n - 1)] + [None])
    assert validate_decomposition(p2, TreeDecomposition([frozenset({0, 1})] * n, parent))[0]
    assert parent.reads <= 5 * n
    # A chain forest on the path: vertex k of the path is the parent of vertex k-1.
    path = make_path(3000)
    ids = [k // 2 if k % 2 == 0 else path.a_count + k // 2 for k in range(3000)]
    forest = EliminationForest(_CountingDict(zip(ids, ids[1:] + [None])))
    assert validate_decomposition(path, forest) == (True, "")
    assert forest.parent.reads <= 2 * len(ids)


def _reference_tw_step(adj, through, v):
    """Vertices outside through+v reachable from v through `through`, by set search."""
    seen, stack, out = {v}, [v], set()
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                (stack.append if w in through else out.add)(w)
    return len(out)


def _reference_pw_step(adj, prefix, n):
    """Vertices of the prefix with a neighbour outside it; 0 for all n."""
    if len(prefix) == n:
        return 0
    return sum(1 for u in prefix if adj[u] - prefix)


def _reference_dp(n, step):
    """(width, order) by the DP's recurrence over frozensets: cost[T] the
    least max(cost[T - v], step(T - v, v)) over v in T, taken in decreasing
    order with the first cheapest kept, and the order read back from T = V."""
    cost, choice = {frozenset(): 0}, {}
    for size in range(1, n + 1):
        for t in map(frozenset, itertools.combinations(range(n), size)):
            values = [(max(cost[t - {v}], step(t - {v}, v)), v) for v in sorted(t, reverse=True)]
            cost[t], choice[t] = min(values, key=lambda value_v: value_v[0])
    order, t = [], frozenset(range(n))
    while t:
        order.append(choice[t])
        t -= {choice[t]}
    return cost[frozenset(range(n))], order[::-1]


def _relabelled(g, rng):
    """g with its A side and its B side each permuted at random."""
    pa, pb = rng.sample(range(g.a_count), g.a_count), rng.sample(range(g.b_count), g.b_count)
    return BipartiteMultigraph(g.a_count, g.b_count,
                               {(pa[i], pb[j]): mult for (i, j), mult in g.edges.items()})


def test_dp_orders_match_a_set_based_reference_dp():
    rng = random.Random(31)
    graphs = list(enumerate_bipartite_multigraphs(6, 9))
    graphs += [_relabelled(g, rng) for g in enumerate_bipartite_multigraphs(7, 12, max_mult=1)
               if g.num_vertices() == 7]
    assert len(graphs) == 163 + 258
    for g in graphs:
        n = g.num_vertices()
        adj = [set(ws) for ws in g.adjacency()]
        nb = width._neighbourhood_unions(g.adjacency())
        assert width._subset_dp(nb, pathwidth=False) == _reference_dp(
            n, lambda through, v: _reference_tw_step(adj, through, v))
        assert width._subset_dp(nb, pathwidth=True) == _reference_dp(
            n, lambda through, v: _reference_pw_step(adj, through | {v}, n))


def _reference_treedepth(adj, vs):
    """td by its definition: 0 with no vertices, 1 + min over v of td(G - v)
    for a connected G, and the maximum over the components otherwise."""
    if not vs:
        return 0
    start = min(vs)
    comp, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()] & vs - comp:
            comp.add(w)
            stack.append(w)
    if comp != vs:
        return max(_reference_treedepth(adj, frozenset(comp)),
                   _reference_treedepth(adj, vs - comp))
    return 1 + min(_reference_treedepth(adj, vs - {v}) for v in vs)


def test_treedepth_matches_its_definitional_recursion():
    graphs = [BipartiteMultigraph(0, 0), BipartiteMultigraph(3, 2, {(0, 0): 1}),
              BipartiteMultigraph(2, 3, {(0, 0): 1, (1, 1): 1, (1, 2): 1})]
    graphs += enumerate_bipartite_multigraphs(6, 9)
    assert sum(any(not ws for ws in g.adjacency()) for g in graphs) > 100
    for g in graphs:
        adj = [set(ws) for ws in g.adjacency()]
        td, forest = treedepth_exact(g)
        assert td == _reference_treedepth(adj, frozenset(range(g.num_vertices()))), g.to_json()
        assert validate_decomposition(g, forest) == (True, "") and forest.height() == td
