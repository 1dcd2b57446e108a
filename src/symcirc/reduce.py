"""Reduction toolkit between homomorphism polynomials.

Hardness gadgets (clique-from-grid, the VP binary-tree family, the VBP path
family), CFI graph pairs, tensor products and interpolation slicers, the
bipartite doubling and quotient expansion, and the end-to-end pipelines that
extract a colourful homomorphism polynomial from an uncoloured oracle and a
single homomorphism polynomial from a linear combination.

The gadgets' target families (`clique_poly`, `btree_vp_poly`,
`path_vbp_poly`) are each one sum from their definitions through the kernel
`oracle._weighted_sum`.  They, `uncolour_expand`, the extraction pipelines
(a brute-force handle's maps, then candidates and normalizer) check the
`brute_force_maps` cap before they enumerate.

Conventions: pattern colours are 1-based global vertex ids (matching
`oracle.identity_colouring`); gadgets are ColouredGraphs with rational
weights; oracle handles are plain callables taking a WeightedHost and
returning an exact value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ColourMismatch,
    IdentityFailed,
    InvalidBranchSets,
    InvalidParameter,
    NotConnected,
    NotSquare,
    SizeCap,
    check_cap,
)
from .exactnum import Rational, solve_linear
from .oracle import (
    ColouredGraph,
    WeightedHost,
    _check_cap,
    _weighted_sum,
    coloured_hom_eval,
    find_hom_basis,
    hom_count,
    identity_colouring,
)
from .pattern import (
    BipartiteMultigraph,
    BranchSets,
    SIDE_A,
    SIDE_B,
    complete_binary_tree_structure,
    grid_vertex_ids,
    make_path,
    path_vertex_ids,
    quotient,
)

CFI_DEGREE_CAP = 5  # largest base degree `cfi_pair` accepts (classes of 2^(deg-1))


@dataclass
class OracleHandle:
    """A deterministic exact evaluator standing in for oracle gates; `maps`,
    if given, maps a size to the maps one call enumerates on a size x size host."""

    fn: Callable[[WeightedHost], Rational]
    description: str = ""
    maps: Optional[Callable[[int], int]] = None

    def __call__(self, host: WeightedHost) -> Rational:
        return self.fn(host)


def brute_hom_oracle(f: BipartiteMultigraph) -> OracleHandle:
    return OracleHandle(lambda host: hom_count(f, host), f"brute hom for {f!r}",
                        lambda size: size ** f.num_vertices())


# -- clique-from-grid gadget -------------------------------------------------------------


def clique_poly(n: int, y: Mapping[Tuple[int, int], Rational]):
    """clique_n = sum over n-subsets A of [2n] of prod_{i<j in A} y_{i,j}.

    A subset is an increasing map of n positions into [2n], and each pair of
    positions i < j is an edge weighted by y."""
    _check_cap(comb(2 * n, n))
    edges = [(i, j, 1, lambda a, b: y.get((a + 1, b + 1), 0))
             for i, j in itertools.combinations(range(n), 2)]
    return _weighted_sum(edges, [2 * n] * n, itertools.combinations(range(2 * n), n))


def clique_grid_gadget(n: int, y: Mapping[Tuple[int, int], Rational]) -> ColouredGraph:
    """A grid-coloured graph G with colhom_{G_{nxn}}(G) = clique_n(y).

    Colour classes are the cells of the n-by-n grid (1-based coordinates in
    the vertex ids, colours = global grid-vertex ids).  A diagonal cell (i,i)
    holds the vertices (v,v) for v in [2n]; an off-diagonal cell (i,j) holds
    (u,v) with u != v.  A vertex (u,v) in cell (i,j) stands for "clique
    member i has value u, member j has value v".  Horizontal edges demand
    equal first coordinates and increasing second coordinates; on and above
    the diagonal they carry y_{u,v'} (the pair {value of row i, value of
    column j+1}), below the diagonal they are plain consistency edges of
    weight 1.  Vertical edges demand equal second coordinates and increasing
    first coordinates, weight 1.
    """
    if n < 1:
        raise InvalidParameter("clique gadget needs n >= 1")
    ids = grid_vertex_ids(n, n)
    colour = {cell: ids[cell] + 1 for cell in ids}

    values = range(1, 2 * n + 1)
    members = {(i, j): [(u, v) for u in values for v in values if (u == v) == (i == j)]
               for i in range(n) for j in range(n)}
    index = {cell: {p: k for k, p in enumerate(ps)} for cell, ps in members.items()}

    g = ColouredGraph({colour[cell]: len(members[cell]) for cell in members})

    def put(cell_a, pa, cell_b, pb, w):
        g.set_weight((colour[cell_a], index[cell_a][pa]),
                     (colour[cell_b], index[cell_b][pb]), w)

    for i in range(n):
        for j in range(n - 1):
            src, dst = (i, j), (i, j + 1)
            for (u, v) in members[src]:
                for (u2, v2) in members[dst]:
                    if u2 != u or not v < v2:
                        continue
                    if i <= j:
                        if u < v2:
                            put(src, (u, v), dst, (u2, v2), y.get((u, v2), Fraction(0)))
                    else:
                        put(src, (u, v), dst, (u2, v2), Fraction(1))
    for i in range(n - 1):
        for j in range(n):
            src, dst = (i, j), (i + 1, j)
            for (u, v) in members[src]:
                for (u2, v2) in members[dst]:
                    if v2 == v and u < u2:
                        put(src, (u, v), dst, (u2, v2), Fraction(1))
    return g


# -- binary-tree VP gadget ----------------------------------------------------------------


def _sym_lookup(y: Mapping, u: int, v: int):
    """y_{u,v} under either key order; a missing weight reads as the int 0."""
    return y.get((u, v), y.get((v, u), 0))


def _set_block(g: ColouredGraph, a: int, b: int, size: int,
               weight: Callable[[int, int], Rational]):
    """Join member u - 1 of class a to member v - 1 of class b with weight(u, v)
    for all u, v in [size], skipping zeros."""
    for u in range(1, size + 1):
        for v in range(1, size + 1):
            w = weight(u, v)
            if w != 0:
                g.set_weight((a, u - 1), (b, v - 1), w)


def _xy_weights(x: Mapping[int, Rational], y: Mapping):
    """The X vertex weight and symmetric Y edge weight, over 0-based indices."""
    return lambda a, _: x.get(a + 1, 0), lambda a, b: _sym_lookup(y, a + 1, b + 1)


def btree_vp_poly(m: int, x: Mapping[int, Rational], y: Mapping):
    """The VP-complete family: maps of the m-leaf perfect binary tree into
    [m^6], right children weighted by X, tree edges by Y."""
    graph, _, right = complete_binary_tree_structure(m)
    sizes = [m ** 6] * graph.num_vertices()
    _check_cap(prod(sizes))
    x_weight, y_weight = _xy_weights(x, y)
    edges = ([(v, v, 1, x_weight) for v in right.values()]
             + [(u, v, 1, y_weight) for (u, v, _) in graph.edge_list_global()])
    return _weighted_sum(edges, sizes)


def btree_vp_gadget(m: int, x: Mapping[int, Rational], y: Mapping) -> ColouredGraph:
    """B_m-coloured gadget whose colhom equals btree_vp_poly(m, x, y).

    Edges from a parent to its right child carry X_v * Y_{u,v}; to its left
    child Y_{u,v}; classes have m^6 members.
    """
    if m < 1:
        raise InvalidParameter("binary-tree gadget needs m >= 1")
    graph, left, right = complete_binary_tree_structure(m)
    size = m ** 6
    colour = identity_colouring(graph)
    g = ColouredGraph({colour[v]: size for v in graph.vertices()})
    for parent, child in sorted(left.items()):
        _set_block(g, colour[parent], colour[child], size, lambda u, v: _sym_lookup(y, u, v))
    for parent, child in sorted(right.items()):
        _set_block(g, colour[parent], colour[child], size,
                   lambda u, v: x.get(v, Fraction(0)) * _sym_lookup(y, u, v))
    return g


# -- path VBP gadget ---------------------------------------------------------------------


def path_vbp_poly(m: int, x: Mapping[int, Rational], y: Mapping):
    """The VBP-complete family: sum over h: [m+1] -> [m^2] of
    X_{h(1)} X_{h(m+1)} prod_i Y_{h(i) h(i+1)}."""
    sizes = [m ** 2] * (m + 1)
    _check_cap(prod(sizes))
    x_weight, y_weight = _xy_weights(x, y)
    edges = [(0, 0, 1, x_weight), (m, m, 1, x_weight)] + [(i, i + 1, 1, y_weight) for i in range(m)]
    return _weighted_sum(edges, sizes)


def path_vbp_gadget(m: int, x: Mapping[int, Rational], y: Mapping) -> ColouredGraph:
    """P_{m+2}-coloured gadget whose colhom equals path_vbp_poly(m, x, y).

    The first edge is diagonal with weight X_u (gluing positions 1 and 2),
    middle edges carry Y_{u,v}, and the last edge carries X_v * Y_{u,v}: that
    combined weight is what makes the edge count match the target family's m
    Y-factors with both endpoint X-factors on m+2 path vertices.
    """
    if m < 1:
        raise InvalidParameter("path gadget needs m >= 1")
    graph = make_path(m + 2)
    order = path_vertex_ids(m + 2)
    size = m ** 2
    colour = identity_colouring(graph)
    g = ColouredGraph({colour[v]: size for v in graph.vertices()})
    blocks = ([lambda u, v: x.get(u, Fraction(0)) if u == v else Fraction(0)]
              + [lambda u, v: _sym_lookup(y, u, v)] * (m - 1)
              + [lambda u, v: x.get(v, Fraction(0)) * _sym_lookup(y, u, v)])
    for pos, weight in enumerate(blocks):
        _set_block(g, colour[order[pos]], colour[order[pos + 1]], size, weight)
    return g


# -- minor projection gadget -------------------------------------------------------------


def minor_gadget(fprime: BipartiteMultigraph, s: BipartiteMultigraph,
                 branch: BranchSets, n: int, y: ColouredGraph) -> ColouredGraph:
    """F'-coloured gadget G' with colhom_{F'}(G') = colhom_{S,n}(y).

    Branch sets get n copies each; edges inside a copy and consistency edges
    between copies have weight 1, and for every S-edge one designated F'-edge
    between the two branch sets carries the y-weight of the corresponding
    colourful variable.  The designated edge is chosen per S-edge (the
    lexicographically smallest F'-edge between the sets), since no single
    vertex per branch set need be adjacent to witnesses of all incident
    S-edges.
    """
    if not fprime.is_simple():
        raise InvalidParameter("the minor host F' must be simple")
    branch.validate(s, fprime)
    for v in s.vertices():
        if y.sizes.get(v + 1) != n:
            raise InvalidParameter("y must be S-coloured with classes of size n")

    colour_f = identity_colouring(fprime)
    branch_of: Dict[int, Optional[int]] = {v: None for v in fprime.vertices()}
    for k, bs in enumerate(branch.sets):
        for w in bs:
            branch_of[w] = k

    sizes = {colour_f[v]: (1 if branch_of[v] is None else n) for v in fprime.vertices()}
    g = ColouredGraph(sizes)

    # Designated y-carrying F'-edge per S-edge.
    f_edges = [(u, v) for (u, v, _) in fprime.edge_list_global()]
    carriers = set()
    for (su, sv, _) in s.edge_list_global():
        options = [(u, v) for (u, v) in f_edges if {branch_of[u], branch_of[v]} == {su, sv}]
        if not options:
            raise InvalidBranchSets(f"no F'-edge between branch sets of S-edge ({su},{sv})")
        carriers.add(options[0])

    for (u, v) in f_edges:
        bu, bv = branch_of[u], branch_of[v]
        cu, cv = colour_f[u], colour_f[v]
        if bu is not None and bu == bv:
            # Inside one branch set: copies stay coherent.
            for a in range(n):
                g.set_weight((cu, a), (cv, a), Fraction(1))
            continue
        # Across branch sets or to B_0: the carrier takes y, all else weight 1.
        for a in range(sizes[cu]):
            for b in range(sizes[cv]):
                w = y.get((bu + 1, a), (bv + 1, b)) if (u, v) in carriers else Fraction(1)
                g.set_weight((cu, a), (cv, b), w)
    return g


# -- uncolouring, tensor products, slices ---------------------------------------------------


def uncolour_expand(f: BipartiteMultigraph, colours: Sequence[Hashable], n: int,
                    g: ColouredGraph):
    """Both sides of hom_{F,|C|n}(G flattened) = sum_c colhom_{F,c,n}(G);
    asserts the identity and returns the common value."""
    if sorted(colours, key=repr) != g.colours:
        raise ColourMismatch("colour list does not match the coloured host")
    if any(g.sizes[c] != n for c in colours):
        raise InvalidParameter("uncolour expects uniform class size n")
    check_cap("brute_force_maps", len(colours) ** f.num_vertices(), "colouring count")
    lhs = hom_count(f, g.flatten())
    rhs = Fraction(0)
    for values in itertools.product(sorted(colours, key=repr), repeat=f.num_vertices()):
        colouring = dict(zip(f.vertices(), values))
        rhs = rhs + coloured_hom_eval(f, colouring, g)
    if lhs != rhs:
        raise IdentityFailed(f"uncolour identity failed: {lhs} != {rhs}")
    return lhs


def tensor_product(g: ColouredGraph, h: ColouredGraph) -> ColouredGraph:
    """Colour-wise tensor product; colhom is multiplicative over it."""
    if g.colours != h.colours:
        raise ColourMismatch("tensor product needs equal colour sets")
    sizes = {c: g.sizes[c] * h.sizes[c] for c in g.colours}
    out = ColouredGraph(sizes)
    for ((c, i), (c2, i2)), w in g.weights.items():
        for j in range(h.sizes[c]):
            for j2 in range(h.sizes[c2]):
                w2 = h.get((c, j), (c2, j2))
                if w2 != 0:
                    out.weights[((c, i * h.sizes[c] + j), (c2, i2 * h.sizes[c2] + j2))] = w * w2
    return out


def host_tensor(g: WeightedHost, h: WeightedHost) -> WeightedHost:
    """Uncoloured tensor product: hom_F is multiplicative over it."""
    weights = {}
    for (i, i2), w in g.weights.items():
        for (j, j2), w2 in h.weights.items():
            weights[(i * h.n + j, i2 * h.m + j2)] = w * w2
    return WeightedHost(g.n * h.n, g.m * h.m, weights)


def degree_slice(p: Callable, k: int, max_edges: int, g) -> Rational:
    """The edge-degree-k slice of a hom or colhom combination, by interpolation.

    Evaluates p at t*G for t = 0..max_edges and solves the Vandermonde system
    exactly; p must be a linear combination of homs or colhoms with at most
    max_edges edges each.  G is any host with a `scale` method (a
    ColouredGraph or a WeightedHost).
    """
    if max_edges < 0:
        raise InvalidParameter("max_edges must be non-negative")
    if k < 0:
        raise InvalidParameter(f"degree {k} of a slice must be non-negative")
    if k > max_edges:
        return Fraction(0)
    ts = list(range(max_edges + 1))
    values = [p(g.scale(Fraction(t))) for t in ts]
    matrix = [[Fraction(t) ** d for d in range(max_edges + 1)] for t in ts]
    coeffs = solve_linear(matrix, values)
    return coeffs[k]


# -- CFI pairs -------------------------------------------------------------------------------


@dataclass
class CfiPair:
    """Even and odd CFI graphs of a connected simple base graph."""

    base: BipartiteMultigraph
    even: ColouredGraph
    odd: ColouredGraph


def cfi_pair(s: BipartiteMultigraph) -> CfiPair:
    """CFI construction: per-vertex gadgets of even-size incident-edge subsets.

    The S-coloured graph S_0 joins (u,X) and (v,Y) for an edge e=uv iff X and
    Y agree on e; S_1 twists exactly one designated edge (the
    lexicographically smallest) to demand disagreement there.  Class sizes
    are 2^(deg-1), at most 2^(max degree - 1).
    """
    if not s.is_simple():
        raise InvalidParameter("CFI bases must be simple")
    if not s.is_connected():
        raise NotConnected("CFI bases must be connected")
    if not s.edges:
        raise InvalidParameter("CFI bases need at least one edge")
    if s.max_degree() > CFI_DEGREE_CAP:
        raise SizeCap(f"CFI capped at maximum degree {CFI_DEGREE_CAP}")
    colour = identity_colouring(s)
    edges = [(u, v) for (u, v, _) in s.edge_list_global()]
    incident: Dict[int, List[Tuple[int, int]]] = {v: [] for v in s.vertices()}
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)

    member_sets: Dict[int, List[frozenset]] = {}
    for v in s.vertices():
        subsets = []
        for r in range(0, len(incident[v]) + 1, 2):
            for combo in itertools.combinations(incident[v], r):
                subsets.append(frozenset(combo))
        member_sets[v] = sorted(subsets, key=lambda fs: sorted(fs))

    sizes = {colour[v]: len(member_sets[v]) for v in s.vertices()}
    even = ColouredGraph(sizes)
    odd = ColouredGraph(sizes)
    twisted = min(edges)
    for e in edges:
        u, v = e
        for iu, su in enumerate(member_sets[u]):
            for iv, sv in enumerate(member_sets[v]):
                agree = (e in su) == (e in sv)
                if agree:
                    even.set_weight((colour[u], iu), (colour[v], iv), Fraction(1))
                if (agree and e != twisted) or (not agree and e == twisted):
                    odd.set_weight((colour[u], iu), (colour[v], iv), Fraction(1))
    return CfiPair(s, even, odd)


# -- bipartite doubling and the quotient expansion ----------------------------------------------


def bipartite_double(g: WeightedHost) -> WeightedHost:
    """The (2n,2n) host with identity diagonal blocks and G / G-transposed
    off-diagonal blocks; hom_{F,2n} of it expands into quotient homs of F."""
    if g.n != g.m:
        raise NotSquare("bipartite doubling needs a square host")
    n = g.n
    weights: Dict[Tuple[int, int], Rational] = {}
    for i in range(n):
        weights[(i, i)] = Fraction(1)              # (A,i),(A,i)
        weights[(n + i, n + i)] = Fraction(1)      # (B,i),(B,i)
    for (i, j), w in g.weights.items():
        weights[(i, n + j)] = w                    # (A,i),(B,j) -> x_{i,j}
        weights[(n + j, i)] = w                    # (B,j),(A,i) -> x_{i,j}
    return WeightedHost(2 * n, 2 * n, weights)


def quotient_expansion_value(f: BipartiteMultigraph, g: WeightedHost):
    """Right-hand side of the quotient expansion: sum over all two-colourings
    s of V(F) of hom_{F quotient s, n}(G)."""
    total = Fraction(0)
    for bits in itertools.product((SIDE_A, SIDE_B), repeat=f.num_vertices()):
        s = dict(zip(f.vertices(), bits))
        total = total + hom_count(quotient(f, s), g)
    return total


def check_quotient_identity(f: BipartiteMultigraph, g: WeightedHost) -> bool:
    """hom_{F,2n}(G doubled) == sum_s hom_{F quotient s,n}(G), exactly."""
    return hom_count(f, bipartite_double(g)) == quotient_expansion_value(f, g)


# -- extraction pipelines --------------------------------------------------------------------


def _sub_multisets_all(edges: Sequence[Tuple[Tuple[int, int], int]], expansions: int = 1):
    """All sub-multiset choices, with binomial weights.  The walk, each choice
    counted `expansions` times, is charged to the `brute_force_maps` cap
    before the first choice."""
    check_cap("brute_force_maps", expansions * prod(mult + 1 for _, mult in edges),
              "candidate count")
    for takes in itertools.product(*(range(mult + 1) for _, mult in edges)):
        yield ([(edge, take) for (edge, _), take in zip(edges, takes) if take],
               prod(comb(mult, take) for (_, mult), take in zip(edges, takes)))


def _normalizer(s: BipartiteMultigraph, candidates: Iterable[Tuple[BipartiteMultigraph, int]],
                ncls: Rational) -> Rational:
    """Sum over the (graph, binomial weight) candidates of the colourings of
    V(graph) by V(S) that make the graph minus its isolated vertices (S,
    identity), each isolated vertex weighted by ncls.  Only a candidate with
    |V(S)| non-isolated vertices has such colourings: it walks the |V(S)|!
    bijections onto the colours, charged to the `brute_force_maps` cap, and
    counts those whose coloured edge multiset is E(S), each edge once.  An
    isolated vertex takes any colour, a factor |V(S)| * ncls."""
    colours = range(1, s.num_vertices() + 1)
    wanted = sorted((u + 1, v + 1) for (u, v, _) in s.edge_list_global())
    total, bijections = Fraction(0), 0
    for graph, weight in candidates:
        isolated = graph.isolated_vertices()
        touched = [v for v in graph.vertices() if v not in isolated]
        if len(touched) != len(colours):
            continue
        bijections += factorial(len(colours))
        check_cap("brute_force_maps", bijections, "bijection count")
        edges = [(u, v) for (u, v, mult) in graph.edge_list_global() for _ in range(mult)]
        matches = 0
        for perm in itertools.permutations(colours):
            c = dict(zip(touched, perm))
            matches += sorted(tuple(sorted((c[u], c[v]))) for (u, v) in edges) == wanted
        total += weight * matches * (len(colours) * ncls) ** len(isolated)
    return total


def _cfi_difference(s: BipartiteMultigraph) -> Tuple[CfiPair, Rational]:
    pair = cfi_pair(s)
    idc = identity_colouring(s)
    delta = coloured_hom_eval(s, idc, pair.even) - coloured_hom_eval(s, idc, pair.odd)
    if delta == 0:
        raise InvalidParameter("CFI even/odd difference vanished on the base; this is a bug")
    return pair, delta


def _extract_colhom(f: BipartiteMultigraph, s: BipartiteMultigraph, n: int,
                    hom_oracle: Callable[[WeightedHost], Rational],
                    candidates: Iterable[Tuple[BipartiteMultigraph, int]], minor: bool):
    """The extraction pipeline shared by the subgraph and minor variants.

    q(G, S_i) is the |E(S)|-edge slice of t -> hom_oracle(t * G x S_i,
    bipartite-doubled if `minor`, shifted by one), and colhom_{S,n}(G) =
    (q(G, S_0) - q(G, S_1)) / normalizer.  The normalizer is `_normalizer`
    over the candidate (graph, binomial weight) pairs with |E(S)| edge slots
    that the inclusion-exclusion produces, times the CFI difference.  A
    handle that states its map count (`OracleHandle.maps`) is charged for
    one call on the oracle's host before the candidates are walked.
    """
    if not s.is_simple() or not s.is_connected():
        raise InvalidParameter("the extracted pattern S must be simple and connected")
    d = s.max_degree()
    pad = 2 ** (d - 1)
    pair, delta = _cfi_difference(s)
    s0 = pair.even.pad_to(pad)
    s1 = pair.odd.pad_to(pad)
    k = s.num_edge_slots()
    max_edges = f.num_edge_slots()
    ncls = Fraction(pad * n)

    s_colours = list(range(1, s.num_vertices() + 1))
    maps = getattr(hom_oracle, "maps", None)
    if maps is not None:
        _check_cap(maps(len(s_colours) * n * pad * (2 if minor else 1)))
    normalizer = _normalizer(s, candidates, ncls) * delta
    if normalizer == 0:
        relation = "minor" if minor else "subgraph"
        raise InvalidParameter(f"zero normalizer; S is not a relevant {relation} of F")

    def shifted(host: WeightedHost) -> Rational:
        return hom_oracle((bipartite_double(host) if minor else host).shift_all(Fraction(1)))

    def q(g: ColouredGraph, cfi_side: ColouredGraph) -> Rational:
        return degree_slice(shifted, k, max_edges, tensor_product(g, cfi_side).flatten())

    def evaluate(g: ColouredGraph) -> Rational:
        if any(g.sizes.get(c) != n for c in s_colours):
            raise InvalidParameter("host must be S-coloured with classes of size n")
        return (q(g, s0) - q(g, s1)) / normalizer

    return evaluate


def extract_colhom_via_subgraph(f: BipartiteMultigraph, s: BipartiteMultigraph, n: int,
                                hom_oracle: Callable[[WeightedHost], Rational]):
    """An evaluator for colhom_{S,n} using an oracle for hom_{F, 2^(d-1)|V(S)|n}.

    Pipeline: colour F by V(S) (uncolour identity), shift every host entry by
    one (subgraph inclusion-exclusion), slice at |E(S)| edges, take the CFI
    difference q(G x S_0) - q(G x S_1), and divide by the normalizer summed
    over the surviving (colouring, subgraph) pairs, computed here by explicit
    enumeration of the |E(S)|-slot sub-multisets of E(F).
    """
    k = s.num_edge_slots()
    subgraphs = (
        (BipartiteMultigraph(f.a_count, f.b_count, dict(chosen)), weight)
        for chosen, weight in _sub_multisets_all(sorted(f.edges.items()))
        if sum(take for _, take in chosen) == k
    )
    return _extract_colhom(f, s, n, hom_oracle, subgraphs, minor=False)


def extract_colhom_via_minor(f: BipartiteMultigraph, s: BipartiteMultigraph, n: int,
                             hom_oracle: Callable[[WeightedHost], Rational]):
    """An evaluator for colhom_{S,n} using an oracle for hom_{F, 2^d |V(S)| n}.

    As the subgraph pipeline, with an additional bipartite doubling so the
    inclusion-exclusion ranges over quotients of subgraphs of F; S only needs
    to be a minor of F.
    """
    k = s.num_edge_slots()

    def quotients():
        for chosen, weight in _sub_multisets_all(sorted(f.edges.items()), 2 ** f.num_vertices()):
            sub = BipartiteMultigraph(f.a_count, f.b_count, dict(chosen))
            for bits in itertools.product((SIDE_A, SIDE_B), repeat=f.num_vertices()):
                q_graph = quotient(sub, dict(zip(f.vertices(), bits)))
                if q_graph.num_edge_slots() == k:
                    yield q_graph, weight

    return _extract_colhom(f, s, n, hom_oracle, quotients(), minor=True)


def extract_single_from_lincomb(lincomb_oracle: Callable[[WeightedHost], Rational],
                                patterns: Sequence[BipartiteMultigraph],
                                alphas: Sequence[Rational], ell: int,
                                n: int, big_n: int, seed: int = 0):
    """An evaluator for hom_{F_ell, n} from an oracle for the combination
    sum_i alpha_i hom_{F_i, n*N}, by interpolation over a hom basis."""
    from .errors import ZeroCoefficient

    if len(patterns) != len(alphas):
        raise InvalidParameter("patterns and alphas must align")
    if not 0 <= ell < len(patterns):
        raise InvalidParameter("ell out of range")
    if Fraction(alphas[ell]) == 0:
        raise ZeroCoefficient("cannot extract a term with zero coefficient")
    basis = find_hom_basis(patterns, big_n, seed)
    rhs = [Fraction(1) if i == ell else Fraction(0) for i in range(len(patterns))]
    beta = solve_linear(basis.matrix, rhs)

    def evaluate(g: WeightedHost) -> Rational:
        if g.n != n or g.m != n:
            raise InvalidParameter(f"host must be ({n},{n})")
        total = Fraction(0)
        for b, point in zip(beta, basis.points):
            if b != 0:
                total = total + b * lincomb_oracle(host_tensor(g, point))
        return total / Fraction(alphas[ell])

    return evaluate
