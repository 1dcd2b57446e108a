"""Bipartite multigraphs: generators, isomorphism, the census, quotients, minors.

A pattern is a bipartite multigraph with a fixed bipartition: left vertices
A = {0..a_count-1} and right vertices B = {0..b_count-1}, with edges stored as
a map (a_index, b_index) -> multiplicity >= 1.  Isomorphism preserves the
bipartition (no side swap) and all multiplicities.

Where a function ranges over all vertices (quotients, colourings, minors,
decompositions) we use *global* vertex ids: A-vertex i is `i`, B-vertex j is
`a_count + j`.  Serialized forms are 1-based; everything internal is 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    IndexOutOfRange,
    InvalidBranchSets,
    InvalidParameter,
    ParseError,
    SizeCap,
    check_cap,
)
from .exactnum import int_from_json, rows_from_json

SIDE_A = "A"
SIDE_B = "B"
SIDE_CAP = 10  # largest side `canonical_key` and `are_isomorphic` accept


class BipartiteMultigraph:
    """Pattern/host graph with fixed bipartition and edge multiplicities."""

    __slots__ = ("a_count", "b_count", "edges")

    def __init__(self, a_count: int, b_count: int, edges: Dict[Tuple[int, int], int] | None = None):
        for count in (a_count, b_count):
            if type(count) is not int or count < 0:
                raise InvalidParameter(f"vertex counts must be ints >= 0, not {count!r}")
        self.a_count = a_count
        self.b_count = b_count
        self.edges: Dict[Tuple[int, int], int] = {}
        for (i, j), mult in (edges or {}).items():
            if not (0 <= i < a_count and 0 <= j < b_count):
                raise InvalidParameter(f"edge ({i},{j}) out of range")
            if type(mult) is not int or mult < 1:
                raise InvalidParameter(f"edge multiplicities must be ints >= 1, not {mult!r}")
            self.edges[(i, j)] = mult

    # -- basic queries -------------------------------------------------------

    def num_vertices(self) -> int:
        return self.a_count + self.b_count

    def num_edge_slots(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self.edges.values())

    def norm(self) -> int:
        """The size measure |V(F)| + |E(F)| with edges counted by multiplicity."""
        return self.num_vertices() + self.num_edge_slots()

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.edges.values())

    # Global-id helpers.  A-vertex i -> i, B-vertex j -> a_count + j.

    def vertices(self) -> range:
        return range(self.num_vertices())

    def side(self, v: int) -> str:
        if not 0 <= v < self.num_vertices():
            raise IndexOutOfRange(f"vertex {v} out of range")
        return SIDE_A if v < self.a_count else SIDE_B

    def local_id(self, v: int) -> Tuple[str, int]:
        return (SIDE_A, v) if v < self.a_count else (SIDE_B, v - self.a_count)

    def edge_list_global(self) -> List[Tuple[int, int, int]]:
        """Edges as (a_global, b_global, multiplicity), sorted."""
        return sorted((i, self.a_count + j, m) for (i, j), m in self.edges.items())

    def adjacency(self) -> List[FrozenSet[int]]:
        """Simple adjacency over global ids."""
        adj: List[set] = [set() for _ in self.vertices()]
        for (i, j) in self.edges:
            u, v = i, self.a_count + j
            adj[u].add(v)
            adj[v].add(u)
        return [frozenset(s) for s in adj]

    def degree_global(self, v: int) -> int:
        """Degree counted with multiplicity."""
        side, local = self.local_id(v)
        if side == SIDE_A:
            return sum(m for (i, _), m in self.edges.items() if i == local)
        return sum(m for (_, j), m in self.edges.items() if j == local)

    def max_degree(self) -> int:
        return max((self.degree_global(v) for v in self.vertices()), default=0)

    def isolated_vertices(self) -> List[int]:
        touched = set()
        for (i, j) in self.edges:
            touched.add(i)
            touched.add(self.a_count + j)
        return [v for v in self.vertices() if v not in touched]

    def is_connected(self) -> bool:
        return self.num_vertices() <= 1 or _connected_in(self.adjacency(),
                                                          frozenset(self.vertices()))

    def disjoint_union(self, other: "BipartiteMultigraph") -> "BipartiteMultigraph":
        edges = dict(self.edges)
        for (i, j), m in other.edges.items():
            edges[(self.a_count + i, self.b_count + j)] = m
        return BipartiteMultigraph(self.a_count + other.a_count, self.b_count + other.b_count, edges)

    # -- canonical form, equality, hashing ------------------------------------

    def canonical_key(self):
        """Canonical form under independent permutations of A and B.

        Once side A is ordered, side B is only a multiset of columns, so just
        A is permuted, within its groups of equal weighted-degree profile.
        For each A-order, B is read as the sorted tuple of its columns, each
        the sorted tuple of (A index, multiplicity); the least reading wins.
        """
        if self.a_count > SIDE_CAP or self.b_count > SIDE_CAP:
            raise SizeCap(f"canonical form capped at side size {SIDE_CAP}")
        profiles = [tuple(sorted(m for (i, _), m in self.edges.items() if i == a))
                    for a in range(self.a_count)]
        order = sorted(range(self.a_count), key=profiles.__getitem__)
        groups = [tuple(g) for _, g in itertools.groupby(order, key=profiles.__getitem__)]
        best = None
        for blocks in itertools.product(*(itertools.permutations(g) for g in groups)):
            new = {old: k for k, old in enumerate(itertools.chain.from_iterable(blocks))}
            columns: List[List[Tuple[int, int]]] = [[] for _ in range(self.b_count)]
            for (i, j), m in self.edges.items():
                columns[j].append((new[i], m))
            key = tuple(sorted(tuple(sorted(col)) for col in columns))
            if best is None or key < best:
                best = key
        return (self.a_count, self.b_count, best)

    def __eq__(self, other):
        if not isinstance(other, BipartiteMultigraph):
            return NotImplemented
        return (self.a_count, self.b_count, self.edges) == (other.a_count, other.b_count, other.edges)

    def __hash__(self):
        return hash((self.a_count, self.b_count, frozenset(self.edges.items())))

    def __repr__(self):
        return f"BipartiteMultigraph(a={self.a_count}, b={self.b_count}, edges={sorted(self.edges.items())})"

    # -- serialization (1-based externally) ------------------------------------

    def to_json(self) -> dict:
        return {
            "a": self.a_count,
            "b": self.b_count,
            "edges": [[i + 1, j + 1, m] for (i, j), m in sorted(self.edges.items())],
        }

    @staticmethod
    def from_json(data: dict) -> "BipartiteMultigraph":
        """Rows [i, j, m] are 1-based; rows repeating an edge add their
        multiplicities, as repeated wires do in `Circuit.from_json`."""
        try:
            edges: Dict[Tuple[int, int], int] = {}
            for i, j, m in rows_from_json(data.get("edges", []), "edge"):
                key, mult = (int_from_json(i) - 1, int_from_json(j) - 1), int_from_json(m)
                if mult < 1:
                    raise ParseError(f"edge [{i}, {j}, {m}] has a multiplicity below 1")
                edges[key] = edges.get(key, 0) + mult
            a_count, b_count = int_from_json(data["a"]), int_from_json(data["b"])
            check_cap("pattern_norm", a_count + b_count + sum(edges.values()), "graph norm")
            return BipartiteMultigraph(a_count, b_count, edges)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed graph JSON: {exc}") from exc


# -- generators ----------------------------------------------------------------


def make_path(v: int) -> BipartiteMultigraph:
    """Path on v vertices, alternately assigned to A and B starting in A."""
    if v < 1:
        raise InvalidParameter("paths need at least one vertex")
    _check_norm(v, v - 1)
    ids = path_vertex_ids(v)
    return _from_global_edges((v + 1) // 2, v, zip(ids, ids[1:]))


def make_grid(rows: int, cols: int) -> BipartiteMultigraph:
    """rows-by-cols grid; vertex (i,j) is in A iff i+j is even (0-based)."""
    if rows < 1 or cols < 1:
        raise InvalidParameter("grids need positive dimensions")
    _check_norm(rows * cols, rows * (cols - 1) + cols * (rows - 1))
    ids = grid_vertex_ids(rows, cols)
    pairs = [(ids[(i, j)], ids[(i + di, j + dj)]) for i in range(rows) for j in range(cols)
             for di, dj in ((0, 1), (1, 0)) if i + di < rows and j + dj < cols]
    return _from_global_edges((rows * cols + 1) // 2, rows * cols, pairs)


def _check_norm(vertices: int, edges: int) -> None:
    """SizeCap if a generated pattern's |V| + |E| exceeds the `pattern_norm`
    cap, checked before any of it is built."""
    check_cap("pattern_norm", vertices + edges, "pattern norm")


def _from_global_edges(a_count: int, total: int, pairs) -> BipartiteMultigraph:
    """The simple graph on global ids 0..total-1 with A = {0..a_count-1}
    and an edge for each pair, which joins an A vertex to a B vertex."""
    edges: Dict[Tuple[int, int], int] = {}
    for u, w in pairs:
        u, w = min(u, w), max(u, w)
        edges[(u, w - a_count)] = 1
    return BipartiteMultigraph(a_count, total - a_count, edges)


def make_complete_binary_tree(n: int) -> BipartiteMultigraph:
    """Largest perfect binary tree with at most n leaves; root in A."""
    graph, _, _ = complete_binary_tree_structure(n)
    return graph


def complete_binary_tree_structure(n: int):
    """(graph, left_child, right_child) with children maps over global ids."""
    if n < 1:
        raise InvalidParameter("binary trees need n >= 1")
    height = n.bit_length() - 1  # floor(log2 n)
    total = 2 ** (height + 1) - 1
    _check_norm(total, total - 1)
    # Heap indexing: vertex k at depth d has children 2k+1, 2k+2.
    depth = [0] * total
    for k in range(1, total):
        depth[k] = depth[(k - 1) // 2] + 1
    a_nodes = [k for k in range(total) if depth[k] % 2 == 0]
    b_nodes = [k for k in range(total) if depth[k] % 2 == 1]
    global_of = {k: g for g, k in enumerate(a_nodes + b_nodes)}
    graph = _from_global_edges(len(a_nodes), total, [
        (global_of[k], global_of[child]) for k in range(total)
        for child in (2 * k + 1, 2 * k + 2) if child < total])
    left_child = {global_of[k]: global_of[2 * k + 1] for k in range(total) if 2 * k + 1 < total}
    right_child = {global_of[k]: global_of[2 * k + 2] for k in range(total) if 2 * k + 2 < total}
    return graph, left_child, right_child


def grid_vertex_ids(rows: int, cols: int) -> Dict[Tuple[int, int], int]:
    """Map a 0-based grid cell (i, j) to its global vertex id in make_grid."""
    a_cells = [(i, j) for i in range(rows) for j in range(cols) if (i + j) % 2 == 0]
    b_cells = [(i, j) for i in range(rows) for j in range(cols) if (i + j) % 2 == 1]
    ids = {c: k for k, c in enumerate(a_cells)}
    ids.update({c: len(a_cells) + k for k, c in enumerate(b_cells)})
    return ids


def path_vertex_ids(v: int) -> List[int]:
    """Global ids of make_path(v) in path order."""
    a_count = (v + 1) // 2
    return [k // 2 if k % 2 == 0 else a_count + k // 2 for k in range(v)]


def make_complete_bipartite(a: int, b: int) -> BipartiteMultigraph:
    """K_{a,b}; stars are K_{1,b} with the centre in A."""
    if a < 1 or b < 1:
        raise InvalidParameter("complete bipartite graphs need positive sides")
    _check_norm(a + b, a * b)
    return BipartiteMultigraph(a, b, {(i, j): 1 for i in range(a) for j in range(b)})


def make_cycle(v: int) -> BipartiteMultigraph:
    """Even cycle on v vertices (v >= 4, even); C_4 equals the 2x2 grid."""
    if v < 4 or v % 2 != 0:
        raise InvalidParameter("bipartite cycles need an even length >= 4")
    _check_norm(v, v)
    ids = path_vertex_ids(v)
    return _from_global_edges(v // 2, v, zip(ids, ids[1:] + ids[:1]))


# -- isomorphism -----------------------------------------------------------------


def enumerate_bipartite_multigraphs(max_vertices: int, max_slots: int,
                                    max_mult: int = 1) -> List[BipartiteMultigraph]:
    """All non-empty bipartite multigraphs up to isomorphism within the given caps.

    Sides are distinguishable (an (a,b) graph is not identified with its
    (b,a) transpose).  For each (a, b), multiplicity vectors (row-major
    cells, 0 < 1 < 2 ...) are visited in lexicographic order, pruned to the
    doubly-lexical ones: rows non-decreasing, and columns non-decreasing
    read top-down.  Swapping an out-of-order pair of rows, or of columns,
    gives an isomorphic smaller vector with as many slots, so the lex-least
    vector of every class is visited, and first; deduplicated through
    canonical forms, it is the one kept.
    """
    seen = set()
    out: List[BipartiteMultigraph] = []
    for a in range(0, max_vertices + 1):
        for b in range(0, max_vertices + 1 - a):
            if a + b == 0:
                continue
            vectors = _doubly_lexical([0] * (a * b), [j > 0 for j in range(b)], b, 0,
                                      max_slots, False, max_mult)
            for vec in vectors:
                g = BipartiteMultigraph(a, b, {divmod(k, b): m for k, m in enumerate(vec) if m})
                key = g.canonical_key()
                if key not in seen:
                    seen.add(key)
                    out.append(g)
    return out


def _doubly_lexical(vec: List[int], col_tied: List[bool], b: int, idx: int, room: int,
                    row_tied: bool, max_mult: int) -> Iterator[List[int]]:
    """The doubly-lexical fillings of `vec` from cell `idx` on (row-major
    cells of b columns) with at most `room` more slots, in lexicographic
    order; `vec` itself is yielded, filled, each time.  `col_tied[j]` tells
    whether column j equals column j-1 so far, `row_tied` whether the
    current row equals the row above so far."""
    if idx == len(vec):
        yield vec
        return
    i, j = divmod(idx, b)
    row_tied = row_tied if j else i > 0  # row i equals row i-1 so far
    tied = col_tied[j]
    # A tied row may not fall below the row above, nor a tied
    # column below the column to its left.
    above = vec[idx - b] if row_tied else 0
    left = vec[idx - 1] if tied else 0
    for mult in range(max(above, left), min(max_mult, room) + 1):
        vec[idx] = mult
        col_tied[j] = tied and mult == left
        yield from _doubly_lexical(vec, col_tied, b, idx + 1, room - mult,
                                   row_tied and mult == above, max_mult)
    col_tied[j] = tied


def are_isomorphic(f: BipartiteMultigraph, g: BipartiteMultigraph) -> bool:
    """Bipartition- and multiplicity-preserving isomorphism: equal canonical keys."""
    if max(f.a_count, f.b_count, g.a_count, g.b_count) > SIDE_CAP:
        raise SizeCap(f"isomorphism test capped at side size {SIDE_CAP}")
    return f.canonical_key() == g.canonical_key()


# -- vertex contraction ---------------------------------------------------------


def contract(f: BipartiteMultigraph, pairs: Sequence[Tuple[int, int]],
             sides: Optional[Sequence[str]] = None) -> BipartiteMultigraph:
    """Merge the vertex pairs (global ids) of F.

    `sides[v]` is the side v lands on (default: its own), and merged vertices
    share a side.  The classes of each side are numbered by their least
    global id.  Edges whose two ends land on the same side are dropped; the
    others keep their order in `f.edges` and parallel ones add up their
    multiplicities.
    """
    n = f.num_vertices()
    sides = sides or [f.side(v) for v in range(n)]
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in pairs:
        if sides[u] != sides[v]:
            raise InvalidParameter(f"cannot merge vertices {u} and {v} of different sides")
        ru, rv = find(u), find(v)
        root[max(ru, rv)] = min(ru, rv)
    index = [0] * n
    counts = {SIDE_A: 0, SIDE_B: 0}
    for v in range(n):  # a class's least id, its root, comes first
        r = find(v)
        if r == v:
            index[v] = counts[sides[v]]
            counts[sides[v]] += 1
        else:
            index[v] = index[r]
    edges: Dict[Tuple[int, int], int] = {}
    for (i, j), m in f.edges.items():
        u, v = i, f.a_count + j
        if sides[u] != sides[v]:
            key = (index[u], index[v]) if sides[u] == SIDE_A else (index[v], index[u])
            edges[key] = edges.get(key, 0) + m
    return BipartiteMultigraph(counts[SIDE_A], counts[SIDE_B], edges)


def quotient(f: BipartiteMultigraph, s: Dict[int, str]) -> BipartiteMultigraph:
    """Contract monochromatic components of the two-colouring s: V(F) -> {A,B}.

    Edges whose endpoints get the same colour form the set L; every connected
    component of (V, L) is contracted to one vertex, surviving edges keep and
    accumulate multiplicities, and the bipartition of the result is given by s.
    """
    for v in f.vertices():
        if s.get(v) not in (SIDE_A, SIDE_B):
            raise InvalidParameter(f"colouring must assign A or B to vertex {v}")
    pairs = [(i, f.a_count + j) for (i, j) in f.edges if s[i] == s[f.a_count + j]]
    return contract(f, pairs, [s[v] for v in f.vertices()])


# -- minors -----------------------------------------------------------------------


@dataclass(frozen=True)
class BranchSets:
    """Branch sets witnessing S as a minor of F (global ids on both sides).

    `sets[k]` is the branch set of S-vertex k (global id in S); `b0` is the
    unused remainder.  Each F[sets[k]] is connected and every S-edge has at
    least one F-edge between its branch sets.
    """

    sets: Tuple[FrozenSet[int], ...]
    b0: FrozenSet[int]

    def validate(self, s: BipartiteMultigraph, f: BipartiteMultigraph) -> bool:
        if len(self.sets) != s.num_vertices():
            raise InvalidBranchSets("one branch set per S-vertex required")
        all_vs = set(self.b0)
        for bs in self.sets:
            if not bs:
                raise InvalidBranchSets("branch sets must be non-empty")
            if all_vs & bs:
                raise InvalidBranchSets("branch sets must be disjoint")
            all_vs |= bs
        if all_vs != set(f.vertices()):
            raise InvalidBranchSets("branch sets plus remainder must partition V(F)")
        adj = f.adjacency()
        for bs in self.sets:
            if not _connected_in(adj, bs):
                raise InvalidBranchSets("each branch set must induce a connected subgraph")
        for (i, j) in s.edges:
            u, v = i, s.a_count + j
            if not _has_cross_edge(adj, self.sets[u], self.sets[v]):
                raise InvalidBranchSets(f"no F-edge between branch sets of S-edge ({u},{v})")
        return True


def _connected_in(adj: Sequence[FrozenSet[int]], vs: FrozenSet[int]) -> bool:
    if not vs:
        return False
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(vs)


def _has_cross_edge(adj: Sequence[FrozenSet[int]], xs: FrozenSet[int], ys: FrozenSet[int]) -> bool:
    return any(adj[x] & ys for x in xs)


def find_minor(s: BipartiteMultigraph, f: BipartiteMultigraph) -> Optional[BranchSets]:
    """Exhaustive branch-set search for S as a minor of F's underlying simple graph.

    S must be simple.  Returns a validated BranchSets witness or None.  The
    search assigns branch sets vertex by vertex over precomputed connected
    subsets, pruning on the cross-edge condition against already-placed sets.
    """
    if not s.is_simple():
        raise InvalidParameter("minor pattern S must be simple")
    check_cap("minor_norm", f.norm(), "minor search host norm")
    nf = f.num_vertices()
    ns = s.num_vertices()
    if ns == 0:
        return BranchSets((), frozenset(f.vertices()))
    if ns > nf:
        return None
    adj = f.adjacency()

    # All connected subsets of V(F), grouped nowhere: just a flat list; nf <= ~12.
    connected_subsets: List[FrozenSet[int]] = []
    for size in range(1, nf - ns + 2):
        for combo in itertools.combinations(range(nf), size):
            cs = frozenset(combo)
            if _connected_in(adj, cs):
                connected_subsets.append(cs)

    s_edges_global = [(i, s.a_count + j) for (i, j) in s.edges]
    order = sorted(range(ns), key=lambda v: -len([e for e in s_edges_global if v in e]))

    solution = _place_branch_sets(adj, connected_subsets, s_edges_global, order, {}, set())
    if solution is None:
        return None
    sets = tuple(solution[v] for v in range(ns))
    b0 = frozenset(set(f.vertices()) - set().union(*sets))
    witness = BranchSets(sets, b0)
    witness.validate(s, f)
    return witness


def _place_branch_sets(adj: Sequence[FrozenSet[int]], subsets: List[FrozenSet[int]],
                       s_edges: List[Tuple[int, int]], order: List[int],
                       assigned: Dict[int, FrozenSet[int]],
                       used: set) -> Optional[Dict[int, FrozenSet[int]]]:
    """The first extension, in the order of `subsets`, of the branch sets
    `assigned` (covering `used`) to every S-vertex of `order`, each set
    disjoint from the others and joined by an F-edge to the set of each
    S-neighbour; None if there is none."""
    if len(assigned) == len(order):
        return dict(assigned)
    v = order[len(assigned)]
    needed = [(u, w) for (u, w) in s_edges if (u == v and w in assigned) or (w == v and u in assigned)]
    for cs in subsets:
        if cs & used:
            continue
        if not all(_has_cross_edge(adj, cs, assigned[w if u == v else u]) for (u, w) in needed):
            continue
        assigned[v] = cs
        used.update(cs)
        result = _place_branch_sets(adj, subsets, s_edges, order, assigned, used)
        if result is not None:
            return result
        del assigned[v]
        used.difference_update(cs)
    return None
