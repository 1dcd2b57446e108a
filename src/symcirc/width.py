"""Exact treewidth, pathwidth, and treedepth with decomposition certificates.

All solvers work on the underlying simple graph over global vertex ids and
return both the exact value and a certificate that `validate_decomposition`
accepts.  Treewidth and pathwidth share one subset DP, `_subset_dp`, over
vertex orders (Bodlaender et al., On exact algorithms for treewidth, TALG
2012); it minimizes the maximum step cost, recovers an optimal order, and
differs per solver only in the step cost of placing v after the set S.
Each solve builds one table `nb` of 2^n bitmasks, nb[mask] the union of the
neighbourhoods of the vertices in mask, and both step costs and both
certificate builders read it:

  * treewidth  -> TreeDecomposition: the number of vertices outside S+v
    reachable from v through S (its elimination degree), found by growing
    the mask comp = {v} by nb[comp] & S until it stops, with the
    decomposition rebuilt from the optimal elimination order;
  * pathwidth  -> PathDecomposition: the boundary of the prefix T = S+v,
    T & nb[V - T], i.e. its vertices with a neighbour outside it (vertex
    separation number equals pathwidth), with the bags rebuilt from the
    layout;
  * treedepth  -> EliminationForest, via recursive root choice memoized on
    vertex masks, components grown by the tw step's closure.

The DP pulls each subset's cost from its predecessors in numeric mask
order, taking candidates v in decreasing order and keeping the first
strictly cheaper one; that tie-break fixes the order, and hence the
certificate, each solver returns.

Treedepth counts vertices (a single vertex has treedepth 1) and disconnected
graphs use a forest, so td(F) is the maximum over components.  Certificate
validation is linear in the decomposition apart from the edge checks:
parent chains are checked by one walk and ancestry by DFS times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidDecomposition, InvalidParameter, ParseError, check_cap
from .exactnum import int_from_json
from .pattern import BipartiteMultigraph


@dataclass
class TreeDecomposition:
    """Rooted tree of bags; parent[i] is None exactly for the root."""

    bags: List[FrozenSet[int]]
    parent: List[Optional[int]]

    def __post_init__(self):
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(self.bags) != len(self.parent) or len(roots) != 1:
            raise InvalidDecomposition("tree decompositions need exactly one root")
        self.root = roots[0]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def children(self) -> List[List[int]]:
        ch: List[List[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(i)
        return ch

    def to_json(self) -> dict:
        return {
            "kind": "tree",
            "bags": [sorted(v + 1 for v in b) for b in self.bags],
            "parent": [0 if p is None else p + 1 for p in self.parent],
        }

    @staticmethod
    def from_json(data: dict) -> "TreeDecomposition":
        try:
            bags = [frozenset(int_from_json(v) - 1 for v in bag) for bag in data["bags"]]
            parent = [None if p == 0 else p - 1 for p in map(int_from_json, data["parent"])]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed tree decomposition: {exc}") from exc
        return TreeDecomposition(bags, parent)


@dataclass
class PathDecomposition:
    """Ordered list of bags."""

    bags: List[FrozenSet[int]]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def as_tree(self) -> TreeDecomposition:
        """The same decomposition as a path-shaped tree rooted at the last bag."""
        return TreeDecomposition(list(self.bags), _path_parent(len(self.bags)))

    def to_json(self) -> dict:
        return {"kind": "path", "bags": [sorted(v + 1 for v in b) for b in self.bags]}

    @staticmethod
    def from_json(data: dict) -> "PathDecomposition":
        try:
            return PathDecomposition([frozenset(int_from_json(v) - 1 for v in bag)
                                      for bag in data["bags"]])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed path decomposition: {exc}") from exc


@dataclass
class EliminationForest:
    """Rooted forest on V(F): parent[v] is None for roots.

    Valid for F iff every F-edge joins an ancestor-descendant pair; the
    height (vertices on the longest root-to-leaf path) is the treedepth.
    """

    parent: Dict[int, Optional[int]]

    def roots(self) -> List[int]:
        return sorted(v for v, p in self.parent.items() if p is None)

    def children(self) -> Dict[int, List[int]]:
        ch: Dict[int, List[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                ch[p].append(v)
        return ch

    def depth_of(self, v: int) -> int:
        d = 1
        while self.parent[v] is not None:
            v = self.parent[v]
            d += 1
        return d

    def height(self) -> int:
        return max((self.depth_of(v) for v in self.parent), default=0)

    def path_to_root(self, v: int) -> List[int]:
        """Strict ancestors of v, nearest first."""
        out = []
        while self.parent[v] is not None:
            v = self.parent[v]
            out.append(v)
        return out

    def to_json(self) -> dict:
        return {
            "kind": "elim",
            "parent": {str(v + 1): (0 if p is None else p + 1) for v, p in sorted(self.parent.items())},
        }

    @staticmethod
    def from_json(data: dict) -> "EliminationForest":
        try:
            parent = {}
            for v, p in data["parent"].items():
                p = int_from_json(p)
                parent[int_from_json(v) - 1] = None if p == 0 else p - 1
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed elimination forest: {exc}") from exc
        return EliminationForest(parent)


# -- validation ------------------------------------------------------------------


def validate_decomposition(f: BipartiteMultigraph, d) -> Tuple[bool, str]:
    """Check the decomposition axioms; returns (ok, first violation or '')."""
    if isinstance(d, PathDecomposition):
        return _validate_bags(f, d.bags, _path_parent(len(d.bags)))
    if isinstance(d, TreeDecomposition):
        return _validate_bags(f, d.bags, d.parent)
    if isinstance(d, EliminationForest):
        return _validate_elimination(f, d)
    raise InvalidParameter(f"unknown decomposition type {type(d).__name__}")


def _path_parent(n: int) -> List[Optional[int]]:
    return [i + 1 for i in range(n - 1)] + [None] if n else []


def _first_broken_chain(parent, starts, is_node) -> Optional[int]:
    """The first of `starts` whose parent chain leaves the nodes or cycles, or None.

    A walk stops where an earlier walk went, as that one reached a root, so
    each node is entered once.
    """
    walked: Dict[int, int] = {}  # node -> the start whose walk entered it
    for start in starts:
        x = start
        while x is not None:
            if not is_node(x) or walked.get(x) == start:
                return start
            if x in walked:
                break
            walked[x] = start
            x = parent[x]
    return None


def _validate_bags(f: BipartiteMultigraph, bags: Sequence[FrozenSet[int]],
                   parent: Sequence[Optional[int]]) -> Tuple[bool, str]:
    # Parent pointers must name bags and lead every bag to the root.
    broken = _first_broken_chain(parent, range(len(bags)),
                                 lambda i: isinstance(i, int) and 0 <= i < len(bags))
    if broken is not None:
        return False, f"parent pointers from bag {broken} leave the tree or cycle"
    verts = set(f.vertices())
    covered = set().union(*bags) if bags else set()
    if covered != verts:
        return False, f"bags cover {sorted(covered)} instead of V(F)"
    occ: Dict[int, List[int]] = {v: [] for v in verts}
    for i, b in enumerate(bags):
        for v in b:
            occ[v].append(i)
    for (i, j) in f.edges:
        u, v = i, f.a_count + j
        if not any(v in bags[k] for k in occ[u]):
            return False, f"edge ({u},{v}) not inside any bag"
    # Occurrence sets must induce connected subtrees: in a tree, the bags
    # holding v form one subtree iff exactly one of them has no parent
    # holding v.
    for v in sorted(verts):
        tops = sum(1 for i in occ[v] if parent[i] is None or v not in bags[parent[i]])
        if tops > 1:
            return False, f"occurrence set of vertex {v} is disconnected"
    return True, ""


def _validate_elimination(f: BipartiteMultigraph, d: EliminationForest) -> Tuple[bool, str]:
    if set(d.parent) != set(f.vertices()):
        return False, "elimination forest must cover exactly V(F)"
    for v, p in d.parent.items():
        if p is not None and p not in d.parent:
            return False, f"vertex {v} has parent {p} outside V(F)"
    broken = _first_broken_chain(d.parent, d.parent, d.parent.__contains__)
    if broken is not None:
        return False, f"parent pointers cycle at vertex {broken}"
    # u is an ancestor of v iff v is entered after u and left before it.
    children, enter, leave = d.children(), {}, {}
    stack = [(r, False) for r in d.roots()]
    while stack:
        v, done = stack.pop()
        (leave if done else enter)[v] = len(enter) + len(leave)
        if not done:
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
    for (i, j) in f.edges:
        u, v = i, f.a_count + j
        if not any(enter[x] < enter[y] and leave[y] < leave[x] for x, y in ((u, v), (v, u))):
            return False, f"edge ({u},{v}) joins incomparable vertices"
    return True, ""


# -- the subset DP ----------------------------------------------------------------


def _neighbourhood_unions(adj: Sequence[Iterable[int]]) -> List[int]:
    """nb[mask]: the union of the neighbourhoods of the vertices in mask.

    One bitmask per subset of the n vertices, built by doubling: the masks
    whose top vertex is v are those below 1 << v, joined with v's neighbours.
    """
    nb = [0]
    for ws in adj:
        row = sum(1 << w for w in ws)
        nb += [x | row for x in nb]
    return nb


def _subset_dp(n: int, start: int, step: Callable[[int, int], int]) -> Tuple[int, List[int]]:
    """Min over vertex orders of the max step cost, by DP over vertex subsets.

    cost[0] = start and cost[T] = min over v in T of max(cost[S], step(S, v))
    with S = T - {v}, T a bitmask of the vertices placed so far.  Masks are
    filled in numeric order, as every S is below its T.  Candidates v are
    taken in decreasing order and a later one wins only when strictly
    cheaper; one whose cost[S] already reaches the best is skipped without
    computing its step.  Returns (cost of all n vertices, an optimal order,
    first placed first).
    """
    full = (1 << n) - 1
    cost = [start] * (full + 1)
    choice = [0] * (full + 1)
    for new in range(1, full + 1):
        best, rest = n + 1, new  # every step cost is at most n
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            base = cost[new ^ bit]
            if base >= best:
                continue
            value = max(base, step(new ^ bit, v))
            if value < best:
                best, choice[new] = value, v
        cost[new] = best
    order: List[int] = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return cost[full], order


def _members(mask: int) -> List[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# -- treewidth --------------------------------------------------------------------


def _eliminated_neighbours(nb: List[int], through: int, v: int) -> int:
    """Bitmask of vertices outside `through|{v}` reachable from v via `through`."""
    comp = 1 << v
    while True:
        grown = comp | nb[comp] & through
        if grown == comp:
            return nb[comp] & ~(through | comp)
        comp = grown


def treewidth_exact(f: BipartiteMultigraph) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth with a certificate, via the DP over elimination orders."""
    n = f.num_vertices()
    check_cap("width_vertices", n, "treewidth solver vertex count")
    if n == 0:
        return -1, TreeDecomposition([frozenset()], [None])
    nb = _neighbourhood_unions(f.adjacency())
    width, order = _subset_dp(
        n, -1, lambda mask, v: _eliminated_neighbours(nb, mask, v).bit_count())
    return width, _decomposition_from_order(nb, order)


def _decomposition_from_order(nb: List[int], order: List[int]) -> TreeDecomposition:
    """Tree decomposition from an elimination order (classic fill-in bags)."""
    n = len(order)
    position = {v: i for i, v in enumerate(order)}
    bags: List[FrozenSet[int]] = []
    higher: List[List[int]] = []
    before = 0
    for v in order:
        later = _members(_eliminated_neighbours(nb, before, v))
        bags.append(frozenset([v] + later))
        higher.append(later)
        before |= 1 << v
    parent: List[Optional[int]] = [None] * n
    for i, v in enumerate(order):
        if higher[i]:
            parent[i] = position[min(higher[i], key=lambda w: position[w])]
    # Link any extra roots (disconnected graphs) into a single tree; bags are
    # disjoint across components so the axioms are unaffected.
    roots = [i for i, p in enumerate(parent) if p is None]
    for extra in roots[1:]:
        parent[extra] = roots[0]
    return TreeDecomposition(bags, parent)


# -- pathwidth --------------------------------------------------------------------


def pathwidth_exact(f: BipartiteMultigraph) -> Tuple[int, PathDecomposition]:
    """Exact pathwidth with a certificate, via the DP over layout prefixes.

    The cost of a layout is the maximum boundary over proper non-empty
    prefixes (the full prefix corresponds to no bag of its own), which equals
    the pathwidth of the corresponding bag sequence.
    """
    n = f.num_vertices()
    check_cap("width_vertices", n, "pathwidth solver vertex count")
    if n == 0:
        return -1, PathDecomposition([frozenset()])
    nb = _neighbourhood_unions(f.adjacency())
    full = (1 << n) - 1

    def boundary(mask: int, v: int) -> int:
        # Prefix mask+v: its vertices with a neighbour outside it.  The full
        # prefix has no bag of its own and costs nothing.
        new = mask | 1 << v
        return (new & nb[full ^ new]).bit_count() if new != full else 0

    width, order = _subset_dp(n, 0, boundary)
    # Bag i holds order[i] and the placed vertices with a neighbour among
    # order[i:].
    bags: List[FrozenSet[int]] = []
    placed = 0
    for v in order:
        bags.append(frozenset([v] + _members(placed & nb[full ^ placed])))
        placed |= 1 << v
    return width, PathDecomposition(bags)


# -- treedepth --------------------------------------------------------------------


def treedepth_exact(f: BipartiteMultigraph) -> Tuple[int, EliminationForest]:
    """Exact treedepth with an elimination forest: `_treedepth` fills a memo
    on vertex masks, and `_forest` builds the forest from it once."""
    n = f.num_vertices()
    check_cap("width_vertices", n, "treedepth solver vertex count")
    memo: Dict[int, Tuple[int, object]] = {0: (0, ())}
    height = _treedepth(_neighbourhood_unions(f.adjacency()), memo, (1 << n) - 1)
    parent: Dict[int, Optional[int]] = {}
    _forest(memo, (1 << n) - 1, None, parent)
    return height, EliminationForest(parent)


def _treedepth(nb: List[int], memo: Dict[int, Tuple[int, object]], mask: int) -> int:
    """td of the graph `mask` induces: the maximum over its components (the
    tw step's closure over `nb`), and for a connected one 1 + td(S - v) for
    the first v in increasing order reaching the minimum.  The search stops
    at a lower bound, 1 or the largest td(S - v) met, as deleting a vertex
    never raises treedepth.  `memo` keeps a height and a root or the
    components per mask."""
    if mask in memo:
        return memo[mask][0]
    comps, rest = [], mask
    while rest:
        comp, grown = 0, rest & -rest
        while grown != comp:
            comp, grown = grown, grown | nb[grown] & rest
        comps.append(comp)
        rest ^= comp
    if len(comps) > 1:
        memo[mask] = (max(_treedepth(nb, memo, comp) for comp in comps), comps)
        return memo[mask][0]
    best, root, floor, rest = mask.bit_count() + 1, 0, 1, mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        height = _treedepth(nb, memo, mask ^ bit) + 1
        floor = max(floor, height - 1)
        if height < best:
            best, root = height, bit.bit_length() - 1
        if best == floor:
            break
    memo[mask] = (best, root)
    return best


def _forest(memo: Dict, mask: int, above: Optional[int], parent: Dict[int, Optional[int]]):
    """Enter the memo's forest on `mask` into `parent`, its roots below `above`."""
    how = memo[mask][1]
    if isinstance(how, int):
        _forest(memo, mask ^ 1 << how, how, parent)
        parent[how] = above
    else:
        for comp in how:
            _forest(memo, comp, above, parent)
