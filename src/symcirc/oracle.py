"""Exact brute-force reference semantics for homomorphism polynomials.

Everything here enumerates maps directly from the definitions, in row-major
order over the pattern's vertices, and sums exactly over the rationals: these
are the oracles every compiled circuit and every reduction identity is checked
against, so no dynamic programming or clever counting is allowed.

The evaluators share one kernel, `_weighted_sum`, which walks an iterable of
maps and adds up the product of the edge weights under each map.  Each
evaluator only says which maps to walk: `hom_count` all maps (a product of
ranges), `emb_eval` the per-side injective ones (permutations), and
`coloured_hom_eval` those respecting the colouring ((colour, index) keys).
The kernel still visits every map, so the oracles stay definitional.

It sums over the integers.  Every value here is homogeneous of degree
d = sum of the edge multiplicities in the host weights: each map contributes
one product with exactly d weight factors.  So with D the lcm of the
weights' denominators, the value at the host w equals the value at the
integer host D w divided by D ** d.  The kernel evaluates at D w and divides
once.  This rescales the input and leaves the enumeration alone: it is still
one product per map, not clever counting.

Hosts come in two forms:

  * WeightedHost: an (n, m) matrix of rational weights, the evaluation point
    for hom_{F,n,m} (rows are left images, columns right images);
  * ColouredGraph: a square symmetric weighting over pairs (colour, index),
    the evaluation point for colourful and coloured homomorphism polynomials.
    Class sizes may differ per colour; missing entries mean weight zero.

Weights are ints and Fractions; an evaluator that reads any other weight
raises InvalidParameter.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BasisNotFound,
    InvalidParameter,
    ParseError,
    SizeCap,
    check_cap,
)
from .exactnum import (Rational, SparsePolynomial, common_denominator, exact_det,
                       int_from_json, rational_from_json, rational_to_json, rows_from_json)
from .circuit import colour_var_name, var_name
from .pattern import BipartiteMultigraph, are_isomorphic, contract

PARTITION_SIDE_CAP = 6  # largest side `hom_to_emb_terms` partitions
BASIS_ATTEMPTS = 200  # random point sets `find_hom_basis` tries before giving up


def _colour_key(text):
    """Colour ids serialize as strings; integer-looking ones parse back to int."""
    if isinstance(text, int):
        return text
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


class WeightedHost:
    """An (n, m) rational weight matrix; entries default to zero."""

    __slots__ = ("n", "m", "weights")

    def __init__(self, n: int, m: int, weights: Mapping[Tuple[int, int], Rational] | None = None):
        if n < 0 or m < 0:
            raise InvalidParameter("host dimensions must be non-negative")
        self.n = n
        self.m = m
        self.weights: Dict[Tuple[int, int], Rational] = {}
        for (i, j), w in (weights or {}).items():
            if not (0 <= i < n and 0 <= j < m):
                raise InvalidParameter(f"host entry ({i},{j}) out of range")
            if w != 0:
                self.weights[(i, j)] = w

    @staticmethod
    def all_ones(n: int, m: int) -> "WeightedHost":
        return WeightedHost(n, m, {(i, j): Fraction(1) for i in range(n) for j in range(m)})

    @staticmethod
    def from_assignment(n: int, m: int, assignment: Mapping[str, Rational]) -> "WeightedHost":
        """Host from an x_<i>_<j> variable assignment (1-based names)."""
        weights = {}
        for i in range(n):
            for j in range(m):
                name = var_name(i + 1, j + 1)
                if name in assignment:
                    weights[(i, j)] = assignment[name]
        return WeightedHost(n, m, weights)

    def to_assignment(self) -> Dict[str, Rational]:
        """Total x_<i>_<j> assignment (zeros included)."""
        return {
            var_name(i + 1, j + 1): self.weights.get((i, j), Fraction(0))
            for i in range(self.n) for j in range(self.m)
        }

    def get(self, i: int, j: int):
        return self.weights.get((i, j), Fraction(0))

    def scale(self, t) -> "WeightedHost":
        return WeightedHost(self.n, self.m, {k: t * w for k, w in self.weights.items()})

    def shift_all(self, c) -> "WeightedHost":
        """Add c to every entry (including stored zeros)."""
        return WeightedHost(self.n, self.m, {
            (i, j): self.get(i, j) + c for i in range(self.n) for j in range(self.m)
        })

    @staticmethod
    def from_json(data: dict) -> "WeightedHost":
        """Rows [i, j, w] are 1-based; an entry given twice is a ParseError."""
        try:
            weights = {}
            for i, j, w in rows_from_json(data.get("weights", []), "weight row"):
                key = (int_from_json(i) - 1, int_from_json(j) - 1)
                if key in weights:
                    raise ParseError(f"host entry ({i}, {j}) is given twice")
                weights[key] = rational_from_json(w)
            return WeightedHost(int_from_json(data["n"]), int_from_json(data["m"]), weights)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed host JSON: {exc}") from exc

    @staticmethod
    def random(n: int, m: int, rng: random.Random, lo: int = -4, hi: int = 4,
               den: int = 3) -> "WeightedHost":
        return WeightedHost(n, m, {
            (i, j): Fraction(rng.randint(lo, hi), rng.randint(1, den))
            for i in range(n) for j in range(m)
        })


class ColouredGraph:
    """Edge-weighted graph whose vertices are (colour, index) pairs.

    Weights are stored symmetrically (both key orders), so the graph is
    undirected; lookups during evaluation put the pattern's A-side endpoint
    first, which is then immaterial.  `sizes[c]` is the number of vertices in
    colour class c; indices are 0-based internally.
    """

    __slots__ = ("colours", "sizes", "weights")

    def __init__(self, sizes: Mapping[Hashable, int]):
        self.colours = sorted(sizes, key=repr)
        self.sizes: Dict[Hashable, int] = dict(sizes)
        for c, s in self.sizes.items():
            if s < 0:
                raise InvalidParameter(f"negative class size for colour {c!r}")
        self.weights: Dict[Tuple[Tuple[Hashable, int], Tuple[Hashable, int]], object] = {}

    def _check(self, key: Tuple[Hashable, int]):
        c, i = key
        if c not in self.sizes or not 0 <= i < self.sizes[c]:
            raise InvalidParameter(f"vertex {key!r} not in the coloured graph")

    def set_weight(self, u: Tuple[Hashable, int], v: Tuple[Hashable, int], w):
        self._check(u)
        self._check(v)
        if w == 0:
            self.weights.pop((u, v), None)
            self.weights.pop((v, u), None)
        else:
            self.weights[(u, v)] = w
            self.weights[(v, u)] = w

    def get(self, u, v):
        return self.weights.get((u, v), Fraction(0))

    def scale(self, t) -> "ColouredGraph":
        g = ColouredGraph(self.sizes)
        g.weights = {k: t * w for k, w in self.weights.items()}
        return g

    def pad_to(self, size: int) -> "ColouredGraph":
        """Grow every class to `size` by adding isolated vertices."""
        if any(s > size for s in self.sizes.values()):
            raise InvalidParameter("pad_to cannot shrink classes")
        g = ColouredGraph({c: size for c in self.colours})
        g.weights = dict(self.weights)
        return g

    def flatten(self) -> WeightedHost:
        """The square matrix over the flattened vertex order (rows = columns)."""
        return self.flatten_bipartite(self.colours, self.colours)

    def flatten_bipartite(self, a_colours: Sequence[Hashable],
                          b_colours: Sequence[Hashable]) -> WeightedHost:
        """An (n, m) host with rows drawn from the a-colour classes and
        columns from the b-colour classes (0/1 gadgets become bi-adjacency
        matrices)."""
        rows = [(c, i) for c in a_colours for i in range(self.sizes[c])]
        cols = [(c, i) for c in b_colours for i in range(self.sizes[c])]
        row_index = {v: k for k, v in enumerate(rows)}
        col_index = {v: k for k, v in enumerate(cols)}
        weights = {}
        for (u, v), w in self.weights.items():
            if u in row_index and v in col_index:
                weights[(row_index[u], col_index[v])] = w
        return WeightedHost(len(rows), len(cols), weights)

    def to_assignment(self) -> Dict[str, object]:
        """Colourful-variable assignment x_<c>_<i>__<c'>_<j> (A-key order kept
        for both orientations since weights are symmetric)."""
        out = {}
        for (u, v), w in self.weights.items():
            out[colour_var_name(u[0], u[1] + 1, v[0], v[1] + 1)] = w
        return out

    @staticmethod
    def random(sizes: Mapping[Hashable, int], pairs: Iterable[Tuple[Hashable, Hashable]],
               rng: random.Random) -> "ColouredGraph":
        """Random rational weights a/b, -4 <= a <= 4 and 1 <= b <= 3, on all
        member pairs of the given colour pairs."""
        g = ColouredGraph(sizes)
        for (c, c2) in pairs:
            for i in range(g.sizes[c]):
                for j in range(g.sizes[c2]):
                    g.set_weight((c, i), (c2, j), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return g

    def to_json(self) -> dict:
        entries = []
        for ((c, i), (c2, j)), w in sorted(self.weights.items(), key=repr):
            if (repr(c), i) <= (repr(c2), j):
                entries.append([c, i + 1, c2, j + 1, rational_to_json(w)])
        return {"sizes": {str(c): s for c, s in sorted(self.sizes.items(), key=repr)},
                "weights": entries}

    @staticmethod
    def from_json(data: dict) -> "ColouredGraph":
        """Rows [c, i, c2, j, w] are 1-based; a pair given twice, in either
        orientation, is a ParseError."""
        try:
            sizes = {_colour_key(c): int_from_json(s) for c, s in data["sizes"].items()}
            g = ColouredGraph(sizes)
            seen = set()
            for c, i, c2, j, w in rows_from_json(data.get("weights", []), "weight row"):
                u = (_colour_key(c), int_from_json(i) - 1)
                v = (_colour_key(c2), int_from_json(j) - 1)
                if (u, v) in seen:
                    raise ParseError(f"weight of ({c}, {i}) and ({c2}, {j}) is given twice")
                seen.update(((u, v), (v, u)))
                g.set_weight(u, v, rational_from_json(w))
            return g
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed coloured graph JSON: {exc}") from exc


# -- homomorphism counting ---------------------------------------------------------


def _check_cap(count: int):
    check_cap("brute_force_maps", count, "brute-force map count")


def _weighted_sum(edges: Sequence[Tuple[int, int, int]], weight, domains: Sequence[Sequence],
                  maps: Optional[Iterable[Sequence[int]]] = None):
    """Sum over maps of the product of weight(image[u], image[v]) ** mult over
    the edges (u, v, mult): the loop shared by every evaluator here.

    `domains[v]` lists the keys vertex v may map to, and a map is a tuple of
    indices into the domains; `maps` defaults to all of them, in row-major
    order.  Each edge reads a dense table of its weights, already raised to
    the edge's multiplicity: the integers (D w) ** mult, with D the lcm of
    the weights' denominators.  The sum is taken over the integers and
    divided by D ** (sum of multiplicities) once, into one Fraction.
    """
    tables = [[[weight(a, b) for b in domains[v]] for a in domains[u]] for (u, v, _) in edges]
    den = common_denominator(w for table in tables for row in table for w in row)
    plan = [(u, v, [[(w.numerator * (den // w.denominator)) ** mult for w in row] for row in table])
            for (u, v, mult), table in zip(edges, tables)]
    if maps is None:
        maps = itertools.product(*(range(len(d)) for d in domains))
    total = 0
    for image in maps:
        term = 1
        for u, v, table in plan:
            w = table[image[u]][image[v]]
            if w == 0:
                break
            term *= w
        else:
            total += term
    return Fraction(total, den ** sum(mult for _, _, mult in edges))


def hom_count(f: BipartiteMultigraph, host: WeightedHost):
    """Sum over all maps h of the product of host weights along F's edges."""
    _check_cap(host.n ** f.a_count * host.m ** f.b_count)
    domains = [range(host.n)] * f.a_count + [range(host.m)] * f.b_count
    return _weighted_sum(f.edge_list_global(), host.get, domains)


def _map_polynomial(edges: Sequence[Tuple[int, int, int]], sizes: Sequence[int],
                    variables: Sequence[str], names: Sequence[List[List[str]]]) -> SparsePolynomial:
    """Sum over all maps, in row-major order, of the monomial raising each
    edge's variable to the edge's multiplicity: the loop of `hom_poly` and
    `colhom_poly`.  Vertex v maps into range(sizes[v]), and names[k][a][b]
    is the variable of edges[k] = (u, v, mult) under u -> a, v -> b; its
    position in `variables` is looked up once, before the loop."""
    pos = {name: k for k, name in enumerate(variables)}
    plan = [(u, v, mult, [[pos[name] for name in row] for row in table])
            for (u, v, mult), table in zip(edges, names)]
    zero_exp = [0] * len(variables)
    terms: Dict[Tuple[int, ...], int] = {}
    for image in itertools.product(*map(range, sizes)):
        exp = list(zero_exp)
        for u, v, mult, table in plan:
            exp[table[image[u]][image[v]]] += mult
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
    return SparsePolynomial(variables, terms)


def hom_poly(f: BipartiteMultigraph, n: int, m: int) -> SparsePolynomial:
    """hom_{F,n,m} expanded over all n*m x_<i>_<j> variables, even when F has no edge."""
    _check_cap(n ** f.a_count * m ** f.b_count)
    grid = [[var_name(i, j) for j in range(1, m + 1)] for i in range(1, n + 1)]
    edges = f.edge_list_global()
    return _map_polynomial(edges, [n] * f.a_count + [m] * f.b_count,
                           sorted(name for row in grid for name in row), [grid] * len(edges))


def coloured_hom_eval(f: BipartiteMultigraph, colouring: Mapping[int, Hashable],
                      g: ColouredGraph):
    """Coloured homomorphism value: every vertex maps into its colour's class.

    With `colouring` the identity on V(F) this is the colourful homomorphism
    polynomial evaluated at g.  Class sizes are g's actual sizes.
    """
    sizes = []
    for v in f.vertices():
        c = colouring[v]
        if c not in g.sizes:
            raise InvalidParameter(f"colour {c!r} missing from the host")
        sizes.append(g.sizes[c])
    count = 1
    for s in sizes:
        count *= max(s, 1)
        _check_cap(count)
    domains = [[(colouring[v], i) for i in range(s)] for v, s in zip(f.vertices(), sizes)]
    return _weighted_sum(f.edge_list_global(), g.get, domains)


def identity_colouring(f: BipartiteMultigraph) -> Dict[int, int]:
    """The identity colouring; colours are 1-based vertex ids externally."""
    return {v: v + 1 for v in f.vertices()}


def colhom_eval(f: BipartiteMultigraph, g: ColouredGraph):
    """Colourful homomorphism value (colouring = identity, 1-based colours)."""
    return coloured_hom_eval(f, identity_colouring(f), g)


def colhom_poly(f: BipartiteMultigraph, n: int) -> SparsePolynomial:
    """colhom_{F,n} expanded over colourful variables (colours = global ids,
    1-based in names, A-side endpoint first)."""
    _check_cap(n ** f.num_vertices())
    edges = f.edge_list_global()
    names = [[[colour_var_name(u + 1, a + 1, v + 1, b + 1) for b in range(n)] for a in range(n)]
             for (u, v, _) in edges]
    variables = sorted({name for table in names for row in table for name in row})
    return _map_polynomial(edges, [n] * f.num_vertices(), variables, names)


def emb_eval(f: BipartiteMultigraph, host: WeightedHost):
    """Embedding value: the hom sum restricted to per-side injective maps."""
    if f.a_count > host.n or f.b_count > host.m:
        return Fraction(0)
    count = 1
    for k in range(f.a_count):
        count *= host.n - k
    for k in range(f.b_count):
        count *= host.m - k
    _check_cap(count)
    maps = (a_img + b_img
            for a_img in itertools.permutations(range(host.n), f.a_count)
            for b_img in itertools.permutations(range(host.m), f.b_count))
    domains = [range(host.n)] * f.a_count + [range(host.m)] * f.b_count
    return _weighted_sum(f.edge_list_global(), host.get, domains, maps)


# -- hom-to-emb expansion -------------------------------------------------------------


def _set_partitions(items: Sequence[int]):
    """All set partitions, blocks and block lists sorted for determinism."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [sorted([first] + sub[k])] + sub[k + 1:]
        yield [[first]] + sub


def hom_to_emb_terms(f: BipartiteMultigraph) -> List[BipartiteMultigraph]:
    """The quotients F/(pi, sigma) over all per-side partition pairs.

    hom_{F,n,m} equals the sum of emb over these terms; created parallel edges
    accumulate into multiplicities, which is the reading under which the
    identity holds at weighted hosts.
    """
    if f.a_count > PARTITION_SIDE_CAP or f.b_count > PARTITION_SIDE_CAP:
        raise SizeCap(f"partition enumeration capped at side size {PARTITION_SIDE_CAP}")
    out = []
    for pa in _set_partitions(list(range(f.a_count))):
        for pb in _set_partitions(list(range(f.a_count, f.num_vertices()))):
            pairs = [(block[0], v) for block in pa + pb for v in block[1:]]
            out.append(contract(f, pairs))
    return out


# -- interpolation bases ---------------------------------------------------------------


class HomBasisCertificate:
    """Evaluation points making (hom_{F_i,N,N}(x_j))_{i,j} invertible."""

    def __init__(self, patterns: Sequence[BipartiteMultigraph], points: Sequence[WeightedHost],
                 matrix: Sequence[Sequence[Rational]]):
        self.patterns = list(patterns)
        self.points = list(points)
        self.matrix = [list(row) for row in matrix]


def find_hom_basis(patterns: Sequence[BipartiteMultigraph], big_n: int,
                   seed: int) -> HomBasisCertificate:
    """Random small-integer points until the hom evaluation matrix inverts.

    Entries are drawn from {0..3} at first and the range widens every 50
    failures; determinants are computed exactly.
    """
    for idx, p in enumerate(patterns):
        if p.isolated_vertices():
            raise InvalidParameter(f"pattern {idx} has isolated vertices")
        if p.a_count > big_n or p.b_count > big_n:
            raise InvalidParameter(f"pattern {idx} larger than ({big_n},{big_n})")
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            if are_isomorphic(patterns[i], patterns[j]):
                raise InvalidParameter(f"patterns {i} and {j} are isomorphic")
    rng = random.Random(seed)
    r = len(patterns)
    for attempt in range(BASIS_ATTEMPTS):
        hi = 3 + attempt // 50
        points = [
            WeightedHost(big_n, big_n, {
                (i, j): Fraction(rng.randint(0, hi))
                for i in range(big_n) for j in range(big_n)
            })
            for _ in range(r)
        ]
        matrix = [[hom_count(p, x) for x in points] for p in patterns]
        if exact_det(matrix) != 0:
            return HomBasisCertificate(patterns, points, matrix)
    raise BasisNotFound(f"no invertible hom matrix after {BASIS_ATTEMPTS} attempts")


# -- indistinguishability ---------------------------------------------------------------


def hom_indistinguishable(g: WeightedHost, h: WeightedHost,
                          patterns: Sequence[BipartiteMultigraph]) -> bool:
    """True iff hom_count(F, g) == hom_count(F, h) for every listed pattern."""
    return all(hom_count(f, g) == hom_count(f, h) for f in patterns)
