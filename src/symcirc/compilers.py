"""Compilers from width certificates to symmetric circuits.

Three constructions, all taking an explicit decomposition certificate:

  * compile_formula_td: a rigid symmetric formula (with multiedges) from an
    elimination forest.  For each vertex u and each image assignment gamma of
    its ancestor path, a summation gate ranges over the image h of u; each
    summand multiplies the variables of u's edges into the path with the
    recursively built child subformulas, each child tagged by multiplying
    with 1^(position) so that structurally equal siblings cannot be permuted
    by an automorphism.

  * compile_circuit_tw: a symmetric circuit from a tree decomposition.  Per
    node and per labelling of its bag, a gate multiplies the edge variables
    charged to the node with one summation gate per child subtree that
    forgets the labels leaving the bag.  General shape; rigidified.

  * compile_skew_pw: the same bag-table dynamic program run over the path
    decomposition as a path-shaped tree (`deco.as_tree()`).  Every node has
    at most one child, so multiplication gates touch at most one internal
    child and the circuit is skew.  The result is rigidified.

Each edge is charged to exactly one decomposition node (the smallest-index
bag containing both endpoints), and every map of the pattern into the host
indices decomposes uniquely along the certificate, so the circuits evaluate
to the homomorphism polynomial.  Isolated vertices factor out as an explicit
constant n^(isolated left) * m^(isolated right).

`compile_colourful` runs the same dynamic programs over colour-indexed
variables, and `compile_lincomb` combines per-pattern circuits into a tagged
weighted sum.

The treedepth formula is rigid as built: its products' children are
distinct variables and subformulas tagged by distinct powers of 1, and the
summands of a sum fix different images h of a vertex with an edge, so they
differ in their least degree in row (or column) h.  `compile_lincomb` tags
its terms alike, so it is rigid too; both raise if `is_rigid` disagrees.  The
bag tables repeat equal forget gates across labellings, so they are built
unshared and rigidified: a formula has its siblings merged, any other circuit
is copied into a sharing `CircuitBuilder`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .circuit import (
    Circuit,
    CircuitBuilder,
    FORMULA_MULTI,
    GENERAL,
    SKEW,
    colour_var_name,
    var_name,
)
from .errors import (
    InvalidDecomposition,
    InvalidEliminationTree,
    InvalidParameter,
)
from .exactnum import Rational
from .pattern import BipartiteMultigraph, SIDE_A
from .symmetry import is_rigid, rigidify
from .width import (
    EliminationForest,
    PathDecomposition,
    TreeDecomposition,
    pathwidth_exact,
    treedepth_exact,
    treewidth_exact,
    validate_decomposition,
)


@dataclass
class CompileReport:
    """A compiled circuit with its shape and the bounds the construction claims."""

    circuit: Circuit
    shape: str
    claimed_bounds: Dict[str, Optional[int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "claimed_bounds": self.claimed_bounds,
            "circuit": self.circuit.to_json(),
        }


# -- variable conventions -----------------------------------------------------------


def _matrix_varmap(f: BipartiteMultigraph) -> Callable[[int, int, int, int], str]:
    def name(a_global: int, a_img: int, b_global: int, b_img: int) -> str:
        return var_name(a_img, b_img)
    return name


def _colour_varmap(f: BipartiteMultigraph, colouring: Mapping[int, Hashable]):
    def name(a_global: int, a_img: int, b_global: int, b_img: int) -> str:
        return colour_var_name(colouring[a_global], a_img, colouring[b_global], b_img)
    return name


def _matrix_ranges(f: BipartiteMultigraph, n: int, m: int) -> Callable[[int], int]:
    if n < 1 or m < 1:
        raise InvalidParameter("host sizes must be >= 1")

    def rng(v: int) -> int:
        return n if f.side(v) == SIDE_A else m
    return rng


# -- shared pieces --------------------------------------------------------------------


def _edge_factors(f: BipartiteMultigraph, builder: CircuitBuilder, varmap, images: Mapping[int, int],
                  edges: Sequence[Tuple[int, int, int]]) -> Dict[int, int]:
    """Accumulated (gate -> multiplicity) for edge variables under `images`."""
    factors: Dict[int, int] = {}
    for (a_g, b_g, mult) in edges:
        gid = builder.var(varmap(a_g, images[a_g], b_g, images[b_g]))
        factors[gid] = factors.get(gid, 0) + mult
    return factors


def _labellings(vertices: Sequence[int], ranges) -> List[Tuple[Tuple[int, int], ...]]:
    """All image assignments of `vertices`, 1-based, in lexicographic order."""
    vs = sorted(vertices)
    out = []
    for images in itertools.product(*[range(1, ranges(v) + 1) for v in vs]):
        out.append(tuple(zip(vs, images)))
    return out


def _isolated_factor(f: BipartiteMultigraph, n: int, m: int) -> Fraction:
    iso = f.isolated_vertices()
    a_iso = sum(1 for v in iso if f.side(v) == SIDE_A)
    return Fraction(n) ** a_iso * Fraction(m) ** (len(iso) - a_iso)


# -- treedepth formula compiler ----------------------------------------------------------


def compile_formula_td(f: BipartiteMultigraph, forest: EliminationForest,
                       n: int, m: int) -> CompileReport:
    """Rigid symmetric formula for hom_{F,n,m} from an elimination forest."""
    ok, reason = validate_decomposition(f, forest)
    if not ok:
        raise InvalidEliminationTree(reason)
    height = forest.height()
    circuit = _formula_from_forest(f, forest, _matrix_ranges(f, n, m), _matrix_varmap(f),
                                   _isolated_factor(f, n, m))
    if not is_rigid(circuit):
        raise InvalidParameter("treedepth compiler produced a non-rigid formula; this is a bug")
    ok, reason = circuit.validate(FORMULA_MULTI)
    if not ok:
        raise InvalidParameter(f"treedepth compiler produced a non-formula: {reason}")
    slots = f.num_edge_slots()
    size_bound = (f.num_vertices() * slots * (n + m)) ** height if slots else None
    return CompileReport(circuit, FORMULA_MULTI, {
        "size_bound": size_bound,
        "orbit_bound": (n + m) ** height,
        "support_bound": height,
    })


def _formula_from_forest(f: BipartiteMultigraph, forest: EliminationForest,
                         ranges, varmap, constant: Fraction) -> Circuit:
    builder = CircuitBuilder()
    const1 = builder.const(1)

    iso = set(f.isolated_vertices())
    parent: Dict[int, Optional[int]] = {}
    for v in forest.parent:
        if v in iso:
            continue
        p = forest.parent[v]
        while p is not None and p in iso:
            p = forest.parent[p]
        parent[v] = p
    core = EliminationForest(parent) if parent else None

    if core is None:
        return builder.finish(builder.const(constant))

    children = core.children()
    adj_edges: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in parent}
    for (i, j), mult in sorted(f.edges.items()):
        a_g, b_g = i, f.a_count + j
        # Charge the edge to its deeper endpoint; the other lies on the path.
        anc_b = set(core.path_to_root(a_g))
        if b_g in anc_b:
            adj_edges[a_g].append((a_g, b_g, mult))
        else:
            adj_edges[b_g].append((a_g, b_g, mult))

    def gate_for(u: int, gamma: Dict[int, int]) -> int:
        summands: List[Tuple[int, int]] = []
        kids = sorted(children[u])
        for h in range(1, ranges(u) + 1):
            images = dict(gamma)
            images[u] = h
            factors = _edge_factors(f, builder, varmap, images, adj_edges[u])
            parts = sorted(factors.items())
            for idx, v in enumerate(kids):
                sub = gate_for(v, images)
                parts.append((builder.times([(sub, 1), (const1, idx + 1)]), 1))
            if parts:
                summands.append((builder.times(parts), 1))
            else:
                summands.append((const1, 1))
        return builder.plus(summands)

    roots = core.roots()
    top: List[Tuple[int, int]] = []
    for idx, r in enumerate(roots):
        root_gate = gate_for(r, {})
        if len(roots) == 1 and constant == 1:
            return builder.finish(root_gate)
        top.append((builder.times([(root_gate, 1), (const1, idx + 1)]), 1))
    if constant != 1:
        top.append((builder.const(constant), 1))
    return builder.finish(builder.times(top))


# -- bag-table compilers (pathwidth skew, treewidth general) ---------------------------------


def compile_skew_pw(f: BipartiteMultigraph, deco: PathDecomposition,
                    n: int, m: int) -> CompileReport:
    """Symmetric rigid skew circuit for hom_{F,n,m} from a path decomposition."""
    circuit = _compile_bag_table(f, deco, n, m, SKEW)
    return CompileReport(circuit, SKEW, {
        "size_bound": None,
        "orbit_bound": (n + m) ** (deco.width() + 1),
        "support_bound": None,
    })


def compile_circuit_tw(f: BipartiteMultigraph, deco: TreeDecomposition,
                       n: int, m: int) -> CompileReport:
    """Symmetric circuit for hom_{F,n,m} from a tree decomposition."""
    circuit = _compile_bag_table(f, deco, n, m, GENERAL)
    return CompileReport(circuit, GENERAL, {
        "size_bound": None,
        "orbit_bound": None,
        "support_bound": None,
    })


def _compile_bag_table(f: BipartiteMultigraph, deco, n: int, m: int, shape: str) -> Circuit:
    """Validate `deco`, run the bag-table DP over it (a path as a path-shaped
    tree), rigidify, and check the promised shape."""
    ok, reason = validate_decomposition(f, deco)
    if not ok:
        raise InvalidDecomposition(reason)
    tree = deco.as_tree() if isinstance(deco, PathDecomposition) else deco
    raw = _general_from_tree(f, tree, _matrix_ranges(f, n, m), _matrix_varmap(f))
    circuit = rigidify(raw)
    ok, reason = circuit.validate(shape)
    if not ok:
        raise InvalidParameter(f"bag-table compiler produced a non-{shape} circuit: {reason}")
    return circuit


def _general_from_tree(f: BipartiteMultigraph, deco: TreeDecomposition, ranges, varmap) -> Circuit:
    builder = CircuitBuilder()
    const1 = builder.const(1)
    children = deco.children()
    # Charge each edge to its smallest-index covering node.
    assignment: Dict[int, List[Tuple[int, int, int]]] = {i: [] for i in range(len(deco.bags))}
    for (i, j), mult in sorted(f.edges.items()):
        a_g, b_g = i, f.a_count + j
        idx = next(k for k, bag in enumerate(deco.bags) if a_g in bag and b_g in bag)
        assignment[idx].append((a_g, b_g, mult))

    def table_for(t: int) -> Dict:
        bag = deco.bags[t]
        child_groups = []
        for ch in sorted(children[t]):
            sub = table_for(ch)
            groups: Dict = {}
            for phi, gid in sub.items():
                key = tuple((v, img) for v, img in phi if v in bag)
                groups.setdefault(key, []).append(gid)
            child_groups.append((deco.bags[ch], groups))
        table: Dict = {}
        for phi in _labellings(sorted(bag), ranges):
            images = dict(phi)
            factors = _edge_factors(f, builder, varmap, images, assignment[t])
            parts = sorted(factors.items())
            for child_bag, groups in child_groups:
                key = tuple((v, img) for v, img in phi if v in child_bag)
                forget = builder.plus([(g, 1) for g in groups[key]])
                parts.append((forget, 1))
            if parts:
                if len(parts) == 1 and parts[0][1] == 1:
                    table[phi] = parts[0][0]
                else:
                    table[phi] = builder.times(parts)
            else:
                table[phi] = const1
        return table

    root_table = table_for(deco.root)
    output = builder.plus([(gid, 1) for _, gid in sorted(root_table.items())])
    return builder.finish(output)


# -- linear combinations ------------------------------------------------------------------------


def compile_single(f: BipartiteMultigraph, n: int, m: int, shape: str) -> CompileReport:
    """Compile hom_{F,n,m} at the given shape, computing the decomposition
    exactly (SizeCap past the `width_vertices` cap, see `errors.CAPS`)."""
    if shape == "td":
        _, forest = treedepth_exact(f)
        return compile_formula_td(f, forest, n, m)
    if shape == "pw":
        _, deco = pathwidth_exact(f)
        return compile_skew_pw(f, deco, n, m)
    if shape == "tw":
        _, deco = treewidth_exact(f)
        return compile_circuit_tw(f, deco, n, m)
    raise InvalidParameter(f"unknown compile shape {shape!r}")


def compile_lincomb(terms: Sequence[Tuple[Rational, BipartiteMultigraph]],
                    n: int, m: int, shape: str) -> CompileReport:
    """Weighted sum of per-pattern circuits with distinguishing 1^tag factors."""
    if not terms:
        raise InvalidParameter("linear combinations need at least one term")
    reports = [compile_single(f, n, m, shape) for _, f in terms]
    builder = CircuitBuilder()
    const1 = builder.const(1)
    tagged: List[Tuple[int, int]] = []
    for idx, ((alpha, _), report) in enumerate(zip(terms, reports)):
        root = builder.copy(report.circuit)
        parts = [(root, 1), (const1, idx + 1)]
        if Fraction(alpha) != 1:
            parts.append((builder.const(alpha), 1))
        tagged.append((builder.times(parts), 1))
    circuit = builder.finish(builder.plus(tagged))
    if not is_rigid(circuit):
        raise InvalidParameter("lincomb compiler produced a non-rigid circuit; this is a bug")
    result_shape = {"td": FORMULA_MULTI, "pw": SKEW, "tw": GENERAL}[shape]
    ok, reason = circuit.validate(result_shape)
    if not ok:
        raise InvalidParameter(f"lincomb compiler broke shape {result_shape}: {reason}")
    orbit_bounds = [r.claimed_bounds.get("orbit_bound") for r in reports]
    orbit = max((b for b in orbit_bounds if b is not None), default=None)
    return CompileReport(circuit, result_shape, {
        "size_bound": None,
        "orbit_bound": orbit,
        "support_bound": None,
    })


# -- colourful variants -------------------------------------------------------------------------


def compile_colourful(f: BipartiteMultigraph, colouring: Mapping[int, Hashable],
                      n: int, shape: str) -> CompileReport:
    """Circuit for the coloured homomorphism polynomial colhom_{F,c,n}.

    Same dynamic programs over colour-indexed variables; every vertex ranges
    over [n].  With `colouring` the identity this computes the colourful
    homomorphism polynomial.
    """
    if n < 1:
        raise InvalidParameter("host sizes must be >= 1")
    for v in f.vertices():
        if v not in colouring:
            raise InvalidParameter(f"colouring misses vertex {v}")
    ranges = lambda v: n
    varmap = _colour_varmap(f, colouring)
    if shape == "td":
        # Rigid as built, by the argument in the module docstring.
        _, forest = treedepth_exact(f)
        circuit = _formula_from_forest(f, forest, ranges, varmap,
                                       Fraction(n) ** len(f.isolated_vertices()))
        result_shape = FORMULA_MULTI
    elif shape == "pw":
        _, deco = pathwidth_exact(f)
        circuit = _general_from_tree(f, deco.as_tree(), ranges, varmap)
        result_shape = SKEW
    elif shape == "tw":
        _, deco = treewidth_exact(f)
        circuit = _general_from_tree(f, deco, ranges, varmap)
        result_shape = GENERAL
    else:
        raise InvalidParameter(f"unknown compile shape {shape!r}")
    ok, reason = circuit.validate(result_shape)
    if not ok:
        raise InvalidParameter(f"colourful compiler broke shape {result_shape}: {reason}")
    return CompileReport(circuit, result_shape, {
        "size_bound": None,
        "orbit_bound": None,
        "support_bound": None,
    })
