"""Compilers from width certificates to symmetric circuits.

`compile_certificate(f, cert, n, m)` compiles hom_{F,n,m} from any valid
certificate.  The certificate's type decides the construction, the circuit
shape and the bounds the construction claims, matching each class to its
width measure (symVF: treedepth and formulas, symVBP: pathwidth and skew
circuits, symVP: treewidth and general circuits):

  * an EliminationForest gives a rigid symmetric formula (with multiedges).
    For each vertex u and each image assignment gamma of its ancestor path,
    a summation gate ranges over the image h of u; each summand multiplies
    the variables of u's edges into the path with the recursively built
    child subformulas, each child tagged by multiplying with 1^(position) so
    that structurally equal siblings cannot be permuted by an automorphism.
    Claimed bounds: size, orbit size and support size.

  * a TreeDecomposition gives a general circuit by the bag-table dynamic
    program.  Per node and per labelling of its bag, a gate multiplies the
    edge variables charged to the node with one summation gate per child
    subtree that forgets the labels leaving the bag.  No bound is claimed.

  * a PathDecomposition runs the same bag-table program over the path as a
    path-shaped tree (`deco.as_tree()`).  Every node has at most one child,
    so multiplication gates touch at most one internal child and the circuit
    is skew.  Claimed bound: orbit size.

Each edge is charged to exactly one decomposition node (the smallest-index
bag containing both endpoints), and every map of the pattern into the host
indices decomposes uniquely along the certificate, so the circuits evaluate
to the homomorphism polynomial.  In the formula, isolated vertices factor
out as an explicit constant, the product of their ranges
(n^(isolated left) * m^(isolated right)).

`compile_single` compiles from the exact certificate of the measure that
its shape names ("td", "pw" or "tw").  `compile_colourful` runs the same
constructions over colour-indexed variables, and `compile_lincomb` combines
per-pattern circuits into a tagged weighted sum.

The formula is rigid as built: its products' children are distinct
variables and subformulas tagged by distinct powers of 1, and the summands
of a sum fix different images h of a vertex with an edge, so they differ in
their least degree in row (or column) h.  `compile_lincomb` tags its terms
alike, so it is rigid too.  The bag tables are built into a sharing
`CircuitBuilder`, children first, so each gate is keyed by its label and
merged children.  No two gates then share a signature, so the tables are
rigid as built and no table is rigidified.  `compile_certificate` and
`compile_lincomb` raise if `is_rigid` disagrees.

A bag's labellings are image tuples over its sorted vertices, enumerated in
lexicographic order, and a bag's table is the list of its gates in that
order, so no table keeps a labelling.  Each labelling costs dict lookups: a
child's gates are grouped, by zipping its labellings (enumerated again) with
its list, and a parent labelling projected, through the precomputed
positions of the vertices the two bags share; the forget gate of each
(child, projection) is built by one `plus` call when a labelling first needs
it; the variable gate of each (edge, image pair) is interned once per
compile (the formula uses the same table); and a product's wires are merged
in one dict and interned through `CircuitBuilder.intern`.  Every gate is
created at its first use, as a construction calling the builder for every
labelling would create it, so the gate ids are the same.  Both recursions,
over the forest and over the tree, are module-level generators that
`_run_nested` runs, so a compile leaves no reference cycle and its builder
and tables are freed when it returns.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .circuit import (
    Circuit,
    CircuitBuilder,
    FORMULA_MULTI,
    GENERAL,
    SKEW,
    TIMES,
    _run_nested,
    colour_var_name,
    var_name,
)
from .errors import (
    InvalidDecomposition,
    InvalidEliminationTree,
    InvalidParameter,
    check_cap,
)
from .exactnum import Rational, common_denominator
from .pattern import BipartiteMultigraph, SIDE_A
from .symmetry import is_rigid
# Not called here: perfbench/test_perfbench.py wraps `compilers.rigidify`.
from .symmetry import rigidify  # noqa: F401
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


def _matrix_varmap(a_global: int, a_img: int, b_global: int, b_img: int) -> str:
    return var_name(a_img, b_img)


def _colour_varmap(colouring: Mapping[int, Hashable]) -> Callable[[int, int, int, int], str]:
    def name(a_global: int, a_img: int, b_global: int, b_img: int) -> str:
        return colour_var_name(colouring[a_global], a_img, colouring[b_global], b_img)
    return name


def _matrix_ranges(f: BipartiteMultigraph, n: int, m: int) -> Callable[[int], int]:
    if n < 1 or m < 1:
        raise InvalidParameter("host sizes must be >= 1")

    def rng(v: int) -> int:
        return n if f.side(v) == SIDE_A else m
    return rng


# -- the certificate compiler -----------------------------------------------------------


def compile_certificate(f: BipartiteMultigraph, cert, n: int, m: int) -> CompileReport:
    """Symmetric circuit for hom_{F,n,m} from a width certificate: a rigid
    formula from an EliminationForest, a rigid skew circuit from a
    PathDecomposition, a rigid general circuit from a TreeDecomposition.
    A certificate that is not valid for F raises InvalidEliminationTree
    (a forest) or InvalidDecomposition (bags)."""
    ok, reason = validate_decomposition(f, cert)
    if not ok and isinstance(cert, EliminationForest):
        raise InvalidEliminationTree(reason)
    if not ok:
        raise InvalidDecomposition(reason)
    circuit, shape = _construct(f, cert, _matrix_ranges(f, n, m), _matrix_varmap)
    bounds: Dict[str, Optional[int]] = dict.fromkeys(("size_bound", "orbit_bound", "support_bound"))
    if not is_rigid(circuit):
        raise InvalidParameter(f"certificate compiler produced a non-rigid {shape} circuit; "
                               "this is a bug")
    if shape == FORMULA_MULTI:
        height, slots = cert.height(), f.num_edge_slots()
        bounds.update(size_bound=(f.num_vertices() * slots * (n + m)) ** height if slots else None,
                      orbit_bound=(n + m) ** height, support_bound=height)
    elif shape == SKEW:
        bounds["orbit_bound"] = (n + m) ** (cert.width() + 1)
    ok, reason = circuit.validate(shape)
    if not ok:
        raise InvalidParameter(f"certificate compiler produced a non-{shape} circuit: {reason}")
    return CompileReport(circuit, shape, bounds)


def _construct(f: BipartiteMultigraph, cert, ranges, varmap) -> Tuple[Circuit, str]:
    """The circuit the certificate's construction builds and the shape it has;
    SizeCap first, before any gate is built, if the construction's gate
    bound (`_gate_bound`) exceeds the `circuit_gates` cap."""
    check_cap("circuit_gates", _gate_bound(f, cert, ranges), "circuit gate bound")
    if isinstance(cert, EliminationForest):
        return _formula_from_forest(f, cert, ranges, varmap), FORMULA_MULTI
    if isinstance(cert, PathDecomposition):
        return _general_from_tree(f, cert.as_tree(), ranges, varmap), SKEW
    return _general_from_tree(f, cert, ranges, varmap), GENERAL


def _gate_bound(f: BipartiteMultigraph, cert, ranges) -> int:
    """An upper bound on the gates the construction of `cert` builds, read
    off the certificate and the ranges alone.  Each edge (a, b) has at most
    ranges(a) * ranges(b) variable gates.  A bag of L labellings (the
    product of its vertices' ranges) adds at most L products and L forget
    gates towards its parent, and the output and the constant 1 add two.
    In the formula, a vertex u of the forest without the isolated vertices,
    with P labellings of its root path (the product of the ranges along
    it), adds at most P sums, P summands and P tags on u's summands in
    its parent, and the constants and the top product add three."""
    variables = sum(ranges(a) * ranges(b) for a, b, _ in f.edge_list_global())
    if not isinstance(cert, EliminationForest):
        return 2 * sum(math.prod(map(ranges, bag)) for bag in cert.bags) + variables + 2
    iso = set(f.isolated_vertices())
    children = cert.children()
    paths, stack = 0, [(r, 1) for r in cert.roots()]
    while stack:
        v, above = stack.pop()
        if v not in iso:
            above *= ranges(v)
            paths += above
        stack.extend((c, above) for c in children[v])
    return 3 * paths + variables + 3


def _exact_certificate(f: BipartiteMultigraph, shape: str):
    """(width, certificate) of the measure `shape` names, computed exactly
    (SizeCap past the `width_vertices` cap, see `errors.CAPS`).  Each solver
    is called through its module-level name, so wrappers installed on those
    names (such as a tracer's) see the call; a table of functions would not."""
    if shape == "td":
        return treedepth_exact(f)
    if shape == "pw":
        return pathwidth_exact(f)
    if shape == "tw":
        return treewidth_exact(f)
    raise InvalidParameter(f"unknown compile shape {shape!r}")


# -- constructions ----------------------------------------------------------------------


class _Memo(dict):
    """A dict that computes the value of a missing key once, as `make(key)`."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _edge_variables(builder: CircuitBuilder, varmap) -> _Memo:
    """The variable gate of each edge under each image pair, keyed by
    (a_global, a_img, b_global, b_img) and built on its first use."""
    return _Memo(lambda key: builder.var(varmap(*key)))


def _formula_from_forest(f: BipartiteMultigraph, forest: EliminationForest,
                         ranges, varmap) -> Circuit:
    builder = CircuitBuilder()
    const1 = builder.const(1)
    edge_vars = _edge_variables(builder, varmap)

    iso = set(f.isolated_vertices())
    constant = math.prod(ranges(v) for v in iso)
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
    for (a_g, b_g, mult) in f.edge_list_global():
        # Charge the edge to its deeper endpoint; the other lies on the path.
        adj_edges[a_g if b_g in core.path_to_root(a_g) else b_g].append((a_g, b_g, mult))

    plan = (builder, const1, edge_vars, children, adj_edges, ranges)

    roots = core.roots()
    top: List[Tuple[int, int]] = []
    for idx, r in enumerate(roots):
        root_gate = _run_nested(_forest_gate(plan, r, {}))
        if len(roots) == 1 and constant == 1:
            return builder.finish(root_gate)
        top.append((builder.times([(root_gate, 1), (const1, idx + 1)]), 1))
    if constant != 1:
        top.append((builder.const(constant), 1))
    return builder.finish(builder.times(top))


def _general_from_tree(f: BipartiteMultigraph, deco: TreeDecomposition, ranges, varmap) -> Circuit:
    bags = [sorted(bag) for bag in deco.bags]
    children = deco.children()
    # Charge each edge to its smallest-index covering node, as (a, position
    # of a in the bag, b, position of b, multiplicity).
    assignment: Dict[int, List[Tuple[int, int, int, int, int]]] = {i: [] for i in range(len(bags))}
    for (a_g, b_g, mult) in f.edge_list_global():
        idx = next(k for k, bag in enumerate(deco.bags) if a_g in bag and b_g in bag)
        assignment[idx].append((a_g, bags[idx].index(a_g), b_g, bags[idx].index(b_g), mult))
    builder = CircuitBuilder(share=True)
    # The constant 1 is the gate of every labelling of a node with no edge
    # and no child.  It is the first gate when some node needs it and is not
    # built otherwise, so every gate is reachable and `finish` renumbers none.
    const1 = builder.const(1) if any(not assignment[t] and not children[t]
                                     for t in range(len(bags))) else None
    edge_vars = _edge_variables(builder, varmap)
    plan = (builder, const1, edge_vars, children, bags, assignment, ranges)
    root_table = _run_nested(_bag_table(plan, deco.root))
    output = builder.plus([(gid, 1) for gid in root_table])
    return builder.finish(output)


def _forest_gate(plan: Tuple, u: int, gamma: Dict[int, int]):
    """The formula's summation gate of vertex u under the images `gamma` of
    its ancestors, as a `_run_nested` builder over the construction's data
    `plan`.  A plain generator function, not a closure: a recursive closure
    is a reference cycle, which would hold the builder until the next
    garbage collection."""
    builder, const1, edge_vars, children, adj_edges, ranges = plan
    summands: List[Tuple[int, int]] = []
    kids = sorted(children[u])
    for h in range(1, ranges(u) + 1):
        images = dict(gamma)
        images[u] = h
        factors: Dict[int, int] = {}
        for (a_g, b_g, mult) in adj_edges[u]:
            gid = edge_vars[a_g, images[a_g], b_g, images[b_g]]
            factors[gid] = factors.get(gid, 0) + mult
        parts = sorted(factors.items())
        for idx, v in enumerate(kids):
            sub = yield _forest_gate(plan, v, images)
            parts.append((builder.times([(sub, 1), (const1, idx + 1)]), 1))
        if parts:
            summands.append((builder.times(parts), 1))
        else:
            summands.append((const1, 1))
    return builder.plus(summands)


def _bag_table(plan: Tuple, t: int):
    """Node t's gate per labelling of its bag, a list in lexicographic
    order of the image tuples over the sorted bag, as a `_run_nested`
    builder over the construction's data `plan`; a plain generator
    function for the reason `_forest_gate` gives."""
    builder, const1, edge_vars, children, bags, assignment, ranges = plan
    bag = bags[t]
    kids = []
    for ch in sorted(children[t]):
        sub = yield _bag_table(plan, ch)
        shared = [v for v in bags[ch] if v in bag]
        project = _projection([bags[ch].index(v) for v in shared])
        groups: Dict = {}
        for images, gid in zip(_labellings(bags[ch], ranges), sub):
            groups.setdefault(project(images), []).append(gid)
        # The forget gate of each projection, built when a labelling first needs it.
        forgets = _Memo(lambda key, groups=groups: builder.plus([(g, 1) for g in groups[key]]))
        kids.append((_projection([bag.index(v) for v in shared]), forgets))
    edges = assignment[t]
    table: List[int] = []
    for images in _labellings(bag, ranges):
        wires: Dict[int, int] = {}
        for (a_g, a_pos, b_g, b_pos, mult) in edges:
            gid = edge_vars[a_g, images[a_pos], b_g, images[b_pos]]
            wires[gid] = wires.get(gid, 0) + mult
        for project, forgets in kids:
            gid = forgets[project(images)]
            wires[gid] = wires.get(gid, 0) + 1
        if not wires:
            table.append(const1)
        elif len(wires) == 1 and 1 in wires.values():
            table.append(next(iter(wires)))
        else:
            table.append(builder.intern(TIMES, wires))
    return table


def _labellings(bag: Sequence[int], ranges) -> Iterator[Tuple[int, ...]]:
    """The image tuples over the sorted `bag`, in lexicographic order."""
    return itertools.product(*[range(1, ranges(v) + 1) for v in bag])


def _projection(positions: Sequence[int]) -> Callable[[Tuple[int, ...]], Hashable]:
    """The function taking an image tuple to the key of its entries at
    `positions`: their tuple, or the entry itself at a single position."""
    return operator.itemgetter(*positions) if positions else lambda images: ()


# -- shape-driven entry points ------------------------------------------------------------------


def compile_single(f: BipartiteMultigraph, n: int, m: int, shape: str) -> CompileReport:
    """Compile hom_{F,n,m} at the given shape ("td", "pw" or "tw") from the
    exact certificate of that measure (SizeCap past the `width_vertices` cap,
    see `errors.CAPS`)."""
    return compile_certificate(f, _exact_certificate(f, shape)[1], n, m)


def compile_lincomb(terms: Sequence[Tuple[Rational, BipartiteMultigraph]],
                    n: int, m: int, shape: str) -> CompileReport:
    """Weighted sum of per-pattern circuits with distinguishing 1^tag factors."""
    if not terms:
        raise InvalidParameter("linear combinations need at least one term")
    common_denominator([alpha for alpha, _ in terms])  # InvalidParameter unless ints or Fractions
    reports = [compile_single(f, n, m, shape) for _, f in terms]
    builder = CircuitBuilder()
    const1 = builder.const(1)
    tagged: List[Tuple[int, int]] = []
    for idx, ((alpha, _), report) in enumerate(zip(terms, reports)):
        root = builder.copy(report.circuit)[report.circuit.output]
        parts = [(root, 1), (const1, idx + 1)]
        if alpha != 1:
            parts.append((builder.const(alpha), 1))
        tagged.append((builder.times(parts), 1))
    circuit = builder.finish(builder.plus(tagged))
    if not is_rigid(circuit):
        raise InvalidParameter("lincomb compiler produced a non-rigid circuit; this is a bug")
    result_shape = reports[0].shape
    ok, reason = circuit.validate(result_shape)
    if not ok:
        raise InvalidParameter(f"lincomb compiler broke shape {result_shape}: {reason}")
    orbit_bounds = [r.claimed_bounds.get("orbit_bound") for r in reports]
    orbit = max((b for b in orbit_bounds if b is not None), default=None)
    return CompileReport(circuit, result_shape, dict(size_bound=None, orbit_bound=orbit, support_bound=None))


def compile_colourful(f: BipartiteMultigraph, colouring: Mapping[int, Hashable],
                      n: int, shape: str) -> CompileReport:
    """Circuit for the coloured homomorphism polynomial colhom_{F,c,n}.

    The same constructions over colour-indexed variables, not checked for
    rigidity: the formula and the shared bag tables are built exactly as in
    `compile_certificate`; every vertex ranges over [n].  With `colouring`
    the identity this computes the colourful homomorphism polynomial.
    """
    if n < 1:
        raise InvalidParameter("host sizes must be >= 1")
    for v in f.vertices():
        if v not in colouring:
            raise InvalidParameter(f"colouring misses vertex {v}")
    circuit, result_shape = _construct(f, _exact_certificate(f, shape)[1], lambda v: n,
                                       _colour_varmap(colouring))
    ok, reason = circuit.validate(result_shape)
    if not ok:
        raise InvalidParameter(f"colourful compiler broke shape {result_shape}: {reason}")
    return CompileReport(circuit, result_shape, dict.fromkeys(("size_bound", "orbit_bound", "support_bound")))
