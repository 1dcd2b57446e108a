"""The Sym_n x Sym_m action on circuits: automorphism extension, symmetry
checking, rigidification, gate orbits, minimal supports, and support depth.

A permutation pair (pi, sigma) acts on matrix variables by
x_{i,j} -> x_{pi(i), sigma(j)}.  A circuit is symmetric when every pair
extends to a gate bijection preserving labels and weighted wires; since
extensions compose, it suffices to check generators of both factors.  A
symmetric circuit is rigid when the only automorphism fixing all input gates
is the identity; extensions are then unique and the group acts on the gates.

Everything an extension needs that does not depend on the pair (each
variable's row and column, the matchers' lookup tables and, for a formula,
the signatures of the unpermuted circuit) is built once per circuit, so one
symmetry check or analysis pays for it once.  A pair then costs work on its
up-set, the gates above a variable it moves: no other gate's signature
changes, and the matchers stop at the gates outside it that are forced to
map to themselves.  Signatures are computed for formulas only, whose
matcher and rigidity test read them.  Other circuits compare gates by their
label and weighted children, which determine the signature once the
children's do: the DAG matcher keys a gate by its label and its children's
images, as the children are matched first.
`SymmetryAnalysis` searches at most two extensions per side, and
`is_symmetric` tests the same pairs, which generate the side's symmetric
group.  A side of size 4 or more has those of (0 1) and of the cycle
c = (0 1 ... size-1) searched, and the map of each adjacent transposition
(a+1 a+2) = c (a a+1) c^-1 is the conjugate of the one before it by the
cycle's map.  A smaller side has each of its at most two adjacent
transpositions searched, as a transposition's up-set is smaller than the
cycle's, the whole circuit.  The map of any other (a b) is the composite of
the adjacent maps along the word (a a+1) ... (b-1 b) ... (a a+1).  Each is
an extension of its transposition, and the one a search would return,
because a rigid circuit has exactly one.

Rigidification merges interchangeable gates by a copy into a sharing
`CircuitBuilder`, which gives gates of equal structure one gate.  For general
and skew circuits the copy is the result; a formula is rebuilt from it with
equal siblings merged (summing wire multiplicities), which keeps the internal
gates a tree.  Both reach a rigid fixpoint in one pass, never grow the
circuit, and preserve skewness.  A circuit that is rigid by structure (a
formula whose siblings differ in signature or multiplicity, any other
circuit whose gates differ in label or children) is returned as it is, with
its own numbering: no analysis result depends on the numbering.  Any other
input is copied, and the copy merges gates.  The copy keeps the
image phi(g) of each gate g of its input, and one walk over the input's
wires proves it: g and phi(g) have one label, g's wires summed over children
of equal image are exactly phi(g)'s, and the output maps to the output.  By
induction in topological order every gate computes its image's polynomial,
so the polynomial is preserved exactly, with no evaluation.

Preconditions are checked where they are needed: rigidity by
`SymmetryAnalysis` (from structure where `is_rigid` can), symmetry by its
generator searches.  `analyze` builds one `_Extender` of its input, which
`rigidify` and, for an input returned as it is, `SymmetryAnalysis` share,
so its structure facts are computed once.  If `rigidify` merged gates,
`is_symmetric` checks the input first: a circuit that is not symmetric can
have a symmetric rigidification.

Supports: sup(g) is the smallest S subseteq [n] disjoint-union [m] whose
pointwise stabiliser Sym([n] - S_L) x Sym([m] - S_R) fixes the gate g.  On
each side, x ~ y iff the transposition (x y) fixes g; this is an equivalence
relation, because (x z) = (x y)(y z)(x y).  So S is a support iff each side's
complement lies in one class, and a minimal support is, on each side, the
complement of a largest class.  The canonical one takes the lexicographically
least such complement per side, which is the first minimal-size support in
lexicographic order; it is returned together with a flag telling whether the
smaller-than-half-side condition guaranteeing uniqueness holds.  It is a
function of the gate's stabiliser alone, so renumbering the gates of a
circuit renumbers its supports and changes nothing else in its analysis.
One walk along the generators gives the orbits and, for each gate, the
step that first reached it; the classes are searched once per orbit, at its
least gate, and carried along those steps (see `SymmetryAnalysis._walk` and
`SymmetryAnalysis.all_supports`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .circuit import (
    Circuit,
    CircuitBuilder,
    FORMULA_MULTI,
    GENERAL,
    PLUS,
    TIMES,
    _HashIndex,
    _run_nested,
    parse_var_name,
    var_name,
)
from .errors import InvalidParameter, NotRigid, NotSymmetric, SizeCap

NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class PermutationPair:
    """(pi, sigma) with pi a permutation of [n], sigma of [m]; 0-based tuples."""

    pi: Tuple[int, ...]
    sigma: Tuple[int, ...]

    def __post_init__(self):
        for perm in (self.pi, self.sigma):
            if sorted(perm) != list(range(len(perm))):
                raise InvalidParameter(f"{perm} is not a permutation")

    @staticmethod
    def identity(n: int, m: int) -> "PermutationPair":
        return PermutationPair(tuple(range(n)), tuple(range(m)))

    @staticmethod
    def transposition(n: int, m: int, side: str, a: int, b: int) -> "PermutationPair":
        """(a b) on the rows (side "L") or on the columns (side "R")."""
        pi, sigma = list(range(n)), list(range(m))
        perm = pi if side == "L" else sigma
        perm[a], perm[b] = perm[b], perm[a]
        return PermutationPair(tuple(pi), tuple(sigma))

    def apply_var(self, name: str) -> str:
        i, j = parse_var_name(name)  # 1-based
        return var_name(self.pi[i - 1] + 1, self.sigma[j - 1] + 1)


def _check_matrix(extender: "_Extender", n: int, m: int):
    """InvalidParameter unless both sizes are >= 1 and the matrix holds the variables."""
    if n < 1 or m < 1:
        raise InvalidParameter("matrix sizes must be >= 1")
    vn, vm = extender.bounds
    if vn > n or vm > m:
        raise InvalidParameter(f"circuit variables exceed the ({n},{m}) matrix")


def _generators(n: int, m: int) -> List[Tuple[str, int, int]]:
    """The adjacent transpositions (side, a, a+1) of Sym_n x Sym_m, rows first."""
    return [("L", a, a + 1) for a in range(n - 1)] + [("R", a, a + 1) for a in range(m - 1)]


# -- structural signatures ------------------------------------------------------


def _gate_signatures(c: Circuit, interner: Dict, sig: Optional[List[int]] = None,
                     gates: Optional[List[int]] = None) -> List[int]:
    """Interned recursive signature per gate, computed for formulas only:
    other circuits compare gates by `_structure_key`.

    `interner` hash-conses each gate's structure key into an integer id, so
    signature comparison is O(1) even on deep formulas; passes that share it
    give equal structure equal ids.  The signature records each child's
    (signature, wire multiplicity) pair, which characterises subcircuits up
    to label- and wire-preserving isomorphism.  Given `sig` and `gates`
    (children before parents), only those gates are recomputed, in place.
    """
    if sig is None:
        sig, gates = [0] * c.num_gates(), c.topo_order()
    for g in gates:
        lbl = c.labels[g]
        if lbl[0] in ("var", "const"):
            key = (lbl[0], lbl[1])
        else:
            kids = c.children[g]
            key = (lbl[0], tuple(sorted(zip(map(sig.__getitem__, kids), kids.values()))))
        sig[g] = interner.setdefault(key, len(interner))
    return sig


def _structure_key(label: Tuple, wires) -> Tuple:
    """A gate's label and its (child, wire multiplicity) pairs, sorted.

    Equal keys give equal signatures.  If a circuit's keys are pairwise
    distinct, so are its signatures: by induction on height, two gates of
    equal signature have children of equal signatures, so the same children
    and equal keys.  `_Extender.distinct` therefore tests keys."""
    return label, tuple(sorted(wires))


# -- automorphism extension ----------------------------------------------------


class _Extender:
    """Everything about one circuit that extending a pair does not depend on.

    Built once per circuit: the formula flag, for a formula the signatures
    of the unpermuted circuit (in one interner that the permuted signatures
    of every later pair share, so equal structure gets equal ids across
    pairs), each variable gate's cell and `_tables`.  A pair then costs work
    on its up-set U only: the internal gates above a variable gate whose cell
    it moves.  Outside U no signature changes.  For a formula, `extend`
    copies `sig` into the permuted signatures `need` and recomputes U's.
    Other circuits get no signature at all: `distinct` compares structure
    keys, and the DAG matcher keys gates by their children's images (see
    `_extend_dag`).  The matchers leave gates outside U in place where that
    is forced.
    """

    def __init__(self, c: Circuit):
        self.c = c
        self.formula = c.validate(FORMULA_MULTI)[0]
        self.interner: Dict = {}

    @cached_property
    def identity(self) -> List[int]:
        """Every gate's id.  Every gate map starts as a copy, so the maps
        share these int objects."""
        return list(range(self.c.num_gates()))

    @cached_property
    def sig(self) -> List[int]:
        """The signatures of the unpermuted circuit; read for formulas only."""
        return _gate_signatures(self.c, self.interner)

    @cached_property
    def distinct(self) -> bool:
        """Whether no two gates share a structure key, which holds exactly
        when no two share a signature (see `_structure_key`).

        Gates are indexed by their key's hash, and keys are compared only
        between gates of equal hash, so no set of one key per gate is held."""
        c, index = self.c, _HashIndex()
        for g, (lbl, ch) in enumerate(zip(c.labels, c.children)):
            key = _structure_key(lbl, ch.items())
            h = hash(key)
            if index.find(h, lambda o: _structure_key(c.labels[o], c.children[o].items()) == key) is not None:
                return False
            index.add(h, g)
        return True

    @cached_property
    def _cells(self) -> Dict[Tuple[int, int], int]:
        """Each variable gate by its 0-based (row, column); names are parsed
        here only."""
        cells = {}
        for g, lbl in enumerate(self.c.labels):
            if lbl[0] == "var":
                i, j = parse_var_name(lbl[1])
                cells[(i - 1, j - 1)] = g
        return cells

    @cached_property
    def bounds(self) -> Tuple[int, int]:
        """The largest 1-based row and column of a variable, 0 for none."""
        return (max((i + 1 for i, _ in self._cells), default=0),
                max((j + 1 for _, j in self._cells), default=0))

    @cached_property
    def _tables(self) -> Tuple:
        """The internal gates in topological order and the matcher's lookup
        tables, built on the first `extend` (a structural rigidity check
        needs none of them).

        For formulas: each internal gate's internal children in id order, and
        the same children grouped by (signature, wire multiplicity).  For
        other circuits: the internal gates by `_structure_key`, with no
        signature: see `_extend_dag`.
        """
        c = self.c
        internal = [g for g in c.topo_order() if not c.is_input(g)]
        if self.formula:
            sig = self.sig
            kids: Dict[int, List[Tuple[int, int]]] = {}
            groups: Dict[int, Dict[Tuple[int, int], List[int]]] = {}
            for g in internal:
                kids[g] = sorted((ch, mult) for ch, mult in c.children[g].items()
                                 if not c.is_input(ch))
                groups[g] = {}
                for ch, mult in kids[g]:
                    groups[g].setdefault((sig[ch], mult), []).append(ch)
            return internal, kids, groups
        index: Dict = {}
        for g in sorted(internal):
            index.setdefault(_structure_key(c.labels[g], c.children[g].items()), []).append(g)
        return internal, index

    @cached_property
    def _used(self) -> Set[Tuple[str, int]]:
        """The rows ("L", i) and columns ("R", j), 0-based, of the variables."""
        return {("L", i) for i, _ in self._cells} | {("R", j) for _, j in self._cells}

    def moves(self, side: str, a: int, b: int) -> bool:
        """Whether the transposition (a b) on `side` moves a row or column of
        a variable; if not, it fixes every variable and the identity extends it."""
        return (side, a) in self._used or (side, b) in self._used

    def span(self, side: str) -> int:
        """How many rows ("L") or columns ("R") hold a variable."""
        return sum(s == side for s, _ in self._used)

    def side_pair(self, side: str, moved: Dict[int, int]) -> PermutationPair:
        """The pair that maps each index x of `side` to moved[x] (x itself
        if absent) and fixes the other side.  It spans the rows and columns
        up to the last that holds a variable or that it moves only, so its
        size does not grow with the matrix's."""
        sizes = dict(zip("LR", self.bounds))
        sizes[side] = max(sizes[side], max(moved, default=-1) + 1)
        pi, sigma = (tuple(moved.get(x, x) if s == side else x for x in range(sizes[s]))
                     for s in "LR")
        return PermutationPair(pi, sigma)

    def extend(self, pair: PermutationPair, count_limit: int = 1) -> List[List[int]]:
        """See `extend_to_automorphism`; up to `count_limit` extensions, each
        a list giving every gate's image.  Only `pair.pi` and `pair.sigma` at
        the variables' rows and columns are read."""
        c, cells = self.c, self._cells
        internal, *tables = self._tables
        phi = list(self.identity)
        stack = []  # the moved variable gates, then the walk up from them
        for (i, j), g in cells.items():
            image = (pair.pi[i], pair.sigma[j])
            if image != (i, j):
                if image not in cells:
                    return []
                phi[g] = cells[image]
                stack.append(g)
        if not (self.formula or self.distinct):
            return self._extend_dag(phi, count_limit, internal, *tables)
        up: Set[int] = set()
        parents = c.parents()
        while stack:
            for p in parents[stack.pop()]:
                if p not in up:
                    up.add(p)
                    stack.append(p)
        order = [g for g in internal if g in up]
        if self.formula:
            sig = self.sig
            need = _gate_signatures(c, self.interner, [sig[h] for h in phi], order)
            return self._extend_formula(need, phi, count_limit, up, *tables)
        return self._extend_dag(phi, count_limit, order, *tables)

    @cached_property
    def plain(self) -> bool:
        """Whether the circuit is rigid by structure alone, and so its own
        rigidification: for a formula, no two siblings share (signature,
        wire multiplicity); for any other circuit, no two gates share a
        structure key (`distinct`)."""
        if self.formula:
            sig = self.sig
            return all(len({(sig[ch], mult) for ch, mult in kids.items()}) == len(kids)
                       for kids in self.c.children)
        return self.distinct

    @cached_property
    def rigid(self) -> bool:
        """See `is_rigid`; computed once per circuit."""
        return self.plain or (not self.formula
                              and len(self.extend(self.side_pair("L", {}), count_limit=2)) <= 1)

    def _extend_formula(self, need: List[int], phi: List[int], count_limit: int,
                        up: Set[int], kids: Dict, groups: Dict) -> List[List[int]]:
        """Extensions for formula-shaped circuits, by top-down matching.

        Internal children are grouped by (signature, wire multiplicity); a
        subtree with permuted variables maps onto a target subtree iff the
        group multisets agree, which the interned root signature equality
        guarantees all the way down, and within a group any pairing works
        because equal signatures mean isomorphic subtrees.  Returns the
        canonical pairing (members of a group paired in id order), plus one
        transposed variant when a second extension is requested and some
        group has at least two members.

        A gate outside U that is matched to itself holds no moved variable,
        so the canonical pairing of its subtree is the identity, which `phi`
        already holds: the match stops there.  A gate outside U matched to
        another gate is still matched all the way down, and nothing is
        skipped when a second extension is requested, as a swap site may lie
        in any subtree.

        Plain formulas (`plain`) take a direct lookup when one extension is
        requested: a matched gate's children then differ in (need,
        multiplicity), as its target's do in (signature, multiplicity), so
        each is looked up in the target's groups, with no regrouping.
        """
        c = self.c
        if need[c.output] != self.sig[c.output]:
            return []
        whole = count_limit > 1
        direct = self.plain and not whole
        swap_site: List[Tuple[int, int, int, int]] = []

        def match(g: int, h: int, out: List[int]):
            stack = [(g, h)]
            while stack:
                g, h = stack.pop()
                out[g] = h
                if g == h and not whole and g not in up:
                    continue
                if direct:
                    for ch, mult in kids.get(g, ()):
                        stack.append((ch, groups[h][need[ch], mult][0]))
                    continue
                mine: Dict[Tuple[int, int], List[int]] = {}
                for ch, mult in kids.get(g, ()):  # none when the output is an input
                    mine.setdefault((need[ch], mult), []).append(ch)
                for key, group in mine.items():
                    targets = groups[h][key]
                    if whole and len(group) >= 2 and not swap_site:
                        swap_site.append((group[0], group[1], targets[0], targets[1]))
                    stack.extend(zip(group, targets))

        match(c.output, c.output, phi)
        solutions = [phi]
        if swap_site:
            a, b, ta, tb = swap_site[0]
            second = list(phi)
            match(a, tb, second)
            match(b, ta, second)
            solutions.append(second)
        return solutions

    def _extend_dag(self, phi: List[int], count_limit: int, order: List[int],
                    index: Dict) -> List[List[int]]:
        """Match the gates of `order` (internal, children first) by (label,
        weighted child images), backtracking when several gates share that
        key; at most NODE_BUDGET candidates are tried.  `phi` holds the
        images of the other gates.

        No signature is computed.  Write sig[x] for the signature of x (as
        `_gate_signatures` would give it) and need[x] for that of x with the
        variables permuted.  Every child ch already has an image of
        signature need[ch] (a variable by its cell, an internal gate by this
        match), and phi is injective, so a candidate h whose structure key
        is g's with each child replaced by its image has
        sig[h] = intern(label, sorted (need[ch], mult)) = need[g].

        `extend` passes U alone when structure keys, and so signatures, are
        pairwise distinct (`distinct`, as after `rigidify`): then
        sig[phi(g)] = need[g] = sig[g] forces phi(g) = g outside U.  Where
        they repeat it passes every internal gate, as gates outside U may
        have to swap.
        """
        c = self.c
        used: Set[int] = set()
        solutions: List[List[int]] = []
        budget = NODE_BUDGET

        # Iterative depth-first search over positions in `order`; the stack
        # holds one candidate iterator per assigned position.
        def candidates_for(pos: int):
            g = order[pos]
            key = _structure_key(c.labels[g], ((phi[ch], m) for ch, m in c.children[g].items()))
            return iter(index.get(key, ()))

        if not order:
            return [phi]
        stack: List = [candidates_for(0)]
        chosen: List[Optional[int]] = [None]
        while stack:
            pos = len(stack) - 1
            g = order[pos]
            if chosen[pos] is not None:
                # Returning to this frame: undo the previous choice first.
                used.discard(chosen[pos])
                chosen[pos] = None
            advanced = False
            for candidate in stack[pos]:
                budget -= 1
                if budget <= 0:
                    raise SizeCap("automorphism search exceeded its node budget")
                if candidate in used:
                    continue
                phi[g] = candidate
                if pos + 1 == len(order):
                    solutions.append(list(phi))
                    if len(solutions) >= count_limit:
                        return solutions
                else:
                    used.add(candidate)
                    chosen[pos] = candidate
                    stack.append(candidates_for(pos + 1))
                    chosen.append(None)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                chosen.pop()
        return solutions


def _decisive_maps(extender: _Extender, side: str, size: int) -> List[Optional[List[int]]]:
    """The maps of permutations of one side that generate Sym_size, one
    extension search each, so every permutation of the side extends exactly
    when they do.  They are (0 1) and the cycle i -> i+1 (mod size) if
    size >= 4, else the adjacent transpositions.  The list stops at the first
    that does not extend, which stands as None.

    No search is needed if no index of the side holds a variable (every
    permutation fixes the variables: no maps), or if some index holds one
    and some does not (their transposition has no variable gate to map the
    first's variables to: [None]).
    """
    span = extender.span(side)
    if not span:
        return []
    if span < size:
        return [None]
    if size >= 4:
        perms = [{0: 1, 1: 0}, {i: (i + 1) % size for i in range(size)}]
    else:
        perms = [{a: a + 1, a + 1: a} for a in range(size - 1)]
    maps: List[Optional[List[int]]] = []
    for perm in perms:
        solutions = extender.extend(extender.side_pair(side, perm))
        maps.append(solutions[0] if solutions else None)
        if not solutions:
            break
    return maps


def extend_to_automorphism(c: Circuit, pair: PermutationPair) -> List[Dict[int, int]]:
    """A gate bijection extending the variable permutation, as a one-element
    list; [] when the pair does not extend.

    Input-gate images are forced by the labels.  Formula-shaped circuits use
    the top-down tree matcher; other circuits match internal gates in
    topological order by (label, weighted child images), with backtracking
    when several gates share that key.
    """
    return [dict(enumerate(phi)) for phi in _Extender(c).extend(pair)]


def is_symmetric(c: Circuit, n: int, m: int) -> bool:
    """Whether every pair extends: on each side, the two generators of
    `_decisive_maps` do."""
    return _symmetric(_Extender(c), n, m)


def _symmetric(extender: _Extender, n: int, m: int) -> bool:
    """`is_symmetric` of the extender's circuit."""
    _check_matrix(extender, n, m)
    return all(None not in _decisive_maps(extender, side, size)
               for side, size in (("L", n), ("R", m)))


def is_rigid(c: Circuit) -> bool:
    """No input-fixing automorphism besides the identity.

    For formula-shaped circuits this is a structural criterion: some internal
    gate has two distinct children with equal subtree signature and wire
    multiplicity iff the two subtrees can be swapped (input children are
    unique per label and never collide).  Other circuits are rigid if no
    two gates share a label and weighted children (`_Extender.distinct`):
    then no two share a signature, which an input-fixing automorphism
    preserves.  Otherwise a budgeted search looks for a second identity
    extension.
    """
    return _Extender(c).rigid


# -- rigidification --------------------------------------------------------------


def _rigidify_dag(c: Circuit) -> Tuple[Circuit, List[int]]:
    """Merge all gates with equal structure, summing wire multiplicities;
    returns the circuit and the image of each gate of c.

    Every gate the copy builds is the image of a gate of c, so it is
    reachable from the output and `finish` keeps its id."""
    builder = CircuitBuilder(share=True)
    new = builder.copy(c)
    return builder.finish(new[c.output]), new


def _rigidify_formula(c: Circuit) -> Tuple[Circuit, List[int]]:
    """Merge equal sibling subtrees recursively; the tree shape is kept.
    Returns the circuit and the image of each gate of c.

    Merging is restricted to siblings because only those are interchangeable
    by an automorphism of a formula; a global merge would introduce shared
    subtrees and destroy tree-ness.  Siblings are rebuilt from a sharing copy
    by `_rebuild`, and the image follows the tree down from the output: a
    child ch of g maps to the child of g's image built from the shared gate
    of ch.
    """
    shared = CircuitBuilder(share=True)
    new = shared.copy(c)
    origin: List[int] = []
    builder = CircuitBuilder()
    result = builder.finish(_run_nested(_rebuild(shared, builder, {}, origin, new[c.output])))
    image = [0] * c.num_gates()
    image[c.output] = result.output
    for g in reversed(c.topo_order()):
        if c.children[g]:
            built_from = {origin[h]: h for h in result.children[image[g]]}
            for ch in c.children[g]:
                image[ch] = built_from[new[ch]]
    return result, image


def _rebuild(shared: CircuitBuilder, builder: CircuitBuilder, inputs: Dict[int, int],
             origin: List[int], g: int):
    """Gate g of `shared` built in `builder`, as a `_run_nested` builder;
    `origin` gets, for each gate `builder` adds, the gate of `shared` it is
    built from.

    Siblings come in the string order of their ids in `shared` (the
    serialized output keeps it).  Only internal children nest a builder; an
    input child is built in place on its first occurrence and then found in
    `inputs`.  A plain generator function, not a closure: a recursive
    closure is a reference cycle, which would hold both builders until the
    next garbage collection.
    """
    parts = []
    for ch, mult in sorted(shared.children[g].items(), key=lambda item: str(item[0])):
        if shared.children[ch]:
            built = yield _rebuild(shared, builder, inputs, origin, ch)
        else:
            if ch not in inputs:
                inputs[ch] = builder.gate(shared.labels[ch], ())
                origin.append(ch)
            built = inputs[ch]
        parts.append((built, mult))
    origin.append(g)
    return builder.gate(shared.labels[g], parts)


def _check_gate_map(c: Circuit, result: Circuit, image: Sequence[int]) -> None:
    """InvalidParameter unless `image` maps c onto `result` keeping labels
    and weighted wires: each gate g has its image's label, the wires of g
    summed over children of equal image are exactly the wires of g's image,
    and the output maps to the output.  By induction in topological order
    every gate then computes its image's polynomial, so the two circuits
    compute the same one."""
    if image[c.output] != result.output:
        raise InvalidParameter("rigidification moved the output; this is a bug")
    for g, children in enumerate(c.children):
        wires: Dict[int, int] = {}
        for ch, mult in children.items():
            wires[image[ch]] = wires.get(image[ch], 0) + mult
        if c.labels[g] != result.labels[image[g]] or wires != result.children[image[g]]:
            raise InvalidParameter(f"rigidification changed gate {g}; this is a bug")


def rigidify(c: Circuit, extender: Optional[_Extender] = None) -> Circuit:
    """A rigid circuit computing the same polynomial, never larger.

    Rigid whatever the input: after the DAG merge no two gates share a
    signature, after the formula merge no two siblings do.  Formulas stay
    trees on their internal gates, at worst acquiring multiedges; skew
    circuits stay skew.  A circuit that is rigid by structure
    (`_Extender.plain`: a formula whose siblings differ, any other circuit
    whose gates differ in label or children) is returned as it is, with
    its own gate numbering, as the analysis depends on none.  Any other
    result merges gates and is proved against `c` through the image of each
    gate by one walk over the wires (`_check_gate_map`).  `extender` is
    c's, if one is built already.  InvalidParameter, naming the violation,
    for a circuit that fails `validate(GENERAL)`.
    """
    ok, reason = c.validate(GENERAL)
    if not ok:
        raise InvalidParameter(f"cannot rigidify an invalid circuit: {reason}")
    extender = extender or _Extender(c)
    if extender.plain:
        return c
    if extender.formula:
        result, image = _rigidify_formula(c)
    else:
        result, image = _rigidify_dag(c)
    if result.size() > c.size():
        raise InvalidParameter("rigidification grew the circuit; this is a bug")
    _check_gate_map(c, result, image)
    return result


# -- orbits ------------------------------------------------------------------------


class SymmetryAnalysis:
    """Cached group action data for one rigid symmetric circuit.

    Construction raises `NotRigid` for a circuit that is not rigid; a
    generator that does not extend raises `NotSymmetric` when first needed,
    so the analysis decides symmetry by the same searches that give its maps.
    The maps of the adjacent transpositions (the generators) of a side come
    from at most two extension searches (see the module docstring) and are
    cached; that of (a b) is composed along its word.  Each is the search's
    answer because extensions are unique on a rigid circuit.  For the same
    reason a transposition that moves no row or column of a variable maps
    every gate to itself, with no pair built and no search.
    Orbits come from one walk along the generators that move a variable,
    which also keeps the step that first reached each gate.  Supports come
    from the transposition classes of one representative per orbit (a
    support's complement lies in one class per side; see the module
    docstring), translated along those steps, so each gate gets its own
    least minimal support whatever the gate numbering; each is computed
    once per analysis.  A side with no variable adds no support
    element, so neither the orbits nor the supports cost time in the size
    of such a side.  `extender` is c's, if one is built already.
    """

    def __init__(self, c: Circuit, n: int, m: int, extender: Optional[_Extender] = None):
        self._extender = extender or _Extender(c)
        _check_matrix(self._extender, n, m)
        self.circuit = c
        self.n = n
        self.m = m
        if not self._extender.rigid:
            raise NotRigid("orbit and support analysis requires a rigid circuit")
        self._maps: Dict[Tuple[str, int, int], List[int]] = {}
        self._derived: Set[str] = set()  # the sides `_derive` ran on
        self._identity = self._extender.identity
        self._supports: Optional[List[FrozenSet]] = None

    # transposition extension maps, cached ------------------------------------

    def _generator(self, side: str, a: int) -> List[int]:
        """The map of (a a+1), cached: from `_derive`, or else from its own
        search, so `NotSymmetric` names the first generator that does not
        extend."""
        tag = (side, a, a + 1)
        if tag not in self._maps and self._extender.moves(*tag):
            self._derive(side)
        if tag not in self._maps:
            if not self._extender.moves(*tag):
                self._maps[tag] = self._identity
            else:
                pair = self._extender.side_pair(side, {a: a + 1, a + 1: a})
                solutions = self._extender.extend(pair)
                if not solutions:
                    raise NotSymmetric(f"the circuit is not symmetric: {tag} does not extend")
                self._maps[tag] = solutions[0]
        return self._maps[tag]

    def _derive(self, side: str):
        """Every generator map of `side` from the searches for (0 1) and the
        cycle s: i -> i+1, if the side has size >= 4 and both extend; once
        per side.  The map of (a+1 a+2) = s (a a+1) s^-1 is S t S^-1, for S
        the cycle's map and t that of (a a+1).  When only (0 1) extends, its
        map is kept for `_generator`; when (0 1) was searched and does not
        extend, NotSymmetric names it, so it is never searched twice."""
        size = self.n if side == "L" else self.m
        if size < 4 or side in self._derived:
            return
        self._derived.add(side)
        maps = _decisive_maps(self._extender, side, size)
        if maps[0] is None:  # the side moves a variable, so maps is not empty
            if self._extender.span(side) == size:  # a search, not a side half used
                raise NotSymmetric(f"the circuit is not symmetric: {(side, 0, 1)} does not extend")
            return
        self._maps[(side, 0, 1)] = maps[0]
        if None in maps:
            return
        t, s = maps
        s_inv = [0] * len(s)
        for g, h in enumerate(s):
            s_inv[h] = g
        for a in range(1, size - 1):
            t = self._maps[(side, a, a + 1)] = [s[t[h]] for h in s_inv]

    def _word(self, side: str, a: int, b: int) -> List[List[int]]:
        """The generator maps along (a a+1) ... (b-1 b) ... (a a+1), a < b, whose
        composite is the map of (a b); none when (a b) moves no variable."""
        if not self._extender.moves(side, a, b):
            return []
        return [self._generator(side, i) for i in [*range(a, b), *range(b - 2, a - 1, -1)]]

    def transposition_map(self, side: str, a: int, b: int) -> List[int]:
        if a > b:
            a, b = b, a
        gmap = self._identity
        for s in self._word(side, a, b):
            gmap = [s[h] for h in gmap]
        return gmap

    def generators(self) -> List[List[int]]:
        """The maps of the adjacent transpositions, rows first; built in
        order, so one that does not extend raises before a long list is."""
        return [self._generator(side, a)
                for side, size in (("L", self.n), ("R", self.m)) for a in range(size - 1)]

    def _moving_generators(self) -> List[Tuple[Tuple[str, int, int], List[int]]]:
        """(tag, map) of each generator that moves a row or column of a
        variable, in the order of `generators`; found from those rows and
        columns, as every other generator maps each gate to itself."""
        last = {"L": self.n - 2, "R": self.m - 2}
        tags = sorted({(side, a, a + 1) for side, x in self._extender._used
                       for a in (x - 1, x) if 0 <= a <= last[side]})
        return [(tag, self._generator(tag[0], tag[1])) for tag in tags]

    # orbits -----------------------------------------------------------------

    @cached_property
    def _walk(self) -> List[Tuple[List[int], List[Tuple[int, int, Tuple[str, int, int]]]]]:
        """(sorted orbit, steps) per orbit, by least member, from one walk
        along the generators that move a variable, started at each least
        gate not yet reached.  The steps are (g, h, tag) for each gate h but
        the orbit's least: generator `tag` first reached h, from g."""
        gens = self._moving_generators()
        reached = [False] * self.circuit.num_gates()
        walk = []
        for rep in range(len(reached)):
            if not reached[rep]:
                reached[rep] = True
                orbit, steps = [rep], []
                for g in orbit:  # grows as the walk reaches gates
                    for tag, gmap in gens:
                        h = gmap[g]
                        if not reached[h]:
                            reached[h] = True
                            orbit.append(h)
                            steps.append((g, h, tag))
                walk.append((sorted(orbit), steps))
        return walk

    def orbits(self) -> List[List[int]]:
        """The gate orbits, each sorted, ordered by least member, from the
        one walk of `_walk` with no support computed; a fresh copy on every
        call."""
        return [list(orbit) for orbit, _ in self._walk]

    def max_orbit(self) -> int:
        return max(len(orbit) for orbit, _ in self._walk)

    # supports ------------------------------------------------------------------

    def _fixes(self, g: int, side: str, a: int, b: int) -> bool:
        """Whether (a b), a < b, fixes g; g is followed through the word of
        `_word`, building no map of (a b)."""
        h = g
        for s in self._word(side, a, b):
            h = s[h]
        return h == g

    def minimal_support(self, g: int,
                        classes: Optional[Dict[str, List[int]]] = None) -> Tuple[FrozenSet, bool]:
        """((elements tagged 'L'/'R'), uniqueness flag) for gate g.

        Per side, sorts the indices into the classes of x ~ y iff (x y) fixes
        g, and keeps the lexicographically least complement of a largest
        class (see the module docstring).  The flag records whether the
        per-side smaller-than-half condition for uniqueness holds.  If
        `classes` is given, it receives each side's class of every index,
        classes numbered by least member.
        """
        classes = {} if classes is None else classes
        for side, size in (("L", self.n), ("R", self.m)):
            if not self._extender.span(side):
                continue  # every transposition of the side fixes g: no support element
            last: List[int] = []  # the greatest member of each class so far
            recent: List[int] = []  # extended last first: x mostly joins x-1's class
            label: List[int] = []
            for x in range(size):
                k = next((k for k in recent if self._fixes(g, side, last[k], x)), len(last))
                if k < len(last):
                    recent.remove(k)
                    last[k] = x
                else:
                    last.append(x)
                recent.insert(0, k)
                label.append(k)
            classes[side] = label
        return _least_support(classes)

    def all_supports(self) -> List[FrozenSet]:
        """Each gate's least minimal support, one `minimal_support` per orbit.

        The steps of `_walk` are replayed, applying no generator again.  If
        the generator t = (a b) maps g to h, then (x y) fixes h exactly when
        (t(x) t(y)) fixes g, so h's classes are g's with the entries of a and
        b swapped.  Where the representative's minimal support is unique (the
        flag), every orbit-mate's is unique too and is the image of the
        representative's under the connecting generators, which is
        translated instead.  Elsewhere the classes are translated, and each
        gate takes the least complement of a largest class of its own, so no
        support depends on which gate represents the orbit.
        """
        if self._supports is None:
            supports: List = [None] * self.circuit.num_gates()
            for orbit, steps in self._walk:
                rep = orbit[0]
                labelled: Dict[int, Dict[str, List[int]]] = {rep: {}}
                supports[rep], unique = self.minimal_support(rep, labelled[rep])
                for g, h, (side, a, b) in steps:
                    if unique:
                        swap = {(side, a): (side, b), (side, b): (side, a)}
                        supports[h] = frozenset([swap.get(e, e) for e in supports[g]])
                    else:
                        classes = labelled[h] = dict(labelled[g])
                        label = classes[side] = list(classes[side])
                        label[a], label[b] = label[b], label[a]
                        supports[h] = _least_support(classes)[0]
            self._supports = supports
        return list(self._supports)

    def max_support(self) -> int:
        return max(len(s) for s in self.all_supports())

    def support_depth(self) -> int:
        """Max over root-to-input paths of the number of support-changing
        steps (a gate counted when the path continues into a child whose
        support escapes the gate's)."""
        supports = self.all_supports()
        c = self.circuit
        depth = [0] * c.num_gates()
        for g in c.topo_order():
            if c.is_input(g):
                continue
            best, mine = 0, supports[g]
            for ch in c.children[g]:
                best = max(best, depth[ch] if supports[ch] <= mine else depth[ch] + 1)
            depth[g] = best
        return depth[c.output]


def _least_support(classes: Dict[str, List[int]]) -> Tuple[FrozenSet, bool]:
    """The least minimal support, and its uniqueness flag, of a gate whose
    classes per side are given as the class of every index: per side, the
    lexicographically least complement of a largest class.  Of two largest
    classes, the one with the greater least member has the lesser
    complement, as only the other's misses its least member."""
    support: List[Tuple[str, int]] = []
    unique = True
    for side, label in classes.items():
        by_least = list(dict.fromkeys(label))  # the classes in order of least member
        largest = max(map(label.count, by_least))
        best = next(k for k in reversed(by_least) if label.count(k) == largest)
        rest = [(side, x) for x, k in enumerate(label) if k != best]
        support += rest
        unique = unique and 2 * len(rest) < len(label)
    return frozenset(support), unique


@dataclass
class SupportReport:
    """Symmetry analysis summary for one circuit."""

    n: int
    m: int
    max_orbit: int
    max_support: int
    support_depth: int
    per_gate: List[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "maxOrb": self.max_orbit,
            "maxSup": self.max_support,
            "supportDepth": self.support_depth,
            "perGate": self.per_gate,
        }


def analyze(c: Circuit, n: int, m: int) -> SupportReport:
    """Full symmetry report of `rigidify(c)` for a symmetric `c`.

    `rigidify` returns a circuit that is rigid by structure as it is, so
    for such a `c` the per-gate ids are c's own, and otherwise a merged copy
    proved through its gate map.  For a copy, `is_symmetric` checks `c`
    first; otherwise the generator searches of `SymmetryAnalysis` decide
    symmetry, with the one `_Extender` that `rigidify` read.  Each circuit
    checked costs at most two extension searches per side (see the module
    docstring).  Gates of equal support share one sorted list in `per_gate`."""
    extender = _Extender(c)
    circuit = rigidify(c, extender)
    if circuit is not c:
        if not _symmetric(extender, n, m):
            raise NotSymmetric("the circuit is not symmetric")
        extender = _Extender(circuit)
    analysis = SymmetryAnalysis(circuit, n, m, extender)
    supports = analysis.all_supports()
    listed = {support: sorted((s, i + 1) for s, i in support) for support in set(supports)}
    per_gate = [{"gate": g, "support": listed[support]} for g, support in enumerate(supports)]
    return SupportReport(
        n=n,
        m=m,
        max_orbit=analysis.max_orbit(),
        max_support=max(len(s) for s in supports),
        support_depth=analysis.support_depth(),
        per_gate=per_gate,
    )


# -- random symmetric circuits (test and suite tooling) ------------------------------


def random_symmetric_circuit(n: int, m: int, rng: random.Random, max_gates: int = 40,
                             mode: str = "general") -> Circuit:
    """A random Sym_n x Sym_m-symmetric circuit with at most max_gates gates.

    Built from orbit-closed layers: a random template gate is closed under the
    adjacent-transposition generators, so every permutation maps layer members
    to layer members; the output sums a full orbit and is therefore fixed.
    In "skew" mode times-templates take at most one internal child.
    """
    if mode not in ("general", "skew"):
        raise InvalidParameter("random circuits support modes 'general' and 'skew'")
    builder = CircuitBuilder()
    labels = builder.labels
    gate_of_var: Dict[str, int] = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            name = var_name(i, j)
            gate_of_var[name] = builder.var(name)
    const_one = builder.const(1)

    pairs = [PermutationPair.transposition(n, m, *tag) for tag in _generators(n, m)]
    # gen_images[k][g] = image of gate g under generator k, maintained as we build.
    gen_images: List[List[int]] = [[] for _ in pairs]
    for k, pair in enumerate(pairs):
        for g, lbl in enumerate(labels):
            if lbl[0] == "var":
                gen_images[k].append(gate_of_var[pair.apply_var(lbl[1])])
            else:
                gen_images[k].append(g)

    def image_multiset(k: int, multiset: Tuple[Tuple[int, int], ...]):
        acc: Dict[int, int] = {}
        for ch, mv in multiset:
            img = gen_images[k][ch]
            acc[img] = acc.get(img, 0) + mv
        return tuple(sorted(acc.items()))

    def close_orbit(kind: str, template: Tuple[Tuple[int, int], ...]) -> List[int]:
        """Add the orbit of a children-multiset; returns the new gate ids.

        Template children live in earlier layers, so their generator images
        are already known; the image of a new gate is the gate of its image
        multiset, which the closure guarantees to exist.
        """
        seen: Dict[Tuple[Tuple[int, int], ...], int] = {}
        queue = [template]
        created: List[int] = []
        while queue:
            multiset = queue.pop()
            if multiset in seen:
                continue
            gid = builder.gate((kind,), multiset)
            seen[multiset] = gid
            created.append(gid)
            for k in range(len(pairs)):
                image = image_multiset(k, multiset)
                if image not in seen:
                    queue.append(image)
        first = min(created)
        for k in range(len(pairs)):
            extension = [0] * len(created)
            for multiset, gid in seen.items():
                extension[gid - first] = seen[image_multiset(k, multiset)]
            gen_images[k].extend(extension)
        return created

    layers: List[List[int]] = [list(gate_of_var.values())]
    for _ in range(rng.randint(1, 3)):
        if len(labels) >= max_gates - 2:
            break
        kind = rng.choice([PLUS, TIMES])
        pool = [g for layer in layers for g in layer]
        size = rng.randint(1, 2)
        picks = sorted(rng.sample(pool, min(size, len(pool))))
        if kind == TIMES and mode == "skew":
            internal = [g for g in picks if labels[g][0] in (PLUS, TIMES)]
            for extra in internal[1:]:
                picks.remove(extra)
            if rng.random() < 0.7:
                picks.append(const_one)
        template = tuple(sorted({g: rng.randint(1, 2) for g in picks}.items()))
        before = len(labels)
        created = close_orbit(kind, template)
        if len(labels) > max_gates - 1:
            # Over budget: drop the layer.
            del labels[before:]
            del builder.children[before:]
            for k in range(len(pairs)):
                del gen_images[k][before:]
            break
        layers.append(created)
    top_layer = layers[-1] if len(layers) > 1 else layers[0]
    return builder.finish(builder.plus([(g, 1) for g in top_layer]))
