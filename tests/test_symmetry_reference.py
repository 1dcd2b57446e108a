"""A definitional reference for the symmetry layer.

The reference enumerates the whole of Sym_n x Sym_m and maps the gates of a
rigid circuit for each pair by its own permuted-signature lookup: a gate's
image is the gate whose structure equals the gate's structure with the
variables permuted.  Where the signatures are pairwise distinct (a DAG after
`rigidify`) that is a direct lookup; in a rigid formula it follows from the
output down, as siblings differ in (signature, wire multiplicity).  From the
maps it reads orbits as image sets and the minimal support as the least S, by
size and then lexicographically, whose pointwise stabiliser fixes the gate.
It uses none of the analysis' shortcuts (extension search, conjugation,
transposition classes, translation along orbits), and `SymmetryAnalysis` is
compared with it: every gate's support, `minimal_support` and `all_supports`
alike, must be the gate's own least one.

A circuit that `rigidify` shrinks (such as one summed with a copy of itself
sharing its inputs) has repeated signatures, so its extensions come from the
backtracking matcher.  Before it is rigidified, every pair's extension is
checked against the definition of an automorphism.
"""

import itertools
import random

from symcirc import compilers
from symcirc.circuit import CircuitBuilder, parse_var_name, var_name
from symcirc.pattern import enumerate_bipartite_multigraphs, make_cycle, make_path
from symcirc.symmetry import PermutationPair, SymmetryAnalysis, extend_to_automorphism, rigidify

from test_acceptance import _criterion_3_cases
from test_golden import _analyze_inputs, _doubled

CENSUS_STRIDE = 67  # every 67th graph of enumerate_bipartite_multigraphs(6, 8, 2)


def _pair_maps(c, n, m):
    """{(pi, sigma): image of every gate} over all of Sym_n x Sym_m; asserts
    that every pair extends, i.e. that `c` is symmetric."""
    steps = [(g, c.labels[g], list(c.children[g].items())) for g in c.topo_order()]
    interner = {}

    def signatures(rename):
        """Hash-consed structure of every gate, variable names passed through `rename`."""
        sig = [0] * len(steps)
        for g, label, kids in steps:
            if label[0] == "var":
                key = ("var", rename[label[1]])
            elif label[0] == "const":
                key = label
            else:
                key = (label[0], tuple(sorted([(sig[ch], mult) for ch, mult in kids])))
            sig[g] = interner.setdefault(key, len(interner))
        return sig

    cells = {label[1]: parse_var_name(label[1]) for _, label, _ in steps if label[0] == "var"}
    sig = signatures({name: name for name in cells})
    distinct = len(set(sig)) == len(sig)
    where = {s: g for g, s in enumerate(sig)}
    maps = {}
    for pi in itertools.permutations(range(n)):
        for sigma in itertools.permutations(range(m)):
            need = signatures({name: var_name(pi[i - 1] + 1, sigma[j - 1] + 1)
                               for name, (i, j) in cells.items()})
            if distinct:
                image = [where[s] for s in need]
            else:
                assert need[c.output] == sig[c.output], (pi, sigma)
                image = [None] * c.num_gates()
                stack = [(c.output, c.output)]
                while stack:
                    g, h = stack.pop()
                    assert image[g] in (None, h)
                    image[g] = h
                    target = {(sig[ch], mult): ch for ch, mult in c.children[h].items()}
                    assert len(target) == len(c.children[h]), "siblings must differ"
                    stack += [(ch, target[need[ch], mult]) for ch, mult in c.children[g].items()]
            maps[pi, sigma] = image
    return maps


def _least_supports(c, maps, n, m):
    """Per gate, the least S (by size, then lexicographically over rows before
    columns) such that every pair fixing S pointwise fixes the gate: S must
    meet the moved rows and columns of every pair that moves the gate."""
    moving = [set() for _ in range(c.num_gates())]
    for (pi, sigma), image in maps.items():
        moved = (sum(1 << i for i, p in enumerate(pi) if p != i)
                 + sum(1 << (n + j) for j, s in enumerate(sigma) if s != j))
        for g, h in enumerate(image):
            if h != g:
                moving[g].add(moved)
    candidates = [combo for size in range(n + m + 1)
                  for combo in itertools.combinations(range(n + m), size)]
    masks = [sum(1 << k for k in combo) for combo in candidates]
    least = []
    for sets in moving:
        k = next(k for k, mask in enumerate(masks) if all(mask & moved for moved in sets))
        least.append(frozenset(("L", x) if x < n else ("R", x - n) for x in candidates[k]))
    return least


def _check_extensions(c, n, m):
    """Every pair of Sym_n x Sym_m extends to a gate map of `c` that is an
    automorphism by definition: a bijection that renames the variables by
    the pair, keeps every other label, and maps each gate's weighted
    children onto those of its image."""
    gates = range(c.num_gates())
    for pi in itertools.permutations(range(n)):
        for sigma in itertools.permutations(range(m)):
            [phi] = extend_to_automorphism(c, PermutationPair(pi, sigma))
            assert sorted(phi.values()) == list(gates)
            for g in gates:
                label = c.labels[g]
                if label[0] == "var":
                    i, j = parse_var_name(label[1])
                    label = ("var", var_name(pi[i - 1] + 1, sigma[j - 1] + 1))
                assert c.labels[phi[g]] == label, (pi, sigma, g)
                kids = {phi[ch]: mult for ch, mult in c.children[g].items()}
                assert c.children[phi[g]] == kids, (pi, sigma, g)


def _check(c, n, m):
    """Compare the analysis of rigidify(c) with the reference; the number of gates.
    A circuit that rigidify shrinks has its own extensions checked first."""
    rigid = rigidify(c)
    if rigid.num_gates() < c.num_gates():
        _check_extensions(c, n, m)
    c = rigid
    maps = _pair_maps(c, n, m)
    analysis = SymmetryAnalysis(c, n, m)
    gates = range(c.num_gates())
    orbits = sorted({tuple(sorted({image[g] for image in maps.values()})) for g in gates})
    assert analysis.orbits() == [list(orbit) for orbit in orbits]

    for side, size in (("L", n), ("R", m)):
        for a, b in itertools.combinations(range(size), 2):
            swap = list(range(size))
            swap[a], swap[b] = b, a
            pair = (tuple(swap), tuple(range(m))) if side == "L" else (tuple(range(n)), tuple(swap))
            assert analysis.transposition_map(side, a, b) == maps[pair], (side, a, b)

    least = _least_supports(c, maps, n, m)
    for g in gates:
        left = sum(side == "L" for side, _ in least[g])
        unique = 2 * left < n and 2 * (len(least[g]) - left) < m
        assert analysis.minimal_support(g) == (least[g], unique), g

    assert analysis.all_supports() == least
    return len(gates)


def _sums_and_products():
    """Per row i, x_i1 + x_i2 and x_i1 * x_i2, whose sum and product are
    added: a DAG with gates of equal children and different labels, built
    times first in row 1 and plus first in row 2, so that the row swap maps
    no gate to the first gate over its children's images."""
    b = CircuitBuilder()
    x = {(i, j): b.var(var_name(i, j)) for i in (1, 2) for j in (1, 2)}
    row = {i: [(x[i, 1], 1), (x[i, 2], 1)] for i in (1, 2)}
    gates = [(g, 1) for g in (b.times(row[1]), b.plus(row[1]), b.plus(row[2]), b.times(row[2]))]
    return b.finish(b.plus([(b.plus(gates), 1), (b.times(gates), 1)]))


def _inputs():
    yield _sums_and_products(), 2, 2
    yield _doubled(_sums_and_products()), 2, 2
    for c, n in _criterion_3_cases(random.Random(33)):
        yield c, n, n
    for c, n in _analyze_inputs():
        if n <= 3:
            yield c, n, n
    for f in enumerate_bipartite_multigraphs(6, 8, 2)[::CENSUS_STRIDE]:
        for n, m in ((2, 2), (2, 3), (3, 3)):
            for shape in ("td", "pw", "tw"):
                yield compilers.compile_single(f, n, m, shape).circuit, n, m
    for f in (make_path(4), make_cycle(4)):
        for n, m in ((2, 2), (2, 3), (3, 3)):
            for shape in ("td", "pw", "tw"):
                yield _doubled(compilers.compile_single(f, n, m, shape).circuit), n, m


def test_analysis_matches_the_definitional_reference():
    circuits = gates = 0
    for c, n, m in _inputs():
        gates += _check(c, n, m)
        circuits += 1
    assert circuits > 300 and gates > 10_000


def test_analysis_matches_the_reference_on_all_of_sym4_x_sym4():
    assert _check(compilers.compile_single(make_cycle(4), 4, 4, "pw").circuit, 4, 4) == 110
