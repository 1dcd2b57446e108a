"""Group action on circuits: extension, rigidification, orbits, supports."""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from symcirc import compilers, symmetry
from symcirc.circuit import Circuit, CircuitBuilder, FORMULA, FORMULA_MULTI, SKEW
from symcirc.errors import InvalidParameter, NotRigid, NotSymmetric
from symcirc.pattern import (
    enumerate_bipartite_multigraphs,
    make_complete_bipartite,
    make_cycle,
    make_path,
)
from symcirc.symmetry import (
    PermutationPair,
    SymmetryAnalysis,
    analyze,
    extend_to_automorphism,
    is_rigid,
    is_symmetric,
    random_symmetric_circuit,
    rigidify,
)


def _sum_of_all_vars(n, m):
    b = CircuitBuilder()
    gates = [(b.var(f"x_{i}_{j}"), 1) for i in range(1, n + 1) for j in range(1, m + 1)]
    return b.finish(b.plus(gates))


def test_identity_extends_to_identity():
    c = _sum_of_all_vars(2, 2)
    sols = extend_to_automorphism(c, PermutationPair.identity(2, 2))
    assert sols and all(v == k for k, v in sols[0].items())


def test_extension_on_compiled_formula():
    report = compilers.compile_single(make_path(2), 2, 2, "td")
    swap = PermutationPair.transposition(2, 2, "L", 0, 1)
    sols = extend_to_automorphism(report.circuit, swap)
    assert sols
    phi = sols[0]
    assert sorted(phi.values()) == list(range(report.circuit.num_gates()))


def test_missing_image_variable_blocks_extension():
    b = CircuitBuilder()
    c = b.finish(b.var("x_1_1"))
    swap = PermutationPair.transposition(2, 2, "L", 0, 1)
    assert extend_to_automorphism(c, swap) == []
    assert not is_symmetric(c, 2, 2)


def test_is_symmetric_examples():
    report = compilers.compile_single(make_path(3), 2, 2, "td")
    assert is_symmetric(report.circuit, 2, 2)
    b = CircuitBuilder()
    constant = b.finish(b.const(5))
    assert is_symmetric(constant, 2, 2)


def test_rigidify_fixpoint_on_rigid_circuit():
    report = compilers.compile_single(make_path(2), 2, 2, "td")
    c = report.circuit
    r = rigidify(c)
    assert r.num_gates() == c.num_gates()
    assert r.size() == c.size()


def test_rigidify_merges_duplicates():
    b = CircuitBuilder()

    def copy():
        gates = [(b.var(f"x_{i}_{j}"), 1) for i in (1, 2) for j in (1, 2)]
        return b.plus(gates)

    c = b.finish(b.plus([(copy(), 1), (copy(), 1)]))
    assert c.validate(FORMULA)[0]
    assert not is_rigid(c)
    r = rigidify(c)
    assert is_rigid(r)
    assert r.size() < c.size()
    assert r.validate(FORMULA_MULTI)[0]
    point = {f"x_{i}_{j}": Fraction(i * 7 + j) for i in (1, 2) for j in (1, 2)}
    assert c.evaluate(point) == r.evaluate(point)


def test_rigidify_merges_siblings_under_times():
    # Times gate over two sibling sums that are equal after normalization:
    # merged into a single child with wire multiplicity 2.
    b = CircuitBuilder()
    vars_ = [(b.var(f"x_{i}_{j}"), 1) for i in (1, 2) for j in (1, 2)]
    s1 = b.plus(vars_)
    s2 = b.plus(list(reversed(vars_)))
    c = b.finish(b.times([(s1, 1), (s2, 1)]))
    r = rigidify(c)
    assert is_rigid(r)
    rng = random.Random(0)
    for _ in range(10):
        point = {f"x_{i}_{j}": Fraction(rng.randint(-5, 5)) for i in (1, 2) for j in (1, 2)}
        assert c.evaluate(point) == r.evaluate(point)


def _renumbered(c, rng):
    """`c` with its gate ids shuffled, and the new id of each old one."""
    perm = list(range(c.num_gates()))
    rng.shuffle(perm)
    labels, children = [None] * len(perm), [None] * len(perm)
    for g, p in enumerate(perm):
        labels[p] = c.labels[g]
        children[p] = {perm[ch]: mult for ch, mult in c.children[g].items()}
    return Circuit(labels, children, perm[c.output]), perm


def _duplicated(c):
    """The sum of two copies of `c` sharing their input gates."""
    b = CircuitBuilder()
    first, second = b.copy(c)[c.output], b.copy(c)[c.output]
    return b.finish(b.plus([(first, 1), (second, 1)]))


def test_rigidify_returns_rigid_inputs_and_copies_the_rest(monkeypatch):
    # A compile, formula-shaped or not, is returned as it is, building no
    # gate, and so is any renumbering of it; summed with a copy of itself, a
    # compile that is not formula-shaped gives the sharing copy, byte for byte.
    built = []
    gate = CircuitBuilder.gate

    def counted_gate(self, *args):
        built.append(args)
        return gate(self, *args)

    monkeypatch.setattr(CircuitBuilder, "gate", counted_gate)
    rng = random.Random(4)
    for f in (make_path(4), make_cycle(4), make_complete_bipartite(2, 2)):
        for shape in ("td", "pw", "tw"):
            c = compilers.compile_single(f, 2, 3, shape).circuit
            assert c.validate(FORMULA_MULTI)[0] == (shape == "td")
            other, _ = _renumbered(c, rng)
            del built[:]
            assert rigidify(c) is c and rigidify(other) is other and not built
            if shape != "td":
                doubled = _duplicated(c)
                shared = CircuitBuilder(share=True)
                expected = shared.finish(shared.copy(doubled)[doubled.output])
                assert rigidify(doubled).serialize() == expected.serialize()


def test_only_formulas_get_signatures(monkeypatch):
    # The pw and tw compiles of C4 are not formula-shaped, and neither is a
    # pw compile summed with a copy of itself, which is not rigid: every check
    # on them compares structure keys and computes no signature.
    def no_signatures(*args):
        raise AssertionError("signatures computed for a circuit that is not a formula")

    monkeypatch.setattr(symmetry, "_gate_signatures", no_signatures)
    pw, tw = (compilers.compile_single(make_cycle(4), 3, 3, shape).circuit
              for shape in ("pw", "tw"))
    doubled = _duplicated(pw)
    summaries = []
    for c in (pw, tw, doubled):
        assert not c.validate(FORMULA_MULTI)[0]
        assert is_rigid(c) == (c is not doubled) and is_symmetric(c, 3, 3)
        assert (rigidify(c) is c) == (c is not doubled)
        report = analyze(c, 3, 3)
        summaries.append((report.max_orbit, report.max_support, report.support_depth))
    assert rigidify(doubled).num_gates() == pw.num_gates() + 1
    assert summaries[2] == summaries[0]


def _merging_dag():
    """A circuit that is not a formula, with two equal sums and then two
    equal products to merge."""
    b = CircuitBuilder()
    xs = [(b.var(f"x_{i}_{j}"), 1) for i in (1, 2) for j in (1, 2)]
    s1, s2 = b.plus(xs), b.plus(xs)
    return b.finish(b.plus([(b.times([(s1, 1), (s2, 1)]), 1), (b.times([(s1, 2)]), 1)]))


def _drop_one_multiplicity(result, image):
    children = [dict(ch) for ch in result.children]
    g, ch = next((g, ch) for g, kids in enumerate(children)
                 for ch, mult in kids.items() if mult > 1)
    children[g][ch] -= 1
    return Circuit(list(result.labels), children, result.output), image


def _send_one_gate_astray(result, image):
    image = list(image)
    g = next(g for g in range(len(image)) if image[g] != result.output
             and result.labels[image[g]] == result.labels[result.output])
    image[g] = result.output
    return result, image


@pytest.mark.parametrize("corrupt", [_drop_one_multiplicity, _send_one_gate_astray])
@pytest.mark.parametrize("branch", ["_rigidify_dag", "_rigidify_formula"])
def test_rigidify_proves_its_merge(monkeypatch, branch, corrupt):
    c = _merging_dag() if branch == "_rigidify_dag" else _duplicated(
        compilers.compile_single(make_path(3), 2, 2, "td").circuit)
    assert c.validate(FORMULA_MULTI)[0] == (branch == "_rigidify_formula")
    merge = getattr(symmetry, branch)
    assert rigidify(c).num_gates() < c.num_gates()
    monkeypatch.setattr(symmetry, branch, lambda c: corrupt(*merge(c)))
    with pytest.raises(InvalidParameter, match="rigidification changed gate"):
        rigidify(c)


def test_a_formula_that_is_not_rigid_is_merged_and_proved(monkeypatch):
    # A td compile summed with a copy of itself is a formula whose two
    # summands can swap: rigidify merges them and proves the merge by its
    # gate map, and analyze reports the merged circuit.  The td compile
    # itself comes back as it is, with no walk.
    calls = {}
    _counted(monkeypatch, symmetry, "_check_gate_map", calls)
    c = compilers.compile_single(make_path(3), 2, 2, "td").circuit
    doubled = _duplicated(c)
    assert doubled.validate(FORMULA_MULTI)[0] and not is_rigid(doubled)
    merged = rigidify(doubled)
    assert calls["_check_gate_map"] == 1
    assert merged.num_gates() < doubled.num_gates() and merged.validate(FORMULA_MULTI)[0]
    assert is_rigid(merged) and rigidify(merged) is merged
    assert analyze(doubled, 2, 2) == analyze(merged, 2, 2)
    assert calls["_check_gate_map"] == 2
    assert rigidify(c) is c and calls["_check_gate_map"] == 2


@pytest.mark.parametrize("labels, children, output, violation", [
    ([("var", "x_1_1"), ("var", "x_1_2"), ("plus",)], [{}, {}, {0: 1}], 2,
     "unreachable gates present"),
    ([("var", "x_1_1"), ("var", "x_1_1"), ("plus",)], [{}, {}, {0: 1, 1: 1}], 2,
     "duplicate input gate"),
    ([("var", "x_1_1"), ("plus",), ("times",)], [{}, {0: 1}, {1: 2}], 1,
     "output gate has parents"),
])
def test_rigidify_rejects_a_malformed_circuit(labels, children, output, violation):
    with pytest.raises(InvalidParameter, match=violation):
        rigidify(Circuit(labels, children, output))


def test_analyze_requires_symmetry():
    b = CircuitBuilder()
    c = b.finish(b.plus([(b.var("x_1_1"), 1), (b.var("x_1_2"), 2)]))
    with pytest.raises(NotSymmetric):
        analyze(c, 1, 2)


def test_extension_is_homomorphism_on_generators():
    # The unique extensions of rigid circuits compose like the group.
    report = compilers.compile_single(make_path(3), 2, 2, "td")
    c = report.circuit
    left = PermutationPair.transposition(2, 2, "L", 0, 1)
    right = PermutationPair.transposition(2, 2, "R", 0, 1)
    phi_l = extend_to_automorphism(c, left)[0]
    phi_r = extend_to_automorphism(c, right)[0]
    both = PermutationPair(left.pi, right.sigma)
    phi_both = extend_to_automorphism(c, both)[0]
    composed = {g: phi_l[phi_r[g]] for g in phi_r}
    assert composed == phi_both
    ident = {g: phi_l[phi_l[g]] for g in phi_l}
    assert all(v == k for k, v in ident.items())


def test_orbits_on_compiled_p2():
    report = compilers.compile_single(make_path(2), 2, 2, "td")
    analysis = SymmetryAnalysis(report.circuit, 2, 2)
    orbit_sizes = sorted(len(o) for o in analysis.orbits())
    assert analysis.max_orbit() == 4  # the four variable gates
    out_orbit = next(o for o in analysis.orbits() if report.circuit.output in o)
    assert len(out_orbit) == 1


def test_constant_gate_orbit_is_singleton():
    b = CircuitBuilder()
    gates = [(b.var(f"x_{i}_{j}"), 1) for i in (1, 2) for j in (1, 2)]
    c = b.finish(b.plus(gates + [(b.const(1), 2)]))
    analysis = SymmetryAnalysis(c, 2, 2)
    const_gate = next(g for g in range(c.num_gates()) if c.labels[g][0] == "const")
    orbit = next(o for o in analysis.orbits() if const_gate in o)
    assert orbit == [const_gate]


def test_minimal_support_examples():
    report = compilers.compile_single(make_path(3), 3, 3, "td")
    analysis = SymmetryAnalysis(report.circuit, 3, 3)
    out_sup, unique = analysis.minimal_support(report.circuit.output)
    assert out_sup == frozenset()
    assert unique
    c = report.circuit
    input_gate = next(g for g in range(c.num_gates()) if c.labels[g] == ("var", "x_1_1"))
    sup, unique = analysis.minimal_support(input_gate)
    assert sup == frozenset({("L", 0), ("R", 0)})
    assert unique


def test_minimal_support_flags_non_unique():
    report = compilers.compile_single(make_path(2), 2, 2, "td")
    analysis = SymmetryAnalysis(report.circuit, 2, 2)
    c = report.circuit
    input_gate = next(g for g in range(c.num_gates()) if c.labels[g] == ("var", "x_1_1"))
    # At n = m = 2 the one-per-side support is not strictly below half, and
    # any one row with any one column is as small: the lexicographically
    # least wins the tie.
    sup, unique = analysis.minimal_support(input_gate)
    assert sup == frozenset({("L", 0), ("R", 0)}) and not unique


def test_support_depth_examples():
    b = CircuitBuilder()
    c = b.finish(b.var("x_1_1"))
    analysis = SymmetryAnalysis(c, 1, 1)
    assert analysis.support_depth() == 0
    # One flat summation layer: the single support change input -> output.
    flat = _sum_of_all_vars(3, 3)
    analysis = SymmetryAnalysis(flat, 3, 3)
    assert analysis.support_depth() == 1
    # The compiled formulas change support once per elimination-forest level.
    for pattern_size, expected in ((2, 2), (3, 2)):
        report = compilers.compile_single(make_path(pattern_size), 3, 3, "td")
        analysis = SymmetryAnalysis(report.circuit, 3, 3)
        assert analysis.support_depth() == expected


def test_skew_compiler_gate_supports_are_bag_labellings():
    # The pathwidth compiler's working gates carry exactly the bag labelling
    # as their support: one row and one column index for P_3's size-one bags.
    report = compilers.compile_single(make_path(3), 3, 3, "pw")
    analysis = SymmetryAnalysis(report.circuit, 3, 3)
    supports = set(analysis.all_supports())
    for i in range(3):
        for j in range(3):
            assert frozenset({("L", i), ("R", j)}) in supports
    assert frozenset() in supports  # the output gate


def test_orbit_requires_rigid():
    b = CircuitBuilder()

    def copy():
        gates = [(b.var(f"x_{i}_{j}"), 1) for i in (1, 2) for j in (1, 2)]
        return b.plus(gates)

    c = b.finish(b.plus([(copy(), 1), (copy(), 1)]))
    with pytest.raises(NotRigid):
        SymmetryAnalysis(c, 2, 2)


def test_non_rigid_dag_raises_not_rigid():
    # g1 and g2 are interchangeable: swapping them fixes the product and the sum.
    b = CircuitBuilder()
    x1, x2 = b.var("x_1_1"), b.var("x_2_1")
    g1, g2 = (b.plus([(x1, 1), (x2, 1)]) for _ in range(2))
    c = b.finish(b.plus([(g1, 1), (g2, 1), (b.times([(g1, 1), (g2, 1)]), 1)]))
    assert not c.validate(FORMULA_MULTI)[0]
    assert is_symmetric(c, 2, 1) and not is_rigid(c)
    with pytest.raises(NotRigid):
        SymmetryAnalysis(c, 2, 1)


def test_analyze_checks_symmetry_before_rigidifying():
    # A rigid DAG whose signatures repeat (S1, S2 and S3), so is_rigid has to
    # search.  It is not symmetric, since swapping the rows would need S1 to
    # map to both S2 and S3, but its rigidification merges them and is.
    c = _ten_gate_dag()
    assert c.num_gates() == 10 and not c.validate(FORMULA_MULTI)[0]
    assert not symmetry._Extender(c).distinct
    assert is_rigid(c)
    assert not is_symmetric(c, 2, 1) and is_symmetric(rigidify(c), 2, 1)
    with pytest.raises(NotSymmetric):
        analyze(c, 2, 1)


def _ten_gate_dag():
    """The circuit of `test_analyze_checks_symmetry_before_rigidifying`."""
    b = CircuitBuilder()
    x1, x2 = b.var("x_1_1"), b.var("x_2_1")
    s1, s2, s3 = (b.plus([(x1, 1), (x2, 1)]) for _ in range(3))
    return b.finish(b.plus([(b.times([(s1, 1), (x1, 1)]), 1), (b.plus([(s1, 1), (x1, 1)]), 1),
                            (b.times([(s2, 1), (x2, 1)]), 1), (b.plus([(s3, 1), (x2, 1)]), 1)]))


def _with_one_wire_bumped(c):
    """c with the multiplicity of its first wire into a variable gate raised by one."""
    parent, child, mult = next(w for w in c.wires() if c.labels[w[1]][0] == "var")
    children = [dict(ch) for ch in c.children]
    children[parent][child] = mult + 1
    return Circuit(list(c.labels), children, c.output)


def _reference_report(c, n):
    """analyze's report, read off `SymmetryAnalysis(rigidify(c))` directly."""
    analysis = SymmetryAnalysis(rigidify(c), n, n)
    supports = analysis.all_supports()
    return {"n": n, "m": n, "maxOrb": analysis.max_orbit(), "maxSup": analysis.max_support(),
            "supportDepth": analysis.support_depth(),
            "perGate": [{"gate": g, "support": sorted((s, i + 1) for s, i in sup)}
                        for g, sup in enumerate(supports)]}


def test_analyze_matches_the_check_on_its_input():
    # analyze raises NotSymmetric exactly when is_symmetric(c) is false, and
    # otherwise reports the analysis of rigidify(c), whether it merged or not.
    from test_acceptance import _criterion_3_cases
    from test_golden import _analyze_inputs

    cases = _criterion_3_cases(random.Random(33)) + list(_analyze_inputs())
    cases += [(_with_one_wire_bumped(c), n) for c, n in cases] + [(_ten_gate_dag(), 2)]
    rejected = set()
    for k, (c, n) in enumerate(cases):
        merged = rigidify(c).num_gates() < c.num_gates()
        if is_symmetric(c, n, n):
            assert analyze(c, n, n).to_json() == _reference_report(c, n), k
        else:
            with pytest.raises(NotSymmetric):
                analyze(c, n, n)
            rejected.add(merged)
    assert rejected == {True, False}


def _summary(report):
    """What `analyze` reports, gate ids aside."""
    return (report.max_orbit, report.max_support, report.support_depth,
            sorted(tuple(entry["support"]) for entry in report.per_gate))


def _analyzed_on_its_own_gates(c, n, m, rng):
    """Whether analyze of c renumbered gives each gate of c its support in
    the analysis of c, as it does when rigidify returns both as they are."""
    report = analyze(c, n, m)
    other, perm = _renumbered(c, rng)
    assert rigidify(other) is other
    renumbered = analyze(other, n, m).per_gate
    return ([entry["gate"] for entry in report.per_gate] == list(range(c.num_gates()))
            and all(renumbered[perm[g]]["support"] == entry["support"]
                    for g, entry in enumerate(report.per_gate)))


def test_analyze_does_not_depend_on_gate_numbering():
    # Each gate's support is its own least one, whichever gate represents
    # its orbit.  Supports carried from the orbit's least gate changed the
    # report in 37 of these 450 renumberings.  A circuit that is rigid by
    # structure is analysed on its own gates, so each support follows its
    # gate.
    rng = random.Random(22)
    own = 0
    for k in range(150):
        n = rng.choice((2, 3, 4))
        c = random_symmetric_circuit(n, n, rng, rng.choice((40, 80, 160)),
                                     rng.choice(("general", "skew")))
        expected = _summary(analyze(c, n, n))
        for _ in range(3):
            assert _summary(analyze(_renumbered(c, rng)[0], n, n)) == expected, k
        if rigidify(c) is c:
            assert _analyzed_on_its_own_gates(c, n, n, rng), k
            own += 1
    assert own > 0
    for f in (make_path(3), make_path(4), make_cycle(4)):
        for n in (2, 3):
            for shape in ("td", "pw", "tw"):
                c = compilers.compile_single(f, n, n, shape).circuit
                assert _analyzed_on_its_own_gates(c, n, n, rng), (shape, n)


def test_every_td_compile_is_analysed_on_its_own_gates(monkeypatch):
    # A td compile is a rigid formula: rigidify returns it with no copy and
    # no gate-map walk, and analyze's per-gate ids are the compile's own.
    calls = {}
    _counted(monkeypatch, symmetry, "_check_gate_map", calls)
    rng = random.Random(6)
    for f in enumerate_bipartite_multigraphs(6, 8, max_mult=2)[::7]:
        for n, m in ((2, 2), (2, 3), (3, 3)):
            c = compilers.compile_single(f, n, m, "td").circuit
            assert rigidify(c) is c, (f.to_json(), n, m)
            if (n, m) == (2, 3):
                assert _analyzed_on_its_own_gates(c, n, m, rng), f.to_json()
    assert calls["_check_gate_map"] == 0


def _identity_search_is_rigid(c):
    """The reference answer: the identity has at most one extension."""
    extender = symmetry._Extender(c)
    vn, vm = extender.bounds
    return len(extender.extend(PermutationPair.identity(vn, vm), count_limit=2)) <= 1


def test_is_rigid_matches_the_identity_search():
    from test_acceptance import _criterion_3_cases
    from test_golden import _analyze_inputs

    circuits = [c for c, _ in _criterion_3_cases(random.Random(33))]
    circuits += [rigidify(c) for c in circuits]
    circuits += [c for c, _ in _analyze_inputs()]
    answers = [is_rigid(c) for c in circuits]
    assert answers == [_identity_search_is_rigid(c) for c in circuits]
    assert True in answers and False in answers


def test_extension_budget_cap(monkeypatch):
    from symcirc.errors import SizeCap

    # A DAG (not formula-shaped) with a tiny budget trips the cap.
    b = CircuitBuilder()
    shared = b.plus([(b.var("x_1_1"), 1), (b.var("x_1_2"), 1)])
    t1 = b.times([(shared, 1), (b.var("x_1_1"), 1)])
    t2 = b.times([(shared, 1), (b.var("x_1_2"), 1)])
    c = b.finish(b.plus([(t1, 1), (t2, 1)]))
    assert not c.validate(FORMULA_MULTI)[0]
    monkeypatch.setattr(symmetry, "NODE_BUDGET", 1)
    with pytest.raises(SizeCap):
        extend_to_automorphism(c, PermutationPair.transposition(1, 2, "R", 0, 1))


def test_gates_above_no_moved_variable_can_have_to_swap():
    # A and A2 sit above no variable, yet the row swap must exchange them, as
    # P = x_1_1 A maps to Q = x_2_1 A2.  Their signatures are equal, so the
    # DAG search may not fix the gates outside the up-set of the moved rows.
    b = CircuitBuilder()
    a, a2 = (b.plus([(b.const(1), 1), (b.const(2), 1)]) for _ in range(2))
    products = [b.times([(b.var(f"x_{i}_{j}"), 1), (shared, 1)])
                for j in (1, 2) for i, shared in ((1, a), (2, a2))]
    c = b.finish(b.plus([(p, 1) for p in products]))
    assert not c.validate(FORMULA_MULTI)[0] and not symmetry._Extender(c).distinct
    assert is_symmetric(c, 2, 2)
    phi = extend_to_automorphism(c, PermutationPair.transposition(2, 2, "L", 0, 1))
    assert phi and (phi[0][a], phi[0][a2]) == (a2, a)


def test_formula_subtrees_without_moved_variables_still_move():
    # Each copy of (x_3_3 + 1) * 2 holds no moved variable, but hangs under
    # a moved one, so the row swap maps each copy onto the other, all the way
    # down.
    b = CircuitBuilder()
    x33, one = b.var("x_3_3"), b.const(1)
    copies = [b.plus([(x33, 1), (one, 1)]) for _ in range(2)]
    doubled = [b.times([(copy, 1), (b.const(2), 1)]) for copy in copies]
    tops = [b.times([(b.var(f"x_{i}_1"), 1), (d, 1)]) for i, d in zip((1, 2), doubled)]
    c = b.finish(b.plus([(top, 1) for top in tops]))
    assert c.validate(FORMULA_MULTI)[0]
    phi = extend_to_automorphism(c, PermutationPair.transposition(3, 3, "L", 0, 1))[0]
    for pair in (copies, doubled, tops):
        assert [phi[g] for g in pair] == pair[::-1]
    assert phi[x33] == x33 and phi[one] == one and sorted(phi.values()) == list(range(c.num_gates()))


def test_a_circuit_whose_output_is_a_variable():
    b = CircuitBuilder()
    c = b.finish(b.var("x_1_1"))
    assert extend_to_automorphism(c, PermutationPair.transposition(3, 1, "L", 1, 2)) == [{0: 0}]
    assert is_rigid(c) and _identity_search_is_rigid(c)
    assert analyze(c, 1, 1).to_json() == {"n": 1, "m": 1, "maxOrb": 1, "maxSup": 0,
                                          "supportDepth": 0,
                                          "perGate": [{"gate": 0, "support": []}]}


def test_analyze_report():
    report = compilers.compile_single(make_path(3), 2, 2, "td")
    summary = analyze(report.circuit, 2, 2)
    data = summary.to_json()
    assert data["maxSup"] <= 2
    assert data["maxOrb"] >= 4
    assert data["supportDepth"] >= 1
    assert len(data["perGate"]) == rigidify(report.circuit).num_gates()


def test_random_symmetric_circuits_are_symmetric():
    rng = random.Random(21)
    for k in range(20):
        n = rng.choice((2, 3))
        mode = rng.choice(("general", "skew"))
        c = random_symmetric_circuit(n, n, rng, 40, mode)
        assert c.num_gates() <= 41
        assert is_symmetric(c, n, n), (k, mode)


def test_rigidify_all_conclusions_random():
    rng = random.Random(8)
    for k in range(25):
        n = rng.choice((2, 3))
        mode = rng.choice(("general", "skew"))
        c = random_symmetric_circuit(n, n, rng, 40, mode)
        was_skew = c.validate(SKEW)[0]
        r = rigidify(c)
        assert is_rigid(r)
        assert r.size() <= c.size()
        names = c.variables()
        for _ in range(10):
            point = {v: Fraction(rng.randint(-6, 6)) for v in names}
            assert c.evaluate(point) == r.evaluate(point)
        if was_skew:
            assert r.validate(SKEW)[0]


def _rigid_circuits_up_to_five():
    for f in (make_path(3), make_cycle(4), make_complete_bipartite(1, 3)):
        for n, m in ((3, 3), (3, 5), (5, 4)):
            for shape in ("td", "pw", "tw"):
                yield compilers.compile_single(f, n, m, shape).circuit, n, m
    rng = random.Random(13)
    for _ in range(12):
        n = rng.choice((3, 4, 5))
        c = random_symmetric_circuit(n, n, rng, 80, rng.choice(("general", "skew")))
        yield rigidify(c), n, n


def test_non_adjacent_maps_are_conjugates_of_the_searched_extension():
    # On a rigid circuit the composite of the generator maps along the word
    # (a a+1) ... (b-1 b) ... (a a+1) is the unique extension of (a b), and a
    # support test that follows a gate through that word agrees with it.
    for c, n, m in _rigid_circuits_up_to_five():
        analysis = SymmetryAnalysis(c, n, m)
        for side, size in (("L", n), ("R", m)):
            for a in range(size):
                for b in range(a + 2, size):
                    pair = PermutationPair.transposition(n, m, side, a, b)
                    phi = extend_to_automorphism(c, pair)[0]
                    expected = [phi[g] for g in range(c.num_gates())]
                    assert [analysis._fixes(g, side, a, b) for g in range(c.num_gates())] == \
                        [expected[g] == g for g in range(c.num_gates())], (side, a, b)
                    assert analysis.transposition_map(side, a, b) == expected, (side, a, b)


def _counted(monkeypatch, cls, name, calls):
    """Count the calls of method `name` of `cls` in calls[name]."""
    method = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    calls[name] = 0
    monkeypatch.setattr(cls, name, wrapper)


def test_every_generator_map_is_the_searched_extension():
    # The maps derived from (0 1) and the cycle by conjugation (on sides of
    # size >= 4) are the ones a search for each adjacent transposition returns.
    cases = list(_rigid_circuits_up_to_five())
    for f in (make_path(4), make_cycle(4)):
        for n in (5, 6, 8):
            for shape in ("td", "pw", "tw"):
                cases.append((compilers.compile_single(f, n, n, shape).circuit, n, n))
    for c, n, m in cases:
        tags = symmetry._generators(n, m)
        for (side, a, b), gmap in zip(tags, SymmetryAnalysis(c, n, m).generators(), strict=True):
            phi = extend_to_automorphism(c, PermutationPair.transposition(n, m, side, a, b))[0]
            assert gmap == [phi[g] for g in range(c.num_gates())], (n, m, side, a)


def test_analyze_searches_two_extensions_per_side_and_one_support_per_orbit(monkeypatch):
    n = m = 6
    calls = {}
    _counted(monkeypatch, symmetry._Extender, "extend", calls)
    _counted(monkeypatch, SymmetryAnalysis, "minimal_support", calls)
    for shape in ("td", "pw", "tw"):
        c = compilers.compile_single(make_path(3), n, m, shape).circuit
        orbit_count = len(SymmetryAnalysis(rigidify(c), n, m).orbits())
        calls.update(extend=0, minimal_support=0)
        analyze(c, n, m)
        assert calls["extend"] <= 2 + 2, shape
        assert calls["minimal_support"] == orbit_count, shape


def test_a_failed_cycle_search_keeps_the_map_of_0_1(monkeypatch):
    # x11 x21 x31 + x41 at 4 x 1: (0 1) extends and the cycle does not, so
    # the other generators are searched one by one.  Four searches: (0 1),
    # the cycle, (1 2), and (2 3), the first that does not extend.
    b = CircuitBuilder()
    product = b.times([(b.var(f"x_{i}_1"), 1) for i in (1, 2, 3)])
    c = b.finish(b.plus([(product, 1), (b.var("x_4_1"), 1)]))
    calls = {}
    _counted(monkeypatch, symmetry._Extender, "extend", calls)
    message = "the circuit is not symmetric: ('L', 2, 3) does not extend"
    with pytest.raises(NotSymmetric, match=f"^{re.escape(message)}$"):
        SymmetryAnalysis(c, 4, 1).generators()
    assert calls["extend"] == 4


def test_a_failed_search_of_0_1_is_not_repeated(monkeypatch):
    # x11 x31 + x21 x41 at 4 x 1: (0 1) does not extend, so one search
    # decides the side and names it.
    b = CircuitBuilder()
    products = [b.times([(b.var(f"x_{i}_1"), 1), (b.var(f"x_{i + 2}_1"), 1)]) for i in (1, 2)]
    c = b.finish(b.plus([(p, 1) for p in products]))
    calls = {}
    _counted(monkeypatch, symmetry._Extender, "extend", calls)
    message = "the circuit is not symmetric: ('L', 0, 1) does not extend"
    for run in (lambda: SymmetryAnalysis(c, 4, 1).generators(), lambda: analyze(c, 4, 1)):
        calls["extend"] = 0
        with pytest.raises(NotSymmetric, match=f"^{re.escape(message)}$"):
            run()
        assert calls["extend"] == 1


def test_is_symmetric_matches_every_adjacent_transposition():
    # Testing two generators per side decides what testing every adjacent
    # transposition does, on symmetric circuits, on copies made asymmetric by
    # one wire, and in a matrix with a row no variable holds.
    rng = random.Random(21)
    seen = set()
    for k in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        c = random_symmetric_circuit(n, m, rng, 40, rng.choice(("general", "skew")))
        if k % 2:
            c = _with_one_wire_bumped(c)
        for rows in (n, n + 1):
            expected = all(extend_to_automorphism(c, PermutationPair.transposition(rows, m, *tag))
                           for tag in symmetry._generators(rows, m))
            assert is_symmetric(c, rows, m) == expected, (k, rows)
            seen.add(expected)
    assert seen == {True, False}


def _three_of_four_rows():
    """x_1_1 x_2_1 x_3_1 + x_4_1: (0 1) and (1 2) extend, (2 3) does not."""
    b = CircuitBuilder()
    product = b.times([(b.var(f"x_{i}_1"), 1) for i in (1, 2, 3)])
    return b.finish(b.plus([(product, 1), (b.var("x_4_1"), 1)]))


def test_not_symmetric_names_the_first_generator_that_does_not_extend():
    c = _three_of_four_rows()
    assert not is_symmetric(c, 4, 1)
    message = "the circuit is not symmetric: ('L', 2, 3) does not extend"
    for run in (lambda: SymmetryAnalysis(c, 4, 1).generators(), lambda: analyze(c, 4, 1)):
        with pytest.raises(NotSymmetric) as caught:
            run()
        assert str(caught.value) == message
    analysis = SymmetryAnalysis(c, 4, 1)
    for a in (0, 1):
        phi = extend_to_automorphism(c, PermutationPair.transposition(4, 1, "L", a, a + 1))[0]
        assert analysis.transposition_map("L", a, a + 1) == [phi[g] for g in range(c.num_gates())]


def test_a_huge_matrix_around_a_small_circuit_stops_at_its_first_failing_generator():
    # Rows 0-2 of 10^6 hold the variables, so (2 3) is the first generator
    # that does not extend.  Listing all 10^6 generators before searching
    # any took 368 MB, and at n = 10^7 ended in a MemoryError.
    c = compilers.compile_single(make_path(3), 3, 3, "td").circuit
    tracemalloc.start()
    try:
        with pytest.raises(NotSymmetric, match=re.escape("('L', 2, 3) does not extend")):
            analyze(c, 10 ** 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_orbits_and_supports_are_kept_and_handed_out_as_copies():
    c = compilers.compile_single(make_path(2), 2, 2, "td").circuit
    analysis = SymmetryAnalysis(c, 2, 2)
    fresh = SymmetryAnalysis(c, 2, 2)
    orbits = analysis.orbits()
    orbits[0].append(-1)
    orbits.append([])
    assert analysis.orbits() == fresh.orbits()
    analysis.all_supports().clear()
    assert analysis.all_supports() == fresh.all_supports()


def test_generators_that_move_no_variable_map_gates_to_themselves(monkeypatch):
    # A one-gate constant circuit has no variable, so each of the 2 * 4999
    # generators extends to the identity; building their permutation pairs
    # made analyze quadratic in the matrix size.
    def refuse(*args):
        raise AssertionError("built a permutation pair")

    monkeypatch.setattr(PermutationPair, "transposition", staticmethod(refuse))
    b = CircuitBuilder()
    c = b.finish(b.const(Fraction(7, 2)))
    assert is_symmetric(c, 5000, 5000)
    report = analyze(c, 5000, 5000)
    assert (report.max_orbit, report.max_support, report.support_depth) == (1, 0, 0)
    assert SymmetryAnalysis(c, 5000, 5000).transposition_map("R", 3, 4000) == [0]


def test_sides_without_a_variable_cost_nothing_to_analyze():
    # Orbits and supports once walked all 2 * 19999 generator maps, each the
    # identity here, and sorted all 20000 indices of each side into classes:
    # about 1 s and a 12.5 MB peak.
    b = CircuitBuilder()
    c = b.finish(b.const(3))
    tracemalloc.start()
    try:
        report = analyze(c, 20000, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.max_orbit, report.max_support, report.support_depth) == (1, 0, 0)
    assert peak < 2 ** 20


def test_supports_of_a_wide_sum_build_no_distant_map(monkeypatch):
    # Every row holds a variable, so each support test moves a row; testing
    # an index against a distant class member once built the map of every
    # pair between them, recursively, and ran out of stack near n = 1000.
    # The map of (1 n) itself once recursed through every map (k n), k > 1.
    # The 1499 generator maps come from the searches for (0 1) and the cycle.
    n = 1500
    calls = {}
    _counted(monkeypatch, symmetry._Extender, "extend", calls)
    analysis = SymmetryAnalysis(_sum_of_all_vars(n, 1), n, 1)
    swapped = list(range(n + 1))
    swapped[0], swapped[n - 1] = n - 1, 0
    assert analysis.transposition_map("L", 0, n - 1) == swapped
    assert set(analysis.all_supports()) == {frozenset()} | {frozenset({("L", i)}) for i in range(n)}
    assert max(len(orbit) for orbit in analysis.orbits()) == n
    assert calls["extend"] <= 2


def test_unmoved_rows_and_columns_keep_the_searched_maps():
    # Matrix variables in the first rows and columns only: a transposition
    # among the others fixes every variable, and on a rigid circuit its map is
    # the identity a search would also find.
    for c, n, m in _rigid_circuits_up_to_five():
        big = SymmetryAnalysis(c, n + 2, m + 2)
        extender = symmetry._Extender(c)
        for side, size in (("L", n + 2), ("R", m + 2)):
            for a in range(size):
                for b in range(a + 1, size):
                    if not extender.moves(side, a, b):
                        pair = PermutationPair.transposition(n + 2, m + 2, side, a, b)
                        phi = extend_to_automorphism(c, pair)[0]
                        assert big.transposition_map(side, a, b) == \
                            [phi[g] for g in range(c.num_gates())]
