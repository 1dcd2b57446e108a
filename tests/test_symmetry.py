"""Group action on circuits: extension, rigidification, orbits, supports."""

import random
from fractions import Fraction

import pytest

from symcirc import compilers, symmetry
from symcirc.circuit import Circuit, CircuitBuilder, FORMULA, FORMULA_MULTI, SKEW
from symcirc.errors import NotRigid, NotSymmetric
from symcirc.pattern import make_complete_bipartite, make_cycle, make_path
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
    sig = symmetry._Extender(c).sig
    assert c.num_gates() == 10 and not c.validate(FORMULA_MULTI)[0]
    assert len(set(sig)) < len(sig)
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


def _identity_search_is_rigid(c):
    """The reference answer: the identity has at most one extension."""
    vn, vm = symmetry.circuit_variable_bounds(c)
    return len(symmetry._Extender(c).extend(PermutationPair.identity(vn, vm),
                                            count_limit=2)) <= 1


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
        extend_to_automorphism(c, PermutationPair.identity(1, 2))


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


def test_analyze_searches_generators_once_and_one_support_per_orbit(monkeypatch):
    n = m = 6
    extend, minimal_support = symmetry._Extender.extend, SymmetryAnalysis.minimal_support
    calls = {"extend": 0, "support": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symmetry._Extender, "extend", counted("extend", extend))
    monkeypatch.setattr(SymmetryAnalysis, "minimal_support", counted("support", minimal_support))
    for shape in ("td", "pw", "tw"):
        c = compilers.compile_single(make_path(3), n, m, shape).circuit
        orbit_count = len(SymmetryAnalysis(rigidify(c), n, m).orbits())
        calls.update(extend=0, support=0)
        analyze(c, n, m)
        assert calls["extend"] == (n - 1) + (m - 1), shape
        assert calls["support"] == orbit_count, shape


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


def test_supports_of_a_wide_sum_build_no_distant_map():
    # Every row holds a variable, so each support test moves a row; testing
    # an index against a distant class member once built the map of every
    # pair between them, recursively, and ran out of stack near n = 1000.
    # The map of (1 n) itself once recursed through every map (k n), k > 1.
    n = 1500
    analysis = SymmetryAnalysis(_sum_of_all_vars(n, 1), n, 1)
    swapped = list(range(n + 1))
    swapped[0], swapped[n - 1] = n - 1, 0
    assert analysis.transposition_map("L", 0, n - 1) == swapped
    assert set(analysis.all_supports()) == {frozenset()} | {frozenset({("L", i)}) for i in range(n)}
    assert max(len(orbit) for orbit in analysis.orbits()) == n


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
