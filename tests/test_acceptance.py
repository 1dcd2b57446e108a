"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic, zero tolerance); each test prints
one CRITERION line.  The compiler sweep in criterion 1 fans out over a small
process pool because it compiles every bipartite multigraph pattern within
the caps at nine host sizes; everything else runs inline.
"""

import itertools
import math
import multiprocessing
import random
from fractions import Fraction

from symcirc import compilers, oracle, reduce, symmetry, width
from symcirc.circuit import CircuitBuilder, FORMULA_MULTI, GENERAL, SKEW
from symcirc.oracle import ColouredGraph, WeightedHost
from symcirc.pattern import (
    BipartiteMultigraph,
    enumerate_bipartite_multigraphs,
    find_minor,
    make_complete_binary_tree,
    make_complete_bipartite,
    make_cycle,
    make_grid,
    make_path,
)


def _report(number: int, ok: bool, detail: str):
    print(f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: compiler correctness -------------------------------------------------


def _check_pattern_against_oracle(payload):
    """Worker: all host sizes, all three compilers, for one pattern."""
    graph_json, seed = payload
    f = BipartiteMultigraph.from_json(graph_json)
    rng = random.Random(seed)
    failures = []
    # One certificate per shape, compiled at every host size.
    certificates = [("td", width.treedepth_exact(f)[1]), ("pw", width.pathwidth_exact(f)[1]),
                    ("tw", width.treewidth_exact(f)[1])]
    for n, m in itertools.product((1, 2, 3), repeat=2):
        hom = oracle.hom_poly(f, n, m)
        circuits = []
        for shape, certificate in certificates:
            report = compilers.compile_certificate(f, certificate, n, m)
            if not report.circuit.expand_symbolic() == hom:
                failures.append(f"{graph_json} {shape} {n}x{m}: symbolic mismatch")
                continue
            circuits.append(report.circuit)
        # Exhaustive 0/1 hosts (n*m <= 9 entries): compare circuit evaluation
        # against the oracle polynomial through its monomial support masks.
        names = sorted(hom.variables)
        position = {v: k for k, v in enumerate(names)}
        masked_terms = [
            (sum(1 << position[v] for v, e in zip(hom.variables, exp) if e), coeff)
            for exp, coeff in hom.terms.items()
        ]
        entries = n * m
        for host_mask in range(1 << entries):
            assignment = {name: (host_mask >> k) & 1 for k, name in enumerate(names)}
            want = sum(coeff for mask, coeff in masked_terms if mask & ~host_mask == 0)
            for circuit in circuits:
                if circuit.evaluate(assignment) != want:
                    failures.append(f"{graph_json} {n}x{m}: 0/1 host {host_mask} mismatch")
                    break
        for _ in range(5):
            assignment = {name: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for name in names}
            want = hom.evaluate(assignment)
            for circuit in circuits:
                if circuit.evaluate(assignment) != want:
                    failures.append(f"{graph_json} {n}x{m}: rational host mismatch")
                    break
    return failures


def test_criterion_01_compiler_correctness():
    patterns = enumerate_bipartite_multigraphs(max_vertices=6, max_slots=8, max_mult=2)
    payloads = [(f.to_json(), 1000 + idx) for idx, f in enumerate(patterns)]
    failures = []
    try:
        with multiprocessing.get_context("fork").Pool(2) as pool:
            for result in pool.imap_unordered(_check_pattern_against_oracle, payloads,
                                              chunksize=16):
                failures.extend(result)
    except (OSError, ValueError):
        for payload in payloads:
            failures.extend(_check_pattern_against_oracle(payload))
    detail = (f"{len(patterns)} patterns x 9 host sizes x 3 compilers vs brute-force "
              f"oracle (symbolic, exhaustive 0/1, 5 rational hosts); "
              f"{len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(1, not failures, detail)


# -- criterion 2: shape, symmetry, and construction bounds ------------------------------


def _criterion_2_patterns():
    return {
        "P2": make_path(2), "P3": make_path(3), "P4": make_path(4),
        "P5": make_path(5), "P6": make_path(6),
        "star2": make_complete_bipartite(1, 2), "star3": make_complete_bipartite(1, 3),
        "star4": make_complete_bipartite(1, 4),
        "C4": make_cycle(4), "K22": make_complete_bipartite(2, 2),
        "B3": make_complete_binary_tree(3),
    }


def test_criterion_02_shape_and_symmetry():
    failures = []
    for name, f in sorted(_criterion_2_patterns().items()):
        d, forest = width.treedepth_exact(f)
        pw, pdeco = width.pathwidth_exact(f)
        for nm in (2, 3, 4):
            td_rep = compilers.compile_certificate(f, forest, nm, nm)
            if not td_rep.circuit.validate(FORMULA_MULTI)[0]:
                failures.append(f"{name}@{nm}: td shape")
            if not symmetry.is_symmetric(td_rep.circuit, nm, nm):
                failures.append(f"{name}@{nm}: td symmetry")
            size_bound = (f.num_vertices() * f.num_edge_slots() * (nm + nm)) ** d
            if td_rep.circuit.size() > size_bound:
                failures.append(f"{name}@{nm}: td size {td_rep.circuit.size()} > {size_bound}")
            analysis = symmetry.SymmetryAnalysis(td_rep.circuit, nm, nm)
            if analysis.max_support() > d:
                failures.append(f"{name}@{nm}: maxSup {analysis.max_support()} > {d}")

            pw_rep = compilers.compile_certificate(f, pdeco, nm, nm)
            if not pw_rep.circuit.validate(SKEW)[0]:
                failures.append(f"{name}@{nm}: pw shape")
            if not symmetry.is_symmetric(pw_rep.circuit, nm, nm):
                failures.append(f"{name}@{nm}: pw symmetry")
            orbit_bound = (2 * nm) ** (pw + 1)
            pw_analysis = symmetry.SymmetryAnalysis(pw_rep.circuit, nm, nm)
            if pw_analysis.max_orbit() > orbit_bound:
                failures.append(f"{name}@{nm}: maxOrb {pw_analysis.max_orbit()} > {orbit_bound}")

            tw_rep = compilers.compile_single(f, nm, nm, "tw")
            if not tw_rep.circuit.validate(GENERAL)[0]:
                failures.append(f"{name}@{nm}: tw shape")
            if not symmetry.is_symmetric(tw_rep.circuit, nm, nm):
                failures.append(f"{name}@{nm}: tw symmetry")
    detail = (f"{len(_criterion_2_patterns())} patterns at n=m in {{2,3,4}}: shapes, "
              f"symmetry, td size/support bounds, pw orbit bound; {len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(2, not failures, detail)


# -- criterion 3: rigidification --------------------------------------------------------


def _duplicated_formula(rng: random.Random):
    base_patterns = [make_path(2), BipartiteMultigraph(1, 1, {(0, 0): 2}),
                     make_complete_bipartite(1, 2)]
    f = rng.choice(base_patterns)
    n = 2
    inner = compilers.compile_single(f, n, n, "td").circuit
    builder = CircuitBuilder()
    first = builder.copy(inner)[inner.output]
    second = builder.copy(inner)[inner.output]
    return builder.finish(builder.plus([(first, 1), (second, 1)])), n


def _criterion_3_cases(rng: random.Random):
    """80 general and 80 skew random symmetric circuits, then 40 formulas
    summed with a copy of themselves, each with its n = m."""
    cases = []
    while len(cases) < 80:
        n = rng.choice((2, 3))
        cases.append((symmetry.random_symmetric_circuit(n, n, rng, 40, "general"), n))
    while len(cases) < 160:
        n = rng.choice((2, 3))
        cases.append((symmetry.random_symmetric_circuit(n, n, rng, 40, "skew"), n))
    while len(cases) < 200:
        circuit, n = _duplicated_formula(rng)
        if circuit.num_gates() <= 40:
            cases.append((circuit, n))
    return cases


def test_criterion_03_rigidification():
    rng = random.Random(33)
    failures = []
    cases = _criterion_3_cases(rng)
    for idx, (circuit, n) in enumerate(cases):
        was_skew = circuit.validate(SKEW)[0]
        was_formula = circuit.validate(FORMULA_MULTI)[0]
        rigid = symmetry.rigidify(circuit)
        if not symmetry.is_rigid(rigid):
            failures.append(f"case {idx}: not rigid")
        if rigid.size() > circuit.size():
            failures.append(f"case {idx}: size grew")
        names = circuit.variables()
        for _ in range(10):
            point = {v: Fraction(rng.randint(-8, 8)) for v in names}
            if circuit.evaluate(point) != rigid.evaluate(point):
                failures.append(f"case {idx}: value changed")
                break
        if was_skew and not rigid.validate(SKEW)[0]:
            failures.append(f"case {idx}: skewness lost")
        if was_formula and not rigid.validate(FORMULA_MULTI)[0]:
            failures.append(f"case {idx}: formula-with-multiedges lost")
    detail = f"{len(cases)} random symmetric circuits, all four conclusions; " \
             f"{len(failures)} failures"
    if failures:
        detail += " | first: " + failures[0]
    _report(3, not failures, detail)


# -- criterion 4: support-depth inequality ------------------------------------------------


def test_criterion_04_support_depth_inequality():
    n = 8
    failures = []
    tested = 0
    for name, f in sorted(_criterion_2_patterns().items()):
        if f.num_vertices() > 6:
            continue
        _, forest = width.treedepth_exact(f)
        report = compilers.compile_certificate(f, forest, n, n)
        analysis = symmetry.SymmetryAnalysis(report.circuit, n, n)
        max_sup = analysis.max_support()
        if max_sup > 4:
            continue
        depth = analysis.support_depth()
        bound = Fraction(n, 2) ** depth
        tested += 1
        if analysis.max_orbit() < bound:
            failures.append(
                f"{name}: maxOrb {analysis.max_orbit()} < (n/2)^{depth} = {bound}")
    detail = (f"{tested} compiled formulas at n=m=8 with maxSup<=4: "
              f"maxOrb >= (min(n,m)/2)^supportDepth; {len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(4, not failures and tested >= 8, detail)


# -- criterion 5: reduction identities -----------------------------------------------------


def test_criterion_05_reduction_identities():
    rng = random.Random(55)
    failures = []

    # Uncolour: random rational hosts plus the exhaustive 0/1 sweep at n=1.
    for f in (make_path(2), make_path(3)):
        colours = [v + 1 for v in f.vertices()]
        pairs = [(a, b) for a in colours for b in colours if a <= b]
        for _ in range(5):
            g = ColouredGraph.random({c: 1 for c in colours}, pairs, rng)
            try:
                reduce.uncolour_expand(f, colours, 1, g)
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                failures.append(f"uncolour {f!r}: {exc}")
    p2 = make_path(2)
    for bits in itertools.product((0, 1), repeat=3):
        g = ColouredGraph({1: 1, 2: 1})
        for value, (a, b) in zip(bits, ((1, 1), (1, 2), (2, 2))):
            g.set_weight((a, 0), (b, 0), Fraction(value))
        try:
            reduce.uncolour_expand(p2, [1, 2], 1, g)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"uncolour 0/1 {bits}: {exc}")

    # Product-colourful: random and exhaustive 0/1 at one-vertex classes.
    p3 = make_path(3)
    sizes = {v + 1: 2 for v in p3.vertices()}
    pairs3 = [(u + 1, v + 1) for (u, v, _) in p3.edge_list_global()]
    for _ in range(5):
        g = ColouredGraph.random(sizes, pairs3, rng)
        h = ColouredGraph.random(sizes, pairs3, rng)
        if oracle.colhom_eval(p3, reduce.tensor_product(g, h)) != \
                oracle.colhom_eval(p3, g) * oracle.colhom_eval(p3, h):
            failures.append("product at random hosts")
    small = {v + 1: 1 for v in p3.vertices()}
    for gb in itertools.product((0, 1), repeat=2):
        for hb in itertools.product((0, 1), repeat=2):
            g = ColouredGraph(small)
            h = ColouredGraph(small)
            for value, (a, b) in zip(gb, pairs3):
                g.set_weight((a, 0), (b, 0), Fraction(value))
            for value, (a, b) in zip(hb, pairs3):
                h.set_weight((a, 0), (b, 0), Fraction(value))
            if oracle.colhom_eval(p3, reduce.tensor_product(g, h)) != \
                    oracle.colhom_eval(p3, g) * oracle.colhom_eval(p3, h):
                failures.append(f"product 0/1 {gb} {hb}")

    # Interpolation slices.
    sub = BipartiteMultigraph(2, 1, {(0, 0): 1})
    colouring = {0: 1, 1: 2, 2: 3}

    def combined(g):
        return oracle.coloured_hom_eval(sub, colouring, g) + oracle.colhom_eval(p3, g)

    for _ in range(5):
        g = ColouredGraph.random({1: 2, 2: 2, 3: 2}, [(1, 3), (2, 3)], rng)
        if reduce.degree_slice(combined, 1, 2, g) != \
                oracle.coloured_hom_eval(sub, colouring, g):
            failures.append("slice k=1")
        if reduce.degree_slice(combined, 2, 2, g) != oracle.colhom_eval(p3, g):
            failures.append("slice k=2")

    # Minor projection: (P_2 into P_3) and (C_4 into the 2x3 grid).
    for s, fprime in ((p2, p3), (make_cycle(4), make_grid(2, 3))):
        branch = find_minor(s, fprime)
        if branch is None:
            failures.append(f"minor witness missing for {s!r}")
            continue
        s_pairs = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
        for _ in range(5):
            y = ColouredGraph.random({v + 1: 2 for v in s.vertices()}, s_pairs, rng)
            gadget = reduce.minor_gadget(fprime, s, branch, 2, y)
            if oracle.colhom_eval(fprime, gadget) != oracle.colhom_eval(s, y):
                failures.append(f"minor projection {s!r}")
        # Exhaustive 0/1 sweep at class size 1.
        for bits in itertools.product((0, 1), repeat=len(s_pairs)):
            y = ColouredGraph({v + 1: 1 for v in s.vertices()})
            for value, (a, b) in zip(bits, s_pairs):
                y.set_weight((a, 0), (b, 0), Fraction(value))
            gadget = reduce.minor_gadget(fprime, s, branch, 1, y)
            if oracle.colhom_eval(fprime, gadget) != oracle.colhom_eval(s, y):
                failures.append(f"minor projection 0/1 {s!r} {bits}")

    # Quotient identity, including the worked 2 + 2x case and a 0/1 sweep.
    x = Fraction(9, 7)
    if oracle.hom_count(p2, reduce.bipartite_double(WeightedHost(1, 1, {(0, 0): x}))) != 2 + 2 * x:
        failures.append("quotient worked case")
    for f in (p2, p3, make_cycle(4)):
        for _ in range(5):
            g = WeightedHost.random(2, 2, rng)
            if not reduce.check_quotient_identity(f, g):
                failures.append(f"quotient random {f!r}")
        for bits in itertools.product((0, 1), repeat=1):
            g = WeightedHost(1, 1, {(0, 0): Fraction(bits[0])})
            if not reduce.check_quotient_identity(f, g):
                failures.append(f"quotient 0/1 {f!r}")

    # hom-to-emb for every pattern with at most 3 vertices per side.
    candidates = [f for f in enumerate_bipartite_multigraphs(6, 6, max_mult=2)
                  if f.a_count <= 3 and f.b_count <= 3]
    for f in candidates:
        host = WeightedHost.random(3, 3, rng)
        if sum(oracle.emb_eval(t, host) for t in oracle.hom_to_emb_terms(f)) != \
                oracle.hom_count(f, host):
            failures.append(f"hom-to-emb {f!r}")
    for f in candidates[:40]:
        for mask in range(16):
            host = WeightedHost(2, 2, {(i, j): Fraction((mask >> (2 * i + j)) & 1)
                                       for i in range(2) for j in range(2)})
            if sum(oracle.emb_eval(t, host) for t in oracle.hom_to_emb_terms(f)) != \
                    oracle.hom_count(f, host):
                failures.append(f"hom-to-emb 0/1 {f!r}")
                break

    detail = (f"uncolour/product/slice/minor/quotient/hom-to-emb identities "
              f"({len(candidates)} hom-to-emb patterns); {len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(5, not failures, detail)


# -- criterion 6: gadget identities ---------------------------------------------------------


def test_criterion_06_gadget_identities():
    rng = random.Random(66)
    failures = []
    # Clique gadget, n = 1 and n = 2.
    if oracle.colhom_eval(make_grid(1, 1), reduce.clique_grid_gadget(1, {})) != 2:
        failures.append("clique n=1")
    ones = {(i, j): Fraction(1) for i in range(1, 5) for j in range(i + 1, 5)}
    if oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, ones)) != 6:
        failures.append("clique all-ones != C(4,2)")
    probe = dict(ones)
    probe[(1, 2)] = Fraction(0)
    if oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, probe)) != 5:
        failures.append("clique zero probe")
    for _ in range(3):
        y = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(1, 5)
             for j in range(i + 1, 5)}
        if oracle.colhom_eval(make_grid(2, 2), reduce.clique_grid_gadget(2, y)) != \
                reduce.clique_poly(2, y):
            failures.append("clique random")
    # Binary-tree gadget, m = 1 and m = 2, against independent expansion.
    if oracle.colhom_eval(make_complete_binary_tree(1),
                          reduce.btree_vp_gadget(1, {1: Fraction(1)}, {})) != \
            reduce.btree_vp_poly(1, {1: Fraction(1)}, {}):
        failures.append("btree m=1")
    x = {i: Fraction(1) for i in range(1, 65)}
    x[1] = Fraction(2)
    y = {(i, j): Fraction(1) for i in range(1, 65) for j in range(i, 65)}
    if oracle.colhom_eval(make_complete_binary_tree(2), reduce.btree_vp_gadget(2, x, y)) != \
            reduce.btree_vp_poly(2, x, y):
        failures.append("btree m=2")
    # m = 2 again at three seeded random rational points, half their entries
    # zero so that both 262,144-map sums stay short, from a generator of
    # their own so the path points below stay as they were.
    tree_rng = random.Random(62)

    def rational():
        if tree_rng.random() < 0.5:
            return Fraction(0)
        return Fraction(tree_rng.randint(-3, 3), tree_rng.randint(1, 3))

    for _ in range(3):
        x = {i: rational() for i in range(1, 65)}
        y = {(i, j): rational() for i in range(1, 65) for j in range(i, 65)}
        if oracle.colhom_eval(make_complete_binary_tree(2), reduce.btree_vp_gadget(2, x, y)) != \
                reduce.btree_vp_poly(2, x, y):
            failures.append("btree m=2 random")
    # Path gadget, m = 1 and m = 2.
    for m in (1, 2):
        size = m ** 2
        xr = {i: Fraction(rng.randint(-3, 3)) for i in range(1, size + 1)}
        yr = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(1, size + 1)
              for j in range(i, size + 1)}
        if oracle.colhom_eval(make_path(m + 2), reduce.path_vbp_gadget(m, xr, yr)) != \
                reduce.path_vbp_poly(m, xr, yr):
            failures.append(f"path m={m}")
    detail = f"clique/btree/path gadget identities; {len(failures)} failures"
    if failures:
        detail += " | first: " + failures[0]
    _report(6, not failures, detail)


# -- criterion 7: the CFI claim ---------------------------------------------------------------


def _coloured_candidates(s: BipartiteMultigraph, class_cap: int):
    """All S-coloured multigraphs with |E(S)| edges and no isolated vertices,
    class sizes at most class_cap, up to coloured isomorphism.

    Candidates are multisets of coloured edges; member ids are canonical
    (first-appearance order per class), which both deduplicates and rules out
    isolated vertices automatically.
    """
    s_edges = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
    k = s.num_edge_slots()
    options = [(pair, i, j) for pair in range(len(s_edges))
               for i in range(class_cap) for j in range(class_cap)]
    seen = set()

    def canonical(edges):
        relabel = {}
        out = []
        for (pair, i, j) in edges:
            cu, cv = s_edges[pair]
            ui = relabel.setdefault((cu, i), len([1 for (c, _) in relabel if c == cu]))
            vj = relabel.setdefault((cv, j), len([1 for (c, _) in relabel if c == cv]))
            out.append((pair, ui, vj))
        return tuple(sorted(out))

    def rec(start, chosen):
        if len(chosen) == k:
            key = canonical(chosen)
            if key not in seen:
                seen.add(key)
                yield key
            return
        for idx in range(start, len(options)):
            chosen.append(options[idx])
            yield from rec(idx, chosen)
            chosen.pop()

    yield from rec(0, [])


def _candidate_to_graph(s: BipartiteMultigraph, key):
    """Build (graph, colouring) for a coloured edge multiset."""
    s_edges = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
    side_of = {v + 1: s.side(v) for v in s.vertices()}
    a_vertices = {}
    b_vertices = {}
    edges = {}
    for (pair, i, j) in key:
        cu, cv = s_edges[pair]
        ua = (cu, i) if side_of[cu] == "A" else (cv, j)
        vb = (cv, j) if side_of[cv] == "B" else (cu, i)
        ai = a_vertices.setdefault(ua, len(a_vertices))
        bj = b_vertices.setdefault(vb, len(b_vertices))
        edges[(ai, bj)] = edges.get((ai, bj), 0) + 1
    g = BipartiteMultigraph(len(a_vertices), len(b_vertices), edges)
    colouring = {}
    for (c, _), idx in a_vertices.items():
        colouring[idx] = c
    for (c, _), idx in b_vertices.items():
        colouring[len(a_vertices) + idx] = c
    return g, colouring


def _is_coloured_copy_of_base(s: BipartiteMultigraph, h: BipartiteMultigraph,
                              colouring) -> bool:
    """H iso to (S, identity) as coloured graphs: one vertex per colour and
    the coloured edge multiset equal to E(S)."""
    if h.num_vertices() != s.num_vertices():
        return False
    colours = sorted(colouring[v] for v in h.vertices())
    if colours != sorted(v + 1 for v in s.vertices()):
        return False
    want = {}
    for (i, j), mult in s.edges.items():
        want[frozenset((i + 1, s.a_count + j + 1))] = \
            want.get(frozenset((i + 1, s.a_count + j + 1)), 0) + mult
    have = {}
    for (i, j), mult in h.edges.items():
        key = frozenset((colouring[i], colouring[h.a_count + j]))
        have[key] = have.get(key, 0) + mult
    return want == have


def test_criterion_07_cfi_claim():
    failures = []
    total = 0
    bases = {"P2": make_path(2), "P3": make_path(3), "P4": make_path(4),
             "C4": make_cycle(4)}
    for name, s in sorted(bases.items()):
        pair = reduce.cfi_pair(s)
        cap = 2 ** (s.max_degree() - 1) + 1
        for key in _coloured_candidates(s, cap):
            h, colouring = _candidate_to_graph(s, key)
            total += 1
            even = oracle.coloured_hom_eval(h, colouring, pair.even)
            odd = oracle.coloured_hom_eval(h, colouring, pair.odd)
            is_copy = _is_coloured_copy_of_base(s, h, colouring)
            if (even != odd) != is_copy:
                failures.append(f"{name}: candidate {key} even={even} odd={odd} "
                                f"iso={is_copy}")
    detail = (f"{total} S-coloured candidates over P2/P3/P4/C4: "
              f"hom(H,S0) != hom(H,S1) iff H iso S; {len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(7, not failures and total > 100, detail)


# -- criterion 8: extraction pipelines ---------------------------------------------------------


def _circuit_backed_hom_oracle(f: BipartiteMultigraph, size: int):
    """An oracle handle for hom_{F,size} backed by a compiled circuit."""
    report = compilers.compile_single(f, size, size, "tw")
    circuit = report.circuit
    names = circuit.variables()

    def evaluate(host: WeightedHost):
        assignment = {}
        for name in names:
            from symcirc.circuit import parse_var_name

            i, j = parse_var_name(name)
            assignment[name] = host.get(i - 1, j - 1)
        return circuit.evaluate(assignment)

    return reduce.OracleHandle(evaluate, f"tw circuit for hom at size {size}")


def test_criterion_08_extraction_pipelines():
    rng = random.Random(88)
    failures = []
    p2, p3 = make_path(2), make_path(3)
    p3_doubled = BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1})
    grid = make_cycle(4)

    cases = [
        ("subgraph", p3, p2), ("subgraph", p3_doubled, p2), ("minor", grid, p3),
    ]
    for kind, f, s in cases:
        d = s.max_degree()
        for n in (1, 2):
            size = (2 ** (d - 1 if kind == "subgraph" else d)) * s.num_vertices() * n
            if size <= 12:
                handle = reduce.brute_hom_oracle(f)
            else:
                handle = _circuit_backed_hom_oracle(f, size)
                # Cross-check the circuit-backed handle against brute force once.
                probe = WeightedHost.random(size, size, rng, lo=0, hi=1, den=1)
                brute_small = oracle.hom_count(f, probe) if size ** f.a_count * size ** f.b_count <= 10 ** 7 else None
                if brute_small is not None and handle(probe) != brute_small:
                    failures.append(f"{kind} {n}: oracle handle mismatch")
                    continue
            if kind == "subgraph":
                evaluator = reduce.extract_colhom_via_subgraph(f, s, n, handle)
            else:
                evaluator = reduce.extract_colhom_via_minor(f, s, n, handle)
            s_pairs = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
            for _ in range(5):
                g = ColouredGraph.random({v + 1: n for v in s.vertices()}, s_pairs, rng)
                if evaluator(g) != oracle.colhom_eval(s, g):
                    failures.append(f"{kind} {f!r}->{s!r} n={n}")
                    break

    def lincomb(host):
        return oracle.hom_count(p2, host) + 2 * oracle.hom_count(p3, host)

    for ell, pattern in ((0, p2), (1, p3)):
        evaluator = reduce.extract_single_from_lincomb(
            lincomb, [p2, p3], [Fraction(1), Fraction(2)], ell, 2, 3, seed=7)
        for _ in range(5):
            g = WeightedHost.random(2, 2, rng)
            if evaluator(g) != oracle.hom_count(pattern, g):
                failures.append(f"lincomb extraction ell={ell}")
                break
    detail = f"subgraph/minor/lincomb extraction vs colhom oracle; {len(failures)} failures"
    if failures:
        detail += " | first: " + failures[0]
    _report(8, not failures, detail)


# -- criterion 9: width golden set and inequalities ---------------------------------------------


GOLDEN_WIDTHS = [
    # (name, graph, tw, pw, td)
    ("P2", make_path(2), 1, 1, 2),
    ("P3", make_path(3), 1, 1, 2),
    ("P5", make_path(5), 1, 1, 3),
    ("P8", make_path(8), 1, 1, 4),
    ("K13", make_complete_bipartite(1, 3), 1, 1, 2),
    ("K15", make_complete_bipartite(1, 5), 1, 1, 2),
    ("C4", make_cycle(4), 2, 2, 3),
    ("C6", make_cycle(6), 2, 2, 4),
    ("K23", make_complete_bipartite(2, 3), 2, 2, 3),
    ("B7", make_complete_binary_tree(7), 1, 1, 3),
    ("grid2x3", make_grid(2, 3), 2, 2, 4),
    ("double-edge", BipartiteMultigraph(1, 1, {(0, 0): 2}), 1, 1, 2),
]


def test_criterion_09_width_golden_and_inequalities():
    failures = []
    for name, g, tw_want, pw_want, td_want in GOLDEN_WIDTHS:
        tw, tcert = width.treewidth_exact(g)
        pw, pcert = width.pathwidth_exact(g)
        td, ecert = width.treedepth_exact(g)
        if (tw, pw, td) != (tw_want, pw_want, td_want):
            failures.append(f"{name}: got ({tw},{pw},{td}) want "
                            f"({tw_want},{pw_want},{td_want})")
        for cert in (tcert, pcert, ecert):
            ok, why = width.validate_decomposition(g, cert)
            if not ok:
                failures.append(f"{name}: certificate invalid ({why})")
    graphs = enumerate_bipartite_multigraphs(8, 16, max_mult=1)
    assert len(graphs) == 1236
    checked = 0
    for g in graphs:
        tw, _ = width.treewidth_exact(g)
        pw, _ = width.pathwidth_exact(g)
        td, _ = width.treedepth_exact(g)
        checked += 1
        if not tw <= pw <= td - 1:
            failures.append(f"tw<=pw<=td-1 failed on {g!r}")
        n = g.num_vertices()
        if n >= 2 and td > (tw + 1) * math.log2(n) + 1e-12:
            failures.append(f"td<=(tw+1)log2(n) failed on {g!r}")
    detail = (f"12-graph golden set and both width inequalities on {checked} "
              f"bipartite graphs with <=8 vertices; {len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(9, not failures, detail)


# -- criterion 10: desk-scale separation evidence ------------------------------------------------


def test_criterion_10_cfi_indistinguishability():
    s = make_cycle(4)
    pair = reduce.cfi_pair(s)
    a_colours = [v + 1 for v in s.vertices() if s.side(v) == "A"]
    b_colours = [v + 1 for v in s.vertices() if s.side(v) == "B"]
    host_even = pair.even.flatten_bipartite(a_colours, b_colours)
    host_odd = pair.odd.flatten_bipartite(a_colours, b_colours)
    patterns = [f for f in enumerate_bipartite_multigraphs(4, 4, max_mult=1)
                if width.treewidth_exact(f)[0] <= 1]
    indistinguishable = oracle.hom_indistinguishable(host_even, host_odd, patterns)
    separated = oracle.hom_count(s, host_even) != oracle.hom_count(s, host_odd)
    detail = (f"CFI pair of C4: indistinguishable over {len(patterns)} patterns "
              f"(<=4 vertices, tw<=1) = {indistinguishable}; distinguished by C4 = "
              f"{separated}")
    _report(10, indistinguishable and separated, detail)


# -- criterion 11: least supports equal certificate widths ----------------------------------------


def test_criterion_11_supports_equal_widths():
    """Each connected simple pattern with at most 6 vertices whose td,
    pw + 1 and tw + 1 are not all equal, compiled in all three shapes at
    n = m = 6: the largest least support is the width of the certificate
    compiled (td for the formula, pw + 1 for the skew circuit, tw + 1 for
    the general one), and the formula's support depth is td.  At smaller n
    supports degenerate (two 6-vertex circuits fall short at n = m = 4)."""
    size, failures, chosen = 6, [], 0
    for f in enumerate_bipartite_multigraphs(6, 9, max_mult=1):
        if not f.is_connected():
            continue
        td, forest = width.treedepth_exact(f)
        pw, pdeco = width.pathwidth_exact(f)
        tw, tdeco = width.treewidth_exact(f)
        if td == pw + 1 == tw + 1:
            continue
        chosen += 1
        for shape, cert, want in (("td", forest, td), ("pw", pdeco, pw + 1), ("tw", tdeco, tw + 1)):
            analysis = symmetry.SymmetryAnalysis(
                compilers.compile_certificate(f, cert, size, size).circuit, size, size)
            if analysis.max_support() != want:
                failures.append(f"{f!r} {shape}: maxSup {analysis.max_support()} != {want}")
            if shape == "td" and analysis.support_depth() != td:
                failures.append(f"{f!r}: supportDepth {analysis.support_depth()} != td {td}")
    detail = (f"{chosen} connected patterns (<=6 vertices, td, pw+1, tw+1 not all equal) at "
              f"n=m={size}: maxSup = certificate width, supportDepth = td; "
              f"{len(failures)} failures")
    if failures:
        detail += " | first: " + failures[0]
    _report(11, chosen == 18 and not failures, detail)
