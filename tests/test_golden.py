"""Golden digests: refactors must leave every output byte-identical.

Each test hashes one family of outputs with sha256 and compares it with the
digest recorded when the test was written:

  * serialized circuits of `compile_single` (td/pw/tw) for every 7th pattern
    of the criterion-1 census, at 2x2 and 2x3 hosts;
  * serialized circuits of `compile_colourful` (td/pw/tw) at n=2 on the same
    sample;
  * values and certificates of the tw/pw/td solvers for every simple
    bipartite graph with at most 6 vertices;
  * the stdout of `symcirc suite all --seed 1`;
  * vertex contraction: `quotient` under every two-colouring and
    `hom_to_emb_terms` of every multigraph with at most 5 vertices;
  * symmetry analysis: the `analyze` report, the orbits and every
    transposition map (adjacent and not) of td/pw/tw compiles of P3, P4, C4,
    K22 and star3 at n = m in {2, 3, 4}, and of seeded random symmetric
    circuits summed with a copy of themselves (not rigid, so `rigidify`
    merges gates);
  * the census: the JSON of every graph that `enumerate_bipartite_multigraphs`
    returns for (6, 8, max_mult=2) and (7, 12, max_mult=1), in order;
  * reductions: the exit code and stdout of `symcirc reduce` for every gadget
    and pipeline but extract-lincomb, and of `verify identity` for the gadget
    and minor suites, at seeds 1-3; the weights, in insertion order, of
    `minor_gadget`, `btree_vp_gadget` and `path_vbp_gadget` on seeded hosts;
    and `_sub_multisets_all` over every multigraph of the `SMALL` census.

A digest is re-recorded only when a change of construction is meant to change
its outputs, with the old and new outputs compared first.  `compile_single`,
`compile_colourful` and `analyze` were last re-recorded when the bag tables
began to be built into a sharing builder: every td compile, and every pw/tw
compile whose unshared table was not a formula, stayed byte-identical, and
no compile grew; only tables that were formulas, which the rigidification
that followed had merged among siblings only, lost their remaining duplicate
gates (and colourful tables, which were never merged, all of theirs).
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

from symcirc import cli, compilers, reduce, width
from symcirc.circuit import CircuitBuilder
from symcirc.oracle import ColouredGraph, hom_to_emb_terms
from symcirc.pattern import (
    enumerate_bipartite_multigraphs,
    find_minor,
    make_complete_bipartite,
    make_cycle,
    make_grid,
    make_path,
    quotient,
)
from symcirc.symmetry import SymmetryAnalysis, analyze, random_symmetric_circuit, rigidify

SAMPLE = enumerate_bipartite_multigraphs(6, 8, max_mult=2)[::7]
SIMPLE = enumerate_bipartite_multigraphs(6, 9)
SMALL = enumerate_bipartite_multigraphs(5, 6, max_mult=2)

EXPECTED = {
    "compile_single": "59e2781e153c6f0fcad3d30ab65c117cb4237eb7e5c6fb9ae4de88f3f2fc8ad0",
    "compile_colourful": "30fe0077b0b15891a88b7e7acd0a8a02e99c42cf319738873c1f9ff2f9275916",
    "certificates": "d529919341956035ffec230d0a36b737a514699d1608ef78ae10b5d92fee5fdf",
    "suite_all_seed1": "0b7dce3fd423a0ba04cfefa32e0d8c65832eb55d884f95011ba40ca8660175d7",
    "contraction": "3aad9159d5fb935e84db881050f56737910d375bd84ed4b2d06ff059de952534",
    "analyze": "89a8090be7d23bd94564629d7cb79b16c92b3dac292ec29c915ca51999b513dc",
    "census": "032ba7cdd4f5bda6f72c87d02a67f88d8b417385ddb18040c51a0a602366a9f8",
    "reduce": "d4629e59d9964d69aad5a11f2e66736dd5c334b893c695c7494222855dad663b",
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\n")
    return h.hexdigest()


def _cert(value, cert) -> bytes:
    return json.dumps([value, cert.to_json()], sort_keys=True).encode("utf-8")


def _compile_single_chunks():
    for f in SAMPLE:
        for n, m in ((2, 2), (2, 3)):
            for shape in ("td", "pw", "tw"):
                yield compilers.compile_single(f, n, m, shape).circuit.serialize()


def _compile_colourful_chunks():
    for f in SAMPLE:
        colouring = {v: v + 1 for v in f.vertices()}
        for shape in ("td", "pw", "tw"):
            yield compilers.compile_colourful(f, colouring, 2, shape).circuit.serialize()


def _certificate_chunks():
    for g in SIMPLE:
        yield _cert(*width.treewidth_exact(g))
        yield _cert(*width.pathwidth_exact(g))
        yield _cert(*width.treedepth_exact(g))


def _graph(g) -> bytes:
    # Edge insertion order is part of the output: oracles iterate it.
    return repr((g.a_count, g.b_count, list(g.edges.items()))).encode("utf-8")


def _contraction_chunks():
    for f in SMALL:
        for colours in itertools.product("AB", repeat=f.num_vertices()):
            yield _graph(quotient(f, dict(enumerate(colours))))
        for t in hom_to_emb_terms(f):
            yield _graph(t)


def _doubled(c):
    """Two copies of `c` sharing their input gates, summed."""
    b = CircuitBuilder()
    outputs = []
    for _ in range(2):
        new = {}
        for g in c.topo_order():
            new[g] = b.gate(c.labels[g], sorted((new[ch], mult)
                                                for ch, mult in c.children[g].items()))
        outputs.append(new[c.output])
    return b.finish(b.plus([(g, 1) for g in outputs]))


def _analyze_inputs():
    patterns = (make_path(3), make_path(4), make_cycle(4),
                make_complete_bipartite(2, 2), make_complete_bipartite(1, 3))
    for f in patterns:
        for n in (2, 3, 4):
            for shape in ("td", "pw", "tw"):
                yield compilers.compile_single(f, n, n, shape).circuit, n
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        c = random_symmetric_circuit(n, n, rng, rng.choice((40, 80, 160)),
                                     rng.choice(("general", "skew")))
        yield _doubled(c), n


def _analyze_chunks():
    for c, n in _analyze_inputs():
        yield json.dumps(analyze(c, n, n).to_json(), sort_keys=True).encode("utf-8")
        analysis = SymmetryAnalysis(rigidify(c), n, n)
        yield repr(analysis.orbits()).encode("utf-8")
        for side in "LR":
            for a, b in itertools.combinations(range(n), 2):
                yield repr((side, a, b, analysis.transposition_map(side, a, b))).encode("utf-8")


def _census_chunks():
    for caps in ((6, 8, 2), (7, 12, 1)):
        for g in enumerate_bipartite_multigraphs(*caps):
            yield json.dumps(g.to_json(), sort_keys=True).encode("utf-8")


def _suite_chunks():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["suite", "all", "--seed", "1"])
    yield str(code).encode("utf-8")
    yield out.getvalue().encode("utf-8")


def _cli_chunk(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return f"{code}\n{out.getvalue()}".encode("utf-8")


def _reduce_chunks(tmp_path):
    files = {}
    for name, g in (("p2", make_path(2)), ("p3", make_path(3)), ("c4", make_cycle(4)),
                    ("grid23", make_grid(2, 3))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(g.to_json()), encoding="utf-8")
    gadgets = [("clique-grid", "1"), ("clique-grid", "2"), ("btree", "1"),
               ("path", "1"), ("path", "2"), ("path", "3")]
    pipelines = [("minor", "2", "p2", "p3"), ("minor", "2", "c4", "grid23"),
                 ("minor", "2", "c4", "p3"), ("extract-subgraph", "1", "p2", "p3"),
                 ("extract-minor", "1", "p3", "c4")]
    for seed in ("1", "2", "3"):
        for gadget, n in gadgets:
            yield _cli_chunk("--seed", seed, "reduce", gadget, "--n", n)
        for gadget, n, s, f in pipelines:
            yield _cli_chunk("--seed", seed, "reduce", gadget, "--n", n,
                             "--minor-pattern", str(files[s]), "--host-pattern", str(files[f]))
        for name in ("gadgets", "minor"):
            yield _cli_chunk("--seed", seed, "verify", "identity", "--name", name)
    rng = random.Random(9)
    for s, fprime in ((make_path(2), make_path(3)), (make_cycle(4), make_grid(2, 3))):
        branch = find_minor(s, fprime)
        pairs = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
        for n in (1, 2):
            y = ColouredGraph.random({v + 1: n for v in s.vertices()}, pairs, rng)
            yield repr(list(reduce.minor_gadget(fprime, s, branch, n, y).weights.items())).encode("utf-8")

    def family(size):
        x = {i: Fraction(rng.randint(-2, 2)) for i in range(1, size + 1)}
        y = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(1, size + 1)
             for j in range(i, size + 1)}
        return x, y

    for m in (1, 2):
        yield repr(list(reduce.btree_vp_gadget(m, *family(m ** 6)).weights.items())).encode("utf-8")
    for m in (1, 2, 3):
        yield repr(list(reduce.path_vbp_gadget(m, *family(m ** 2)).weights.items())).encode("utf-8")
    for f in SMALL:
        yield repr(list(reduce._sub_multisets_all(sorted(f.edges.items())))).encode("utf-8")


def test_sample_sizes():
    assert (len(SAMPLE), len(SIMPLE), len(SMALL)) == (133, 163, 206)


def test_compile_single_circuits_unchanged():
    assert _digest(_compile_single_chunks()) == EXPECTED["compile_single"]


def test_compile_colourful_circuits_unchanged():
    assert _digest(_compile_colourful_chunks()) == EXPECTED["compile_colourful"]


def test_width_certificates_unchanged():
    assert _digest(_certificate_chunks()) == EXPECTED["certificates"]


def test_suite_all_stdout_unchanged():
    assert _digest(_suite_chunks()) == EXPECTED["suite_all_seed1"]


def test_vertex_contraction_unchanged():
    assert _digest(_contraction_chunks()) == EXPECTED["contraction"]


def test_symmetry_analysis_unchanged():
    assert _digest(_analyze_chunks()) == EXPECTED["analyze"]


def test_census_unchanged():
    assert _digest(_census_chunks()) == EXPECTED["census"]


def test_reductions_unchanged(tmp_path):
    assert _digest(_reduce_chunks(tmp_path)) == EXPECTED["reduce"]
