"""The benchmark workloads.

Each workload is a class whose constructor ``(seed, workdir, tiny)``
generates every input from the seed (this is the set-up phase); the object
has:

* ``start_round()`` -- timed work that belongs to no single item, returning
  the round's items; a round is the same list of items every time;
* ``run_item(item)`` -- one closed-loop item, returning ``(verdict, output)``
  where ``verdict`` is the check against an oracle or a proven bound and
  ``output`` the bytes that go into the run's digest;
* ``attach(tracer)`` -- hands the traced phase its tracer (``None`` after);
* ``close()`` -- removes any files set-up wrote.

The benchmark runs two workloads, each a `Mixed` of two parts, so that each
run is long enough to average out the machine's slow and fast stretches:
``compile_extract`` (`CompileVerify` and `ExtractOracle`, the exact-arithmetic
path) and ``analyze_census`` (`AnalyzeCli` and `WidthCensus`, the structural
path).  ``tiny`` shrinks a workload to a few cheap items for the benchmark's
tests.

Workload code reaches the program only through module attributes
(``oracle.hom_poly``, never a name imported at load time), so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

from symcirc import cli, compilers, oracle, pattern, reduce, symmetry, width
from symcirc.circuit import Circuit, CircuitBuilder, parse_var_name
from symcirc.oracle import ColouredGraph, WeightedHost
from symcirc.pattern import BipartiteMultigraph

SHAPES = ("td", "pw", "tw")
HOST_SIZES = tuple(itertools.product((1, 2, 3), repeat=2))


class Workload:
    """Base: a fixed item list and no per-round work."""

    tracer = None

    def start_round(self) -> list:
        return self.items

    def attach(self, tracer) -> None:
        self.tracer = tracer

    def close(self) -> None:
        pass


HOST_WEIGHTS = tuple(Fraction(a, b) for a, b in ((1, 2), (2, 3), (3, 1), (4, 3), (3, 2), (2, 1)))


def balanced_weights(count: int, rng: random.Random) -> list:
    """`count` rational host weights: the first `count` entries of
    HOST_WEIGHTS, cycled, in a seeded order and with seeded signs.

    The seed so changes the host but not the sizes of the numbers in it, on
    which the cost of the exact arithmetic depends; an item costs the same
    whatever the seed.
    """
    weights = [HOST_WEIGHTS[k % len(HOST_WEIGHTS)] for k in range(count)]
    rng.shuffle(weights)
    return [w if rng.random() < 0.5 else -w for w in weights]


def relabel(f: BipartiteMultigraph, rng: random.Random) -> BipartiteMultigraph:
    """`f` with its A side and its B side each permuted at random."""
    pa = list(range(f.a_count))
    pb = list(range(f.b_count))
    rng.shuffle(pa)
    rng.shuffle(pb)
    return BipartiteMultigraph(f.a_count, f.b_count,
                               {(pa[i], pb[j]): m for (i, j), m in f.edges.items()})


# -- compile_verify -------------------------------------------------------------------


class CompileVerify(Workload):
    """Criterion 1's worker run inline: one item is a (pattern, n, m) triple.

    The patterns are a fixed stride sample of the criterion 1 census, taken in
    order of (vertices, distinct edges, edge slots) so it keeps the census's
    mix of sizes; the seed draws the rational hosts and orders the items.
    The seed picks no patterns: with a seeded stride offset a round's cost
    varied by about 8% (quartile spread) from offset to offset.  Every item compiles td, pw and tw, and checks each circuit against the
    brute-force `hom_poly` symbolically, on every 0/1 host and on five seeded
    rational hosts of `balanced_weights`.
    """

    STRIDE = 66
    TINY_PATTERNS = 2

    def __init__(self, seed: int, workdir: str, tiny: bool):
        census = pattern.enumerate_bipartite_multigraphs(6, 8, max_mult=2)
        census.sort(key=lambda f: (f.num_vertices(), len(f.edges), f.num_edge_slots()))
        chosen = census[::self.STRIDE]
        if tiny:
            chosen = chosen[:self.TINY_PATTERNS]
        rng = random.Random(seed)
        self.items = []
        for f in chosen:
            self.items.extend((f, n, m, rng.getrandbits(32)) for n, m in HOST_SIZES)
        rng.shuffle(self.items)

    def run_item(self, item):
        f, n, m, host_seed = item
        hom = oracle.hom_poly(f, n, m)
        ok = True
        circuits = []
        blobs = []
        for shape in SHAPES:
            circuit = compilers.compile_single(f, n, m, shape).circuit
            ok = ok and circuit.expand_symbolic() == hom
            circuits.append(circuit)
            blobs.append(circuit.serialize())
        # Exhaustive 0/1 hosts, against the oracle polynomial's monomial masks.
        names = sorted(hom.variables)
        position = {v: k for k, v in enumerate(names)}
        masked = [(sum(1 << position[v] for v, e in zip(hom.variables, exp) if e), coeff)
                  for exp, coeff in hom.terms.items()]
        for host_mask in range(1 << (n * m)):
            assignment = {name: (host_mask >> k) & 1 for k, name in enumerate(names)}
            want = sum(coeff for mask, coeff in masked if mask & ~host_mask == 0)
            ok = ok and all(c.evaluate(assignment) == want for c in circuits)
        rng = random.Random(host_seed)
        for _ in range(5):
            assignment = dict(zip(names, balanced_weights(len(names), rng)))
            want = hom.evaluate(assignment)
            ok = ok and all(c.evaluate(assignment) == want for c in circuits)
        return ok, b"\n".join(blobs)


# -- width_census ---------------------------------------------------------------------


class WidthCensus(Workload):
    """Every simple bipartite graph with at most 7 vertices, enumerated inside
    the timed phase at the start of each round; one item is one graph, given
    to the DPs with its sides relabelled at random.

    Each item runs the exact tw, pw and td DPs and checks all three
    certificates with `validate_decomposition`, that each certificate has the
    width claimed, and tw <= pw <= td - 1 and td <= (tw + 1) log2 |V|.
    """

    MAX_VERTICES = 7
    TINY_VERTICES = 4

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.max_vertices = self.TINY_VERTICES if tiny else self.MAX_VERTICES
        self.census_size = None

    def start_round(self) -> list:
        v = self.max_vertices
        graphs = pattern.enumerate_bipartite_multigraphs(v, (v // 2) * (v - v // 2), max_mult=1)
        if self.census_size is None:
            self.census_size = len(graphs)
        elif len(graphs) != self.census_size:
            raise RuntimeError("the census changed size between rounds")
        rng = random.Random(self.seed)
        items = [relabel(g, rng) for g in graphs]
        rng.shuffle(items)
        return items

    def run_item(self, g):
        tw, tcert = width.treewidth_exact(g)
        pw, pcert = width.pathwidth_exact(g)
        td, forest = width.treedepth_exact(g)
        ok = all(width.validate_decomposition(g, cert)[0] for cert in (tcert, pcert, forest))
        ok = ok and (tcert.width(), pcert.width(), forest.height()) == (tw, pw, td)
        ok = ok and tw <= pw <= td - 1
        n = g.num_vertices()
        ok = ok and (n < 2 or td <= (tw + 1) * math.log2(n) + 1e-12)
        out = json.dumps([tw, pw, td, tcert.to_json(), pcert.to_json(), forest.to_json()],
                         sort_keys=True)
        return ok, out.encode()


# -- extract_oracle -------------------------------------------------------------------


def _circuit_hom_handle(f: BipartiteMultigraph, size: int) -> reduce.OracleHandle:
    """An oracle handle for hom_{F,size} backed by a compiled tw circuit."""
    circuit = compilers.compile_single(f, size, size, "tw").circuit
    cells = [(name,) + parse_var_name(name) for name in circuit.variables()]

    def evaluate(host: WeightedHost):
        return circuit.evaluate({name: host.get(i - 1, j - 1) for name, i, j in cells})

    return reduce.OracleHandle(evaluate, f"tw circuit for hom at size {size}")


def balanced_host(sizes, pairs, rng: random.Random) -> ColouredGraph:
    """A coloured host with a `balanced_weights` weight on every member pair
    of the colour pairs."""
    g = ColouredGraph(sizes)
    cells = [((c, i), (c2, j)) for c, c2 in pairs
             for i in range(sizes[c]) for j in range(sizes[c2])]
    for (u, v), w in zip(cells, balanced_weights(len(cells), rng)):
        g.set_weight(u, v, w)
    return g


class ExtractOracle(Workload):
    """Criterion 8's extraction pipelines; one item is one extracted value on a
    seeded `balanced_host`, checked against `colhom_eval` or `hom_count`.

    A round holds one brute-force minor extraction (C4 -> P3, n=1, about 3 s),
    one circuit-backed one (n=2, a tw circuit at size 24, about 1 s),
    and two of each cheap pipeline: P3 -> P2 and doubled-P3 -> P2 at n=1 and
    2, and both terms of a linear-combination extraction.
    """

    CIRCUIT_ITEMS = 1
    CHEAP_REPEATS = 2

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = random.Random(seed)
        p2, p3 = pattern.make_path(2), pattern.make_path(3)
        p3_doubled = BipartiteMultigraph(2, 1, {(0, 0): 2, (1, 0): 1})
        c4 = pattern.make_cycle(4)
        subgraph = [("sub-P3", p3, 1), ("sub-P3", p3, 2),
                    ("sub-dP3", p3_doubled, 1), ("sub-dP3", p3_doubled, 2)]
        self.evaluators = {}
        for name, f, n in subgraph:
            self.evaluators[(name, n)] = reduce.extract_colhom_via_subgraph(
                f, p2, n, reduce.brute_hom_oracle(f))

        def lincomb_fn(host):
            return oracle.hom_count(p2, host) + 2 * oracle.hom_count(p3, host)

        lincomb = reduce.OracleHandle(lincomb_fn, "hom P2 + 2 hom P3")
        basis_seed = rng.getrandbits(16)
        for ell in (0, 1):
            self.evaluators[("lincomb", ell)] = reduce.extract_single_from_lincomb(
                lincomb, [p2, p3], [Fraction(1), Fraction(2)], ell, 2, 3, seed=basis_seed)
        schedule = [("sub-P3", 1), ("sub-P3", 2), ("sub-dP3", 1), ("sub-dP3", 2),
                    ("lincomb", 0), ("lincomb", 1)]
        if not tiny:
            schedule = schedule * self.CHEAP_REPEATS
            self.evaluators[("minor-C4", 1)] = reduce.extract_colhom_via_minor(
                c4, p3, 1, reduce.brute_hom_oracle(c4))
            self.evaluators[("minor-C4", 2)] = reduce.extract_colhom_via_minor(
                c4, p3, 2, _circuit_hom_handle(c4, 24))
            schedule = [("minor-C4", 1)] + [("minor-C4", 2)] * self.CIRCUIT_ITEMS + schedule
        self.plain = dict(self.evaluators)
        self.items = []
        for kind, n in schedule:
            if kind == "lincomb":
                target = (p2, p3)[n]
                host = WeightedHost.random(2, 2, rng)
            else:
                target = p3 if kind == "minor-C4" else p2
                pairs = [(u + 1, v + 1) for (u, v, _) in target.edge_list_global()]
                host = balanced_host({v + 1: n for v in target.vertices()}, pairs, rng)
            self.items.append(((kind, n), host, target))
        rng.shuffle(self.items)

    def attach(self, tracer) -> None:
        """Route evaluator calls through a reduce span while traced: the
        evaluators are closures built in set-up, before the wrappers exist."""
        self.tracer = tracer
        if tracer is None:
            self.evaluators = dict(self.plain)
        else:
            self.evaluators = {key: tracer.wrap("reduce", "extract.evaluate", fn)
                               for key, fn in self.plain.items()}

    def run_item(self, item):
        key, host, target = item
        value = self.evaluators[key](host)
        if key[0] == "lincomb":
            want = oracle.hom_count(target, host)
        else:
            want = oracle.colhom_eval(target, host)
        return value == want, str(value).encode()


# -- analyze_cli ----------------------------------------------------------------------


def duplicated(c: Circuit) -> Circuit:
    """The sum of two copies of `c` sharing their input gates: symmetric
    whenever `c` is, and never rigid, since swapping the copies fixes every
    input."""
    builder = CircuitBuilder()
    outputs = []
    for _ in range(2):
        remap = {}
        for g in c.topo_order():
            label = c.labels[g]
            if label[0] == "var":
                remap[g] = builder.var(label[1])
            elif label[0] == "const":
                remap[g] = builder.const(label[1])
            else:
                kids = sorted((remap[ch], mult) for ch, mult in c.children[g].items())
                remap[g] = (builder.plus if label[0] == "plus" else builder.times)(kids)
        outputs.append(remap[c.output])
    return builder.finish(builder.plus([(g, 1) for g in outputs]))


class AnalyzeCli(Workload):
    """In-process ``symcirc analyze`` on circuit files written in set-up.

    The files hold td, pw and tw compilations of P3, P4, P5, C4, K22 and
    star3 (sides relabelled at random) at n = m in {2, 4, 6, 8}, and seeded
    random symmetric circuits summed with a copy of themselves, so they are
    not rigid and `rigidify` really merges gates.  Each report is checked
    against the compiled bounds (maxSup <= td for td formulas, maxOrb <=
    (2n)^(pw+1) and maxSup <= pw+1 for pw circuits, maxSup <= tw+1 for tw
    circuits) and, for every circuit, against the facts that hold for any
    rigid symmetric circuit: supports lie in the matrix, one gate (the
    output) has an empty support, and maxSup is the largest support listed.
    """

    SIZES = (2, 4, 6, 8)
    RANDOM_CIRCUITS = 36
    TINY_SIZES = (2,)
    TINY_RANDOM = 2

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        patterns = {"P3": pattern.make_path(3), "P4": pattern.make_path(4),
                    "P5": pattern.make_path(5), "C4": pattern.make_cycle(4),
                    "K22": pattern.make_complete_bipartite(2, 2),
                    "star3": pattern.make_complete_bipartite(1, 3)}
        sizes = self.TINY_SIZES if tiny else self.SIZES
        self.items = []
        for name, base in patterns.items():
            f = relabel(base, rng)
            widths = {"td": width.treedepth_exact(f)[0], "pw": width.pathwidth_exact(f)[0],
                      "tw": width.treewidth_exact(f)[0]}
            for n in sizes:
                for shape in SHAPES:
                    circuit = compilers.compile_single(f, n, n, shape).circuit
                    path = self._write(f"{name}-{shape}-{n}.json", circuit)
                    self.items.append((path, n, shape, widths[shape]))
        for k in range(self.TINY_RANDOM if tiny else self.RANDOM_CIRCUITS):
            n = rng.choice((2, 3, 4))
            base = symmetry.random_symmetric_circuit(n, n, rng, rng.choice((40, 80, 160)),
                                                     rng.choice(("general", "skew")))
            path = self._write(f"random-{k}.json", duplicated(base))
            self.items.append((path, n, "random", None))
        rng.shuffle(self.items)

    def _write(self, filename: str, circuit) -> str:
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(circuit.to_json(), fh)
        return path

    def close(self) -> None:
        for path, *_ in self.items:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)

    def run_item(self, item):
        path, n, shape, bound = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["analyze", "--circuit", path, "--n", str(n), "--m", str(n)])
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.add("cli.bytes_out", len(text.encode()))
        if code != 0:
            return False, text.encode()
        report = json.loads(text)
        supports = [gate["support"] for gate in report["perGate"]]
        ok = (report["n"], report["m"]) == (n, n)
        ok = ok and all(side in ("L", "R") and 1 <= i <= n for s in supports for side, i in s)
        ok = ok and any(not s for s in supports)
        ok = ok and report["maxSup"] == max(len(s) for s in supports)
        if shape == "td":
            ok = ok and report["maxSup"] <= bound
        elif shape == "pw":
            ok = ok and report["maxOrb"] <= (2 * n) ** (bound + 1) and report["maxSup"] <= bound + 1
        elif shape == "tw":
            ok = ok and report["maxSup"] <= bound + 1
        return ok, text.encode()


class Mixed(Workload):
    """Several workloads' rounds merged into one round, in a seeded order that
    stays the same from round to round, so a slow stretch of the machine
    falls on every part alike."""

    PARTS: tuple = ()

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.parts = [part(seed, workdir, tiny) for part in self.PARTS]
        self.seed = seed

    def start_round(self) -> list:
        items = [(k, item) for k, part in enumerate(self.parts) for item in part.start_round()]
        random.Random(self.seed).shuffle(items)
        return items

    def run_item(self, item):
        k, inner = item
        return self.parts[k].run_item(inner)

    def attach(self, tracer) -> None:
        for part in self.parts:
            part.attach(tracer)

    def close(self) -> None:
        for part in self.parts:
            part.close()


class CompileExtract(Mixed):
    """The exact-arithmetic path: compile-and-verify items and extraction items."""

    PARTS = (CompileVerify, ExtractOracle)


class AnalyzeCensus(Mixed):
    """The structural path, with no Fraction arithmetic to speak of:
    ``symcirc analyze`` items and the width census."""

    PARTS = (AnalyzeCli, WidthCensus)


WORKLOADS = {
    "compile_extract": CompileExtract,
    "analyze_census": AnalyzeCensus,
}
