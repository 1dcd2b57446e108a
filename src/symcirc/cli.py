"""Batch front door: pattern generation, width computation, compilation,
symmetry analysis, oracle evaluation, identity verification, and suites.

Exit codes: 0 success, 1 a verification failed (an identity did not hold),
2 usage or parse errors.  Every randomized step draws from random.Random
seeded by --seed, so identical argv produce identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from . import compilers, oracle, pattern, reduce, symmetry, width
from .circuit import Circuit, SKEW
from .errors import CAPS, IdentityFailed, ParseError, SizeCap, SymcircError
from .exactnum import int_from_json, list_from_json, rational_from_json, rational_to_json
from .oracle import ColouredGraph, WeightedHost


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, over-long ints
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} does not hold a JSON object")
    return data


def _load_option(args, option: str) -> dict:
    """The JSON object in the file given by `--option`; ParseError if it is absent."""
    path = getattr(args, option.replace("-", "_"))
    if path is None:
        raise ParseError(f"{args.command} {args.gadget} needs --{option}")
    return _load_json(path)


def _load_caps(path: str) -> Mapping[str, int]:
    """The caps in force, overridden by the file's cap names and positive integers."""
    caps = dict(CAPS.get())
    for name, value in _load_json(path).items():
        if name not in caps:
            raise ParseError(f"unknown cap {name!r}; the caps are {', '.join(caps)}")
        caps[name] = int_from_json(value)
        if caps[name] < 1:
            raise ParseError(f"cap {name} must be a positive integer, got {caps[name]}")
    return MappingProxyType(caps)


def _json_text(value, indent: str = "\n", memo: Optional[Dict] = None) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    json writes indented text with its pure-Python encoder, which costs a
    generator per container; this is one recursive writer instead, at the
    given indentation ("\n" and two spaces per level).  The text of a
    string, and of a tuple at a given indentation, is kept in `memo` and
    reused, so the support pairs repeated across an analysis' gates are
    written once.  Tuples are keyed by repr, which tells 1, 1.0 and True
    apart.  Other scalars, empty containers and keys that are not strings
    are written by `json.dumps` itself; a key json would refuse (not str,
    int, float, bool or None) is not checked for.  A plain function, not a
    closure: a recursive closure is a reference cycle, which would hold the
    memo until the next garbage collection.
    """
    memo = {} if memo is None else memo
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str or kind is tuple:
        key = value if kind is str else (repr(value), indent)
        if key not in memo:
            memo[key] = json.dumps(value) if kind is str else _json_text(list(value), indent, memo)
        return memo[key]
    if not isinstance(value, (list, tuple, dict)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_json_text(k if isinstance(k, str) else json.dumps(k), inner, memo) + ": "
                 + _json_text(v, inner, memo) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    items = [_json_text(v, inner, memo) for v in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _emit(data, out: Optional[str]):
    try:
        text = _json_text(data)
    except ValueError as exc:  # an int longer than Python converts to a string
        raise SizeCap(f"output value over Python's {sys.get_int_max_str_digits()}-digit limit") from exc
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- pattern ------------------------------------------------------------------------


def _cmd_pattern(args) -> int:
    if args.kind == "path":
        g = pattern.make_path(args.v)
    elif args.kind == "grid":
        g = pattern.make_grid(args.rows, args.cols)
    elif args.kind == "btree":
        g = pattern.make_complete_binary_tree(args.v)
    elif args.kind == "kbipartite":
        g = pattern.make_complete_bipartite(args.a, args.b)
    else:  # cycle
        g = pattern.make_cycle(args.v)
    _emit(g.to_json(), args.out)
    return 0


# -- width --------------------------------------------------------------------------


def _cmd_width(args) -> int:
    g = pattern.BipartiteMultigraph.from_json(_load_json(args.graph))
    value, cert = compilers._exact_certificate(g, args.parameter)
    ok, reason = width.validate_decomposition(g, cert)
    if not ok:
        print(f"certificate failed validation: {reason}", file=sys.stderr)
        return 1
    _emit({"parameter": args.parameter, "value": value, "certificate": cert.to_json()},
          args.out)
    return 0


# -- compile ------------------------------------------------------------------------


def _cmd_compile(args) -> int:
    g = pattern.BipartiteMultigraph.from_json(_load_json(args.graph))
    if args.decomp:
        kind = {"td": width.EliminationForest, "pw": width.PathDecomposition,
                "tw": width.TreeDecomposition}[args.shape]
        cert = kind.from_json(_load_json(args.decomp))
        report = compilers.compile_certificate(g, cert, args.n, args.m)
    else:
        report = compilers.compile_single(g, args.n, args.m, args.shape)
    payload = report.to_json()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(report.circuit.to_dot() + "\n")
    _emit(payload, args.out)
    return 0


# -- analyze ------------------------------------------------------------------------


def _load_circuit(path: str) -> Circuit:
    """The circuit in a circuit file, or in the `circuit` member of a compile
    report as `compile --out` writes it.  The JSON is released on return."""
    data = _load_json(path)
    if "gates" not in data and "circuit" in data:
        data = data["circuit"]
    return Circuit.from_json(data)


def _cmd_analyze(args) -> int:
    circuit = _load_circuit(args.circuit)
    report = symmetry.analyze(circuit, args.n, args.m)
    _emit(report.to_json(), args.out)
    return 0


# -- oracle -------------------------------------------------------------------------


def _cmd_oracle(args) -> int:
    g = pattern.BipartiteMultigraph.from_json(_load_json(args.pattern))
    if args.which == "hom":
        host = WeightedHost.from_json(_load_json(args.host))
        value = oracle.hom_count(g, host)
    elif args.which == "emb":
        host = WeightedHost.from_json(_load_json(args.host))
        value = oracle.emb_eval(g, host)
    else:
        host = ColouredGraph.from_json(_load_json(args.host))
        value = oracle.colhom_eval(g, host)
    _emit({"value": rational_to_json(value)}, args.out)
    return 0


# -- reduce -------------------------------------------------------------------------


def _random_coloured_host(s, n: int, rng: random.Random) -> ColouredGraph:
    pairs = [(u + 1, v + 1) for (u, v, _) in s.edge_list_global()]
    return ColouredGraph.random({v + 1: n for v in s.vertices()}, pairs, rng)


def _hardness_identity(family: str, n: int, rng: random.Random) -> Tuple[ColouredGraph, bool]:
    """The `family` gadget of size n on seeded random weights, and whether its
    colourful hom value equals the family's polynomial at those weights."""
    # Each target checks its cap before any work, so it comes before the gadget.
    if family == "clique-grid":
        y = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(1, 2 * n + 1)
             for j in range(i + 1, 2 * n + 1)}
        target = reduce.clique_poly(n, y)
        gadget = reduce.clique_grid_gadget(n, y)
        return gadget, oracle.colhom_eval(pattern.make_grid(n, n), gadget) == target
    if family == "btree":
        size, f, build, poly = (n ** 6, pattern.make_complete_binary_tree(n),
                                reduce.btree_vp_gadget, reduce.btree_vp_poly)
    else:  # path
        size, f, build, poly = n ** 2, pattern.make_path(n + 2), reduce.path_vbp_gadget, reduce.path_vbp_poly
    x = {i: Fraction(rng.randint(-2, 2)) for i in range(1, size + 1)}
    y = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(1, size + 1) for j in range(i, size + 1)}
    target = poly(n, x, y)
    gadget = build(n, x, y)
    return gadget, oracle.colhom_eval(f, gadget) == target


def _minor_identity(s, fprime, branch, n: int, rng: random.Random) -> bool:
    """Whether the minor gadget of one seeded random S-coloured host y keeps
    colhom_{F'}(gadget) = colhom_S(y).  Callers run their trials through
    `all([...])`, a list, so every trial draws its weights even after one fails."""
    y = _random_coloured_host(s, n, rng)
    return oracle.colhom_eval(fprime, reduce.minor_gadget(fprime, s, branch, n, y)) == \
        oracle.colhom_eval(s, y)


def _cmd_reduce(args) -> int:
    rng = random.Random(args.seed)
    trials = args.trials
    if args.gadget in ("clique-grid", "btree", "path"):
        gadget, holds = _hardness_identity(args.gadget, args.n, rng)
        payload = {"gadget": gadget.to_json(), "identity_holds": holds}
    elif args.gadget == "minor":
        s = pattern.BipartiteMultigraph.from_json(_load_option(args, "minor-pattern"))
        fprime = pattern.BipartiteMultigraph.from_json(_load_option(args, "host-pattern"))
        branch = pattern.find_minor(s, fprime)
        if branch is None:
            print("no minor witness found", file=sys.stderr)
            return 1
        payload = {
            "branch_sets": [sorted(v + 1 for v in bs) for bs in branch.sets],
            "remainder": sorted(v + 1 for v in branch.b0),
            "identity_holds": all([_minor_identity(s, fprime, branch, args.n, rng)
                                   for _ in range(trials)]),
        }
    elif args.gadget in ("extract-subgraph", "extract-minor"):
        s = pattern.BipartiteMultigraph.from_json(_load_option(args, "minor-pattern"))
        f = pattern.BipartiteMultigraph.from_json(_load_option(args, "host-pattern"))
        handle = reduce.brute_hom_oracle(f)
        if args.gadget == "extract-subgraph":
            evaluator = reduce.extract_colhom_via_subgraph(f, s, args.n, handle)
        else:
            evaluator = reduce.extract_colhom_via_minor(f, s, args.n, handle)
        check = True
        for _ in range(trials):
            g = _random_coloured_host(s, args.n, rng)
            check = check and evaluator(g) == oracle.colhom_eval(s, g)
        payload = {"identity_holds": bool(check)}
    else:  # extract-lincomb
        spec = _load_option(args, "terms")
        try:
            terms = list_from_json(spec["terms"], "terms")
            patterns = [pattern.BipartiteMultigraph.from_json(t["graph"]) for t in terms]
            alphas = [rational_from_json(t["alpha"]) for t in terms]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed terms file {args.terms}: {exc!r}") from exc

        def lincomb(host):
            return sum(a * oracle.hom_count(p, host) for a, p in zip(alphas, patterns))

        evaluator = reduce.extract_single_from_lincomb(
            lincomb, patterns, alphas, args.ell, args.n, args.big_n, seed=args.seed)
        check = True
        for _ in range(trials):
            g = WeightedHost.random(args.n, args.n, rng)
            check = check and evaluator(g) == oracle.hom_count(patterns[args.ell], g)
        payload = {"identity_holds": bool(check)}
    _emit(payload, args.out)
    return 0 if payload["identity_holds"] else 1


# -- identity verification ------------------------------------------------------------


def _verify_uncolour(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    out = []
    for name, f in (("P2", pattern.make_path(2)), ("P3", pattern.make_path(3))):
        colours = [v + 1 for v in f.vertices()]
        ok = True
        for _ in range(trials):
            g = ColouredGraph.random({c: 1 for c in colours},
                                     [(a, b) for a in colours for b in colours if a <= b], rng)
            try:
                reduce.uncolour_expand(f, colours, 1, g)
            except IdentityFailed:
                ok = False
        out.append((f"uncolour/{name}", ok))
    return out


def _verify_product(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    f = pattern.make_path(3)
    ok = True
    for _ in range(trials):
        g = _random_coloured_host(f, 2, rng)
        h = _random_coloured_host(f, 2, rng)
        lhs = oracle.colhom_eval(f, reduce.tensor_product(g, h))
        if lhs != oracle.colhom_eval(f, g) * oracle.colhom_eval(f, h):
            ok = False
    return [("product/P3", ok)]


def _verify_quotient(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    out = []
    x = Fraction(1, 2)
    worked = oracle.hom_count(pattern.make_path(2),
                              reduce.bipartite_double(WeightedHost(1, 1, {(0, 0): x})))
    out.append(("quotient/worked-2+2x", worked == 2 + 2 * x))
    ok = True
    for f in (pattern.make_path(2), pattern.make_path(3), pattern.make_cycle(4)):
        for _ in range(trials):
            g = WeightedHost.random(2, 2, rng)
            if not reduce.check_quotient_identity(f, g):
                ok = False
    out.append(("quotient/random", ok))
    return out


def _verify_cfi(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    out = []
    for name, s in (("P2", pattern.make_path(2)), ("P3", pattern.make_path(3)),
                    ("C4", pattern.make_cycle(4))):
        pair = reduce.cfi_pair(s)
        idc = oracle.identity_colouring(s)
        even = oracle.coloured_hom_eval(s, idc, pair.even)
        odd = oracle.coloured_hom_eval(s, idc, pair.odd)
        out.append((f"cfi/{name}", even != odd))
    return out


def _verify_hom_to_emb(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    ok = True
    for f in pattern.enumerate_bipartite_multigraphs(4, 4, max_mult=2):
        if f.a_count > 3 or f.b_count > 3:
            continue
        terms = oracle.hom_to_emb_terms(f)
        g = WeightedHost.random(2, 2, rng)
        total = sum(oracle.emb_eval(t, g) for t in terms)
        if total != oracle.hom_count(f, g):
            ok = False
    return [("hom-to-emb/<=3-per-side", ok)]


def _verify_slice(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    p2 = pattern.make_path(2)
    p3 = pattern.make_path(3)
    sub = pattern.BipartiteMultigraph(2, 1, {(0, 0): 1})
    colouring = {0: 1, 1: 2, 2: 3}

    def combined(g):
        return oracle.coloured_hom_eval(sub, colouring, g) + oracle.colhom_eval(p3, g)

    ok = True
    for _ in range(trials):
        g = ColouredGraph.random({1: 2, 2: 2, 3: 2}, [(1, 3), (2, 3)], rng)
        if reduce.degree_slice(combined, 1, 2, g) != oracle.coloured_hom_eval(sub, colouring, g):
            ok = False
        if reduce.degree_slice(combined, 2, 2, g) != oracle.colhom_eval(p3, g):
            ok = False
        if reduce.degree_slice(combined, 0, 2, g) != 0:
            ok = False
    return [("slice/mixed", ok)]


def _verify_minor(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    out = []
    cases = [
        ("P2<=P3", pattern.make_path(2), pattern.make_path(3)),
        ("C4<=grid2x3", pattern.make_cycle(4), pattern.make_grid(2, 3)),
    ]
    for name, s, fprime in cases:
        branch = pattern.find_minor(s, fprime)
        ok = branch is not None and all([_minor_identity(s, fprime, branch, 2, rng)
                                         for _ in range(trials)])
        out.append((f"minor/{name}", ok))
    return out


def _verify_gadgets(trials: int, rng: random.Random) -> List[Tuple[str, bool]]:
    y_ones = {(i, j): Fraction(1) for i in range(1, 5) for j in range(i + 1, 5)}
    g = reduce.clique_grid_gadget(2, y_ones)
    return [
        ("gadget/clique-all-ones-6", oracle.colhom_eval(pattern.make_grid(2, 2), g) == 6),
        ("gadget/clique-random",
         all([_hardness_identity("clique-grid", 2, rng)[1] for _ in range(trials)])),
        ("gadget/path-m1", _hardness_identity("path", 1, rng)[1]),
    ]


IDENTITY_SUITES: Dict[str, Callable[[int, random.Random], List[Tuple[str, bool]]]] = {
    "uncolour": _verify_uncolour,
    "product": _verify_product,
    "quotient": _verify_quotient,
    "cfi": _verify_cfi,
    "hom-to-emb": _verify_hom_to_emb,
    "slice": _verify_slice,
    "minor": _verify_minor,
    "gadgets": _verify_gadgets,
}


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    names = sorted(IDENTITY_SUITES) if args.name == "all" else [args.name]
    results: List[Tuple[str, bool]] = []
    for name in names:
        results.extend(IDENTITY_SUITES[name](args.trials, rng))
    results.sort()
    if args.json:
        _emit({"tests": [{"id": test, "pass": bool(ok)} for test, ok in results]}, None)
    else:
        for test, ok in results:
            print(f"{'PASS' if ok else 'FAIL'}  {test}")
    return 0 if all(ok for _, ok in results) else 1


# -- suites -------------------------------------------------------------------------


def _suite_compile(seed: int) -> List[Tuple[str, bool]]:
    patterns = {
        "P2": pattern.make_path(2),
        "P3": pattern.make_path(3),
        "P4": pattern.make_path(4),
        "C4": pattern.make_cycle(4),
        "K22": pattern.make_complete_bipartite(2, 2),
        "star3": pattern.make_complete_bipartite(1, 3),
        "double-edge": pattern.BipartiteMultigraph(1, 1, {(0, 0): 2}),
    }
    results = []
    for name, f in sorted(patterns.items()):
        for (n, m) in ((1, 1), (2, 2), (2, 3)):
            hp = oracle.hom_poly(f, n, m)
            for shape in ("td", "pw", "tw"):
                report = compilers.compile_single(f, n, m, shape)
                ok = report.circuit.expand_symbolic() == hp
                ok = ok and symmetry.is_symmetric(report.circuit, n, m)
                results.append((f"compile/{name}/{shape}/{n}x{m}", ok))
    return results


def _suite_symmetry(seed: int) -> List[Tuple[str, bool]]:
    rng = random.Random(seed)
    results = []
    for idx in range(30):
        n = rng.choice((2, 3))
        mode = rng.choice(("general", "skew"))
        c = symmetry.random_symmetric_circuit(n, n, rng, 40, mode)
        was_skew = c.validate(SKEW)[0]
        r = symmetry.rigidify(c)
        ok = symmetry.is_rigid(r) and r.size() <= c.size()
        names = c.variables()
        for _ in range(5):
            point = {v: Fraction(rng.randrange(0, 512)) for v in names}
            ok = ok and c.evaluate(point) == r.evaluate(point)
        if was_skew:
            ok = ok and r.validate(SKEW)[0]
        results.append((f"symmetry/rigidify/{idx:02d}", ok))
    report = compilers.compile_single(pattern.make_path(3), 2, 2, "td")
    analysis = symmetry.SymmetryAnalysis(report.circuit, 2, 2)
    results.append(("symmetry/td-P3-support-bound", analysis.max_support() <= 2))
    return sorted(results)


def _suite_reductions(seed: int) -> List[Tuple[str, bool]]:
    rng = random.Random(seed)
    results = []
    for name in sorted(IDENTITY_SUITES):
        results.extend(IDENTITY_SUITES[name](3, rng))
    return sorted(results)


SUITES = {
    "compile": _suite_compile,
    "symmetry": _suite_symmetry,
    "reductions": _suite_reductions,
}


def _cmd_suite(args) -> int:
    names = sorted(SUITES) if args.which == "all" else [args.which]
    results: List[Tuple[str, bool]] = []
    for name in names:
        results.extend(SUITES[name](args.seed))
    results.sort()
    report = {
        "seed": args.seed,
        "tests": [{"id": test, "pass": bool(ok)} for test, ok in results],
        "passed": sum(1 for _, ok in results if ok),
        "failed": sum(1 for _, ok in results if not ok),
    }
    _emit(report, args.out)
    return 0 if report["failed"] == 0 else 1


# -- entry point ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(prog="symcirc")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    parser.add_argument("--caps", help=f"JSON file overriding size caps ({', '.join(CAPS.get())})")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output for text-mode commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="generate pattern graphs")
    psub = p.add_subparsers(dest="action", required=True)
    gen = psub.add_parser("gen")
    gen.add_argument("kind", choices=["path", "grid", "btree", "kbipartite", "cycle"])
    gen.add_argument("--v", type=int, default=2)
    gen.add_argument("--rows", type=int, default=2)
    gen.add_argument("--cols", type=int, default=2)
    gen.add_argument("--a", type=int, default=1)
    gen.add_argument("--b", type=int, default=1)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_pattern)

    w = sub.add_parser("width", help="exact width parameters with certificates")
    w.add_argument("parameter", choices=["tw", "pw", "td"])
    w.add_argument("--graph", required=True)
    w.add_argument("--out")
    w.set_defaults(func=_cmd_width)

    c = sub.add_parser("compile", help="compile a pattern to a symmetric circuit")
    c.add_argument("--graph", required=True)
    c.add_argument("--shape", choices=["td", "pw", "tw"], required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--decomp")
    c.add_argument("--out")
    c.add_argument("--dot")
    c.set_defaults(func=_cmd_compile)

    a = sub.add_parser("analyze", help="symmetry report for a circuit")
    a.add_argument("--circuit", required=True)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze)

    o = sub.add_parser("oracle", help="brute-force reference evaluation")
    o.add_argument("which", choices=["hom", "colhom", "emb"])
    o.add_argument("--pattern", required=True)
    o.add_argument("--host", required=True)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    r = sub.add_parser("reduce", help="emit and check hardness gadgets and pipelines")
    r.add_argument("gadget", choices=["clique-grid", "btree", "path", "minor",
                                      "extract-subgraph", "extract-minor",
                                      "extract-lincomb"])
    r.add_argument("--n", type=_positive_int, required=True)
    r.add_argument("--minor-pattern", help="pattern S being projected or extracted")
    r.add_argument("--host-pattern", help="pattern F or F' supplying the oracle")
    r.add_argument("--terms", help="JSON with the linear combination's terms")
    r.add_argument("--ell", type=int, default=0, help="term index to extract")
    r.add_argument("--big-n", type=_positive_int, default=3, help="basis host size N")
    r.add_argument("--trials", type=_positive_int, default=3)
    r.add_argument("--out")
    r.set_defaults(func=_cmd_reduce)

    v = sub.add_parser("verify", help="run identity suites")
    vsub = v.add_subparsers(dest="action", required=True)
    vid = vsub.add_parser("identity")
    vid.add_argument("--name", default="all",
                     choices=["all"] + sorted(IDENTITY_SUITES))
    vid.add_argument("--trials", type=_positive_int, default=5)
    vid.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="same as the global --seed")
    vid.set_defaults(func=_cmd_verify)

    s = sub.add_parser("suite", help="run acceptance-style suites")
    s.add_argument("which", choices=["all"] + sorted(SUITES))
    s.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="same as the global --seed")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_suite)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        caps = _load_caps(args.caps) if args.caps else CAPS.get()
    except (OSError, ParseError) as exc:
        print(f"error: bad caps file: {exc}", file=sys.stderr)
        return 2
    token = CAPS.set(caps)
    try:
        return args.func(args)
    except (SymcircError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        CAPS.reset(token)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
