"""CLI: subcommands, exit codes, determinism."""

import itertools
import json
import sys

import pytest

from symcirc import cli
from symcirc.circuit import Circuit, CircuitBuilder
from symcirc.cli import run
from symcirc.errors import CAPS, SizeCap
from symcirc.pattern import BipartiteMultigraph, make_path
from symcirc.symmetry import analyze

from test_golden import _analyze_inputs

DEFAULT_CAPS = {"width_vertices": 14, "brute_force_maps": 10 ** 7, "minor_norm": 24}


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_gen(capsys, tmp_path):
    code, out, _ = _run(capsys, "pattern", "gen", "path", "--v", "5")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 3 and data["b"] == 2 and len(data["edges"]) == 4


def test_width_pipeline(capsys, tmp_path):
    graph = tmp_path / "p5.json"
    code, _, _ = _run(capsys, "pattern", "gen", "path", "--v", "5", "--out", str(graph))
    assert code == 0
    code, out, _ = _run(capsys, "width", "pw", "--graph", str(graph))
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_compile_and_analyze(capsys, tmp_path):
    graph = tmp_path / "p3.json"
    _run(capsys, "pattern", "gen", "path", "--v", "3", "--out", str(graph))
    circuit = tmp_path / "c.json"
    code, _, _ = _run(capsys, "compile", "--graph", str(graph), "--shape", "td",
                      "--n", "2", "--m", "2", "--out", str(circuit))
    assert code == 0
    payload = json.loads(circuit.read_text())
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(payload["circuit"]))
    code, out, _ = _run(capsys, "analyze", "--circuit", str(raw), "--n", "2", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["maxSup"] <= 2


def test_readme_compile_then_analyze_chain(capsys, tmp_path, monkeypatch):
    # The README's CLI block: `analyze` reads the compile report that
    # `compile --out` writes, through its circuit member.
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, "pattern", "gen", "path", "--v", "5", "--out", "p5.json")[0] == 0
    code, _, _ = _run(capsys, "compile", "--graph", "p5.json", "--shape", "td",
                      "--n", "2", "--m", "2", "--out", "c.json")
    assert code == 0
    code, out, err = _run(capsys, "analyze", "--circuit", "c.json", "--n", "2", "--m", "2")
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "c.json").read_text())
    (tmp_path / "raw.json").write_text(json.dumps(report["circuit"]))
    assert _run(capsys, "analyze", "--circuit", "raw.json", "--n", "2", "--m", "2")[1] == out


def test_circuit_ids_and_wires_may_be_integer_strings_but_not_bools(capsys, tmp_path):
    gates = [{"id": 0, "label": {"var": "x_1_1"}}, {"id": 1, "label": {"var": "x_2_1"}},
             {"id": 2, "label": "plus"}]
    data = {"gates": gates, "wires": [[2, 0, 1], [2, 1, 1]], "output": 2}
    as_strings = {"gates": [dict(gate, id=str(gate["id"])) for gate in gates],
                  "wires": [[str(x) for x in wire] for wire in data["wires"]], "output": 2}
    assert Circuit.from_json(as_strings).serialize() == Circuit.from_json(data).serialize()
    with_true = [{"gates": [dict(gates[0], id=True)] + gates[1:], "wires": data["wires"],
                  "output": 2},
                 {"gates": gates, "wires": [[2, 0, 1], [2, 1, True]], "output": 2},
                 {"gates": gates, "wires": [[True, 0, 1], [2, 1, 1]], "output": 2}]
    for k, bad in enumerate(with_true):
        circuit = _write(tmp_path, f"bad{k}.json", bad)
        code, out, err = _run(capsys, "analyze", "--circuit", circuit, "--n", "2", "--m", "1")
        assert (code, out, err) == (2, "", "error: not an integer: True\n"), k


def test_oracle_subcommand(capsys, tmp_path):
    graph = tmp_path / "p2.json"
    _run(capsys, "pattern", "gen", "path", "--v", "2", "--out", str(graph))
    host = tmp_path / "host.json"
    host.write_text(json.dumps({
        "n": 2, "m": 2,
        "weights": [[i, j, {"num": "1", "den": "1"}] for i in (1, 2) for j in (1, 2)],
    }))
    code, out, _ = _run(capsys, "oracle", "hom", "--pattern", str(graph), "--host", str(host))
    assert code == 0
    assert json.loads(out)["value"]["num"] == "4"


def test_verify_identity_exit_codes(capsys):
    code, out, _ = _run(capsys, "verify", "identity", "--name", "quotient",
                        "--trials", "3", "--seed", "7")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_reduce_subcommand(capsys):
    code, out, _ = _run(capsys, "--seed", "3", "reduce", "clique-grid", "--n", "1")
    assert code == 0
    assert json.loads(out)["identity_holds"] is True


def test_suite_determinism(capsys, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code, _, _ = _run(capsys, "suite", "all", "--seed", "1", "--out", str(r1))
    assert code == 0
    code, _, _ = _run(capsys, "suite", "all", "--seed", "1", "--out", str(r2))
    assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["failed"] == 0


def test_reduce_pipeline_subcommands(capsys, tmp_path):
    p2 = tmp_path / "p2.json"
    p3 = tmp_path / "p3.json"
    _run(capsys, "pattern", "gen", "path", "--v", "2", "--out", str(p2))
    _run(capsys, "pattern", "gen", "path", "--v", "3", "--out", str(p3))
    code, out, _ = _run(capsys, "--seed", "3", "reduce", "minor", "--n", "2",
                        "--minor-pattern", str(p2), "--host-pattern", str(p3))
    assert code == 0 and json.loads(out)["identity_holds"]
    c4 = tmp_path / "c4.json"
    _run(capsys, "pattern", "gen", "cycle", "--v", "4", "--out", str(c4))
    code, out, err = _run(capsys, "--seed", "3", "reduce", "minor", "--n", "2",
                          "--minor-pattern", str(c4), "--host-pattern", str(p3))
    assert (code, out) == (1, "") and "no minor witness found" in err
    code, out, _ = _run(capsys, "--seed", "3", "reduce", "extract-subgraph", "--n", "1",
                        "--minor-pattern", str(p2), "--host-pattern", str(p3))
    assert code == 0 and json.loads(out)["identity_holds"]
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps({"terms": [
        {"alpha": {"num": "1", "den": "1"}, "graph": json.loads(p2.read_text())},
        {"alpha": {"num": "2", "den": "1"}, "graph": json.loads(p3.read_text())},
    ]}))
    code, out, _ = _run(capsys, "--seed", "3", "reduce", "extract-lincomb", "--n", "2",
                        "--big-n", "3", "--ell", "0", "--terms", str(terms))
    assert code == 0 and json.loads(out)["identity_holds"]


def test_caps_file(capsys, tmp_path):
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps({"width_vertices": 4}))
    p6 = tmp_path / "p6.json"
    _run(capsys, "pattern", "gen", "path", "--v", "6", "--out", str(p6))
    code, _, err = _run(capsys, "--caps", str(caps), "width", "tw", "--graph", str(p6))
    assert code == 2 and "cap" in err
    for shape in ("td", "pw", "tw"):
        code, _, err = _run(capsys, "--caps", str(caps), "compile", "--graph", str(p6),
                            "--shape", shape, "--n", "1", "--m", "1")
        assert code == 2 and "cap" in err, shape


def test_verify_json_flag(capsys):
    code, out, _ = _run(capsys, "--json", "verify", "identity", "--name", "cfi",
                        "--trials", "2", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert all(t["pass"] for t in report["tests"])


def test_usage_errors(capsys, tmp_path):
    code, _, _ = _run(capsys, "width", "tw", "--graph", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"a\": 1}")
    code, _, err = _run(capsys, "width", "tw", "--graph", str(bad))
    assert code in (0, 2)  # graph with no b field is a parse error
    bad.write_text("{\"nope\": 1}")
    code, _, _ = _run(capsys, "width", "tw", "--graph", str(bad))
    assert code == 2
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_analyze_rejects_bad_gate_ids(capsys, tmp_path):
    var = {"var": "x_1_1"}
    cases = {
        "past_end": [{"id": 1, "label": var}],
        "negative": [{"id": -1, "label": var}, {"id": 0, "label": "plus"}],
        "duplicate": [{"id": 0, "label": "plus"}, {"id": 0, "label": var}],
        "zero_den": [{"id": 0, "label": {"const": {"num": "1", "den": "0"}}}],
    }
    for name, gates in cases.items():
        wires = [[0, 1, 1]] if name == "negative" else []
        circuit = _write(tmp_path, f"{name}.json", {"gates": gates, "wires": wires, "output": 0})
        code, _, err = _run(capsys, "analyze", "--circuit", circuit, "--n", "1", "--m", "1")
        assert code == 2 and err.startswith("error:"), name


@pytest.mark.parametrize("gates, wires, output, reason", [
    ([{"var": "x_1_1"}, {"var": "x_1_1"}, "plus"], [[2, 0, 1], [2, 1, 1]], 2,
     "duplicate input gate"),
    ([{"var": "x_1_1"}, {"var": "x_1_2"}, "plus"], [[2, 0, 1], [0, 1, 1]], 2,
     "input gate 0 has children"),
    ([{"var": "x_1_1"}, "plus", "plus"], [[2, 0, 1], [2, 1, 1]], 2,
     "internal gate 1 has no children"),
    ([{"var": "x_1_1"}, "plus", "plus"], [[1, 0, 1], [2, 1, 1]], 1,
     "output gate has parents"),
    ([{"var": "x_1_1"}, {"var": "x_1_2"}, "plus"], [[2, 0, 1]], 2,
     "unreachable gates present"),
])
def test_analyze_rejects_malformed_circuits(capsys, tmp_path, gates, wires, output, reason):
    data = {"gates": [{"id": g, "label": label} for g, label in enumerate(gates)],
            "wires": wires, "output": output}
    circuit = _write(tmp_path, "c.json", data)
    code, out, err = _run(capsys, "analyze", "--circuit", circuit, "--n", "1", "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"invalid circuit: {reason}" in err


@pytest.mark.parametrize("argv", [["grid", "--rows", "2", "--cols", "3"],
                                  ["btree", "--v", "2"], ["kbipartite", "--a", "2", "--b", "3"]])
def test_pattern_gen_kinds_parse_back(capsys, argv):
    code, out, _ = _run(capsys, "pattern", "gen", *argv)
    assert code == 0
    assert BipartiteMultigraph.from_json(json.loads(out)).num_vertices() > 1


def test_compile_writes_dot(capsys, tmp_path):
    graph = _write(tmp_path, "p3.json", make_path(3).to_json())
    dot = tmp_path / "c.dot"
    code, _, _ = _run(capsys, "compile", "--graph", graph, "--shape", "pw", "--n", "2",
                      "--m", "2", "--dot", str(dot))
    assert code == 0 and dot.read_text().startswith("digraph circuit {")


@pytest.mark.parametrize("gadget, n", [("btree", "1"), ("path", "2")])
def test_reduce_family_gadgets(capsys, gadget, n):
    code, out, _ = _run(capsys, "--seed", "2", "reduce", gadget, "--n", n)
    assert code == 0 and json.loads(out)["identity_holds"] is True


def test_compile_rejects_broken_decompositions(capsys, tmp_path):
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    two_edges = _write(tmp_path, "2k2.json", {"a": 2, "b": 2, "edges": [[1, 1, 1], [2, 2, 1]]})
    cases = [
        # A parent index past the last bag.
        (p3, "tw", {"kind": "tree", "bags": [[1, 3], [2, 3]], "parent": [0, 7]}),
        # Two bags pointing at each other, detached from the root.
        (two_edges, "tw", {"kind": "tree", "bags": [[1, 3], [2, 4], [2, 4]], "parent": [0, 3, 2]}),
        # An elimination-forest parent outside V(F).
        (p3, "td", {"kind": "elim", "parent": {"1": 0, "2": 9, "3": 1}}),
    ]
    for idx, (graph, shape, decomp) in enumerate(cases):
        path = _write(tmp_path, f"decomp{idx}.json", decomp)
        code, _, err = _run(capsys, "compile", "--graph", graph, "--shape", shape,
                            "--n", "2", "--m", "2", "--decomp", path)
        assert code == 2 and err.startswith("error:"), decomp


def test_zero_denominator_hosts(capsys, tmp_path):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    zero = {"num": "1", "den": "0"}
    host = _write(tmp_path, "host.json", {"n": 1, "m": 1, "weights": [[1, 1, zero]]})
    coloured = _write(tmp_path, "coloured.json",
                      {"sizes": {"1": 1, "2": 1}, "weights": [[1, 1, 2, 1, zero]]})
    for which, path in (("hom", host), ("emb", host), ("colhom", coloured)):
        code, _, err = _run(capsys, "oracle", which, "--pattern", p2, "--host", path)
        assert code == 2 and err.startswith("error:"), which


def test_caps_do_not_outlive_run(capsys, tmp_path):
    caps = _write(tmp_path, "caps.json", {"brute_force_maps": 5})
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    host = _write(tmp_path, "host.json", {"n": 2, "m": 2, "weights": []})
    code, _, err = _run(capsys, "--caps", caps, "oracle", "hom", "--pattern", p3, "--host", host)
    assert code == 2 and "cap 5" in err
    assert dict(CAPS.get()) == DEFAULT_CAPS
    code, out, _ = _run(capsys, "oracle", "hom", "--pattern", p3, "--host", host)
    assert code == 0 and json.loads(out)["value"] == {"num": "0", "den": "1"}


def test_malformed_json_files(capsys, tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"a": 1, ')
    not_object = _write(tmp_path, "list.json", [1, 2])
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    host = _write(tmp_path, "host.json", {"n": 1, "m": 1, "weights": []})
    for bad in (str(truncated), not_object):
        commands = [
            ["width", "tw", "--graph", bad],
            ["compile", "--graph", bad, "--shape", "td", "--n", "1", "--m", "1"],
            ["compile", "--graph", p2, "--shape", "td", "--n", "1", "--m", "1", "--decomp", bad],
            ["analyze", "--circuit", bad, "--n", "1", "--m", "1"],
            ["oracle", "hom", "--pattern", bad, "--host", host],
            ["oracle", "hom", "--pattern", p2, "--host", bad],
            ["--caps", bad, "width", "tw", "--graph", p2],
        ]
        for argv in commands:
            code, _, err = _run(capsys, *argv)
            assert code == 2 and err.startswith("error:"), argv


def test_extract_lincomb_rejects_bad_alphas(capsys, tmp_path):
    p2 = {"a": 1, "b": 1, "edges": [[1, 1, 1]]}
    cases = {
        "zero_den": {"alpha": {"num": "1", "den": "0"}, "graph": p2},
        "no_alpha": {"graph": p2},
    }
    for name, term in cases.items():
        terms = _write(tmp_path, f"{name}.json", {"terms": [term]})
        code, _, err = _run(capsys, "reduce", "extract-lincomb", "--n", "1",
                            "--big-n", "2", "--terms", terms)
        assert code == 2 and err.startswith("error:"), name


def test_global_seed_reaches_suite_and_verify(capsys):
    code, out, _ = _run(capsys, "--seed", "5", "suite", "symmetry")
    assert code == 0 and json.loads(out)["seed"] == 5
    code, after, _ = _run(capsys, "suite", "symmetry", "--seed", "5")
    assert code == 0 and after == out
    argv = ["--json", "verify", "identity", "--name", "quotient", "--trials", "2"]
    _, before, _ = _run(capsys, "--seed", "7", *argv)
    _, after, _ = _run(capsys, *argv, "--seed", "7")
    assert before == after


def test_forest_parent_of_the_wrong_type(capsys, tmp_path):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    forest = _write(tmp_path, "forest.json", {"kind": "elim", "parent": [0, 1]})
    code, _, err = _run(capsys, "compile", "--graph", p2, "--shape", "td",
                        "--n", "1", "--m", "1", "--decomp", forest)
    assert code == 2 and err.startswith("error:")


def test_coloured_sizes_of_the_wrong_type(capsys, tmp_path):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    coloured = _write(tmp_path, "coloured.json", {"sizes": [1, 1], "weights": []})
    code, _, err = _run(capsys, "oracle", "colhom", "--pattern", p2, "--host", coloured)
    assert code == 2 and err.startswith("error:")


def test_json_integers_are_not_truncated(capsys, tmp_path):
    one = {"num": "1", "den": "1"}
    var = {"id": 0, "label": {"var": "x_1_1"}}
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    graphs = {
        "float_multiplicity": {"a": 1, "b": 1, "edges": [[1, 1, 1.5]]},
        "bool_side_size": {"a": True, "b": 1, "edges": [[1, 1, 1]]},
    }
    circuits = {
        "float_gate_id": {"gates": [dict(var, id=0.0)], "wires": [], "output": 0},
        "float_wire_multiplicity": {"gates": [var, {"id": 1, "label": "plus"}],
                                    "wires": [[1, 0, 1.5]], "output": 1},
    }
    hosts = {
        "hom": {"n": 1, "m": 1, "weights": [[1.0, 1, one]]},
        "colhom": {"sizes": {"1": 1.5, "2": 1}, "weights": [[1, 1, 2, 1, one]]},
    }
    decompositions = {
        "float_bag_vertex": ("tw", {"kind": "tree", "bags": [[1.0, 3], [2, 3]], "parent": [0, 1]}),
        "bool_bag_vertex": ("pw", {"kind": "path", "bags": [[1, 3], [True, 2, 3]]}),
        "float_forest_parent": ("td", {"kind": "elim", "parent": {"1": 0, "2": 1, "3": 2.0}}),
    }
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    commands = {}
    for name, data in graphs.items():
        commands[name] = ["width", "tw", "--graph", _write(tmp_path, f"{name}.json", data)]
    for name, (shape, data) in decompositions.items():
        commands[name] = ["compile", "--graph", p3, "--shape", shape, "--n", "2", "--m", "2",
                          "--decomp", _write(tmp_path, f"{name}.json", data)]
    for name, data in circuits.items():
        path = _write(tmp_path, f"{name}.json", data)
        commands[name] = ["analyze", "--circuit", path, "--n", "1", "--m", "1"]
    for which, data in hosts.items():
        path = _write(tmp_path, f"{which}.json", data)
        commands[which] = ["oracle", which, "--pattern", p2, "--host", path]
    for name, argv in commands.items():
        code, _, err = _run(capsys, *argv)
        assert code == 2 and err.startswith("error:"), name


@pytest.mark.parametrize("gadget, given, missing", [
    ("minor", [], "--minor-pattern"),
    ("extract-subgraph", ["--minor-pattern"], "--host-pattern"),
    ("extract-minor", ["--host-pattern"], "--minor-pattern"),
    ("extract-lincomb", [], "--terms"),
])
def test_reduce_names_a_missing_file_option(capsys, tmp_path, gadget, given, missing):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    argv = ["reduce", gadget, "--n", "1"]
    for option in given:
        argv += [option, p2]
    code, _, err = _run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and missing in err


def test_compile_rejects_empty_hosts(capsys, tmp_path):
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    for shape in ("td", "pw", "tw"):
        for n, m in (("0", "1"), ("1", "0")):
            code, _, err = _run(capsys, "compile", "--graph", p3, "--shape", shape,
                                "--n", n, "--m", m)
            assert code == 2 and "host sizes must be >= 1" in err, (shape, n, m)


@pytest.mark.parametrize("caps", [
    {"width_vertices": 2.9},
    {"width_vertices": True},
    {"width_vertices": -5},
    {"widht_vertices": 1},
])
def test_caps_are_read_strictly(capsys, tmp_path, caps):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    path = _write(tmp_path, "caps.json", caps)
    code, out, err = _run(capsys, "--caps", path, "width", "tw", "--graph", p2)
    assert code == 2 and out == "" and err.startswith("error: bad caps file:")


@pytest.mark.parametrize("option", ["width --graph", "pattern gen --out", "compile --dot"])
def test_a_directory_as_a_file_option_exits_2(capsys, tmp_path, option):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    argv = {
        "width --graph": ["width", "tw", "--graph", str(tmp_path)],
        "pattern gen --out": ["pattern", "gen", "path", "--out", str(tmp_path)],
        "compile --dot": ["compile", "--graph", p2, "--shape", "td", "--n", "1", "--m", "1",
                          "--dot", str(tmp_path)],
    }[option]
    code, _, err = _run(capsys, *argv)
    assert code == 2 and err.startswith("error:"), option


@pytest.mark.parametrize("name", ["x_a_1", "x_0_1", "x_-1_1"])
def test_analyze_rejects_malformed_variable_names(capsys, tmp_path, name):
    circuit = _write(tmp_path, "c.json", {"gates": [{"id": 0, "label": {"var": name}}],
                                          "wires": [], "output": 0})
    code, out, err = _run(capsys, "analyze", "--circuit", circuit, "--n", "1", "--m", "1")
    assert code == 2 and out == "" and "not a matrix variable name" in err


@pytest.mark.parametrize("size", ["0", "-1"])
def test_analyze_rejects_matrix_sizes_below_one(capsys, tmp_path, size):
    one = {"const": {"num": "1", "den": "1"}}
    circuit = _write(tmp_path, "c.json", {"gates": [{"id": 0, "label": one}],
                                          "wires": [], "output": 0})
    code, out, err = _run(capsys, "analyze", "--circuit", circuit, "--n", size, "--m", size)
    assert code == 2 and out == "" and "matrix sizes must be >= 1" in err


def test_analyze_rejects_non_symmetric_circuits(capsys, tmp_path):
    from test_symmetry import _ten_gate_dag

    b = CircuitBuilder()
    unmerged = b.finish(b.plus([(b.var("x_1_1"), 1), (b.var("x_1_2"), 2)]))
    for name, c, n, m in (("unmerged", unmerged, 1, 2), ("merged", _ten_gate_dag(), 2, 1)):
        circuit = _write(tmp_path, f"{name}.json", c.to_json())
        code, out, err = _run(capsys, "analyze", "--circuit", circuit,
                              "--n", str(n), "--m", str(m))
        assert code == 2 and out == "", name
        assert err.startswith("error:") and "not symmetric" in err, name


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_trials_below_one_exit_2(capsys, tmp_path, command):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    argv = {
        "verify": ["verify", "identity", "--name", "product"],
        "reduce": ["reduce", "minor", "--n", "2", "--minor-pattern", p2, "--host-pattern", p3],
    }[command]
    code, out, _ = _run(capsys, *argv, "--trials", "1")
    assert code == 0
    code, out, err = _run(capsys, *argv, "--trials", "0")
    assert code == 2 and out == "" and "--trials" in err


@pytest.mark.parametrize("key, argv", [
    ("width_vertices", ["width", "tw", "--graph", "{p6}"]),
    ("width_vertices", ["width", "pw", "--graph", "{p6}"]),
    ("width_vertices", ["width", "td", "--graph", "{p6}"]),
    ("width_vertices", ["compile", "--graph", "{p6}", "--shape", "tw", "--n", "1", "--m", "1"]),
    ("width_vertices", ["suite", "compile"]),
    ("brute_force_maps", ["oracle", "hom", "--pattern", "{p6}", "--host", "{host}"]),
    ("brute_force_maps", ["verify", "identity", "--name", "uncolour"]),
    ("brute_force_maps", ["suite", "reductions"]),
    ("minor_norm", ["reduce", "minor", "--n", "1", "--minor-pattern", "{p6}",
                    "--host-pattern", "{p6}"]),
    ("minor_norm", ["verify", "identity", "--name", "minor"]),
    ("brute_force_maps", ["reduce", "extract-subgraph", "--n", "1", "--trials", "1",
                          "--minor-pattern", "{p2}", "--host-pattern", "{p6}"]),
    ("brute_force_maps", ["reduce", "extract-minor", "--n", "1", "--trials", "1",
                          "--minor-pattern", "{p2}", "--host-pattern", "{p6}"]),
    ("brute_force_maps", ["reduce", "btree", "--n", "2"]),
])
def test_each_cap_reaches_every_command_and_is_named(capsys, tmp_path, key, argv):
    """A cap hit exits 2 (never a FAIL line), naming its value and its key."""
    files = {"p6": _write(tmp_path, "p6.json", {"a": 3, "b": 3, "edges": [
                 [1, 1, 1], [2, 1, 1], [2, 2, 1], [3, 2, 1], [3, 3, 1]]}),
             "p2": _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]}),
             "host": _write(tmp_path, "host.json", {"n": 2, "m": 2, "weights": []})}
    caps = _write(tmp_path, "caps.json", {key: 3})
    code, out, err = _run(capsys, "--caps", caps, *(a.format(**files) for a in argv))
    assert code == 2 and out == "" and err.startswith("error:")
    assert err.rstrip().endswith(f"exceeds cap 3 (set by --caps {key})")


def test_capped_hardness_target_exits_before_the_gadget_is_built(capsys, tmp_path, monkeypatch):
    built, build = [], cli.reduce.btree_vp_gadget
    monkeypatch.setattr(cli.reduce, "btree_vp_gadget", lambda *args: built.append(args) or build(*args))
    caps = _write(tmp_path, "caps.json", {"brute_force_maps": 1000})
    code, out, err = _run(capsys, "--caps", caps, "reduce", "btree", "--n", "2")
    assert code == 2 and out == "" and "exceeds cap 1000 (set by --caps brute_force_maps)" in err
    assert built == []


def test_json_integers_past_the_digit_limit_exit_2(capsys, tmp_path):
    graph = tmp_path / "long.json"
    graph.write_text('{"a": ' + "1" * 5000 + ', "b": 1}')
    code, out, err = _run(capsys, "width", "tw", "--graph", str(graph))
    assert code == 2 and out == "" and err.startswith("error:") and "not valid JSON" in err


def test_a_term_graph_that_is_not_an_object_exits_2(capsys, tmp_path):
    terms = _write(tmp_path, "terms.json",
                   {"terms": [{"alpha": {"num": "1", "den": "1"}, "graph": 0}]})
    code, out, err = _run(capsys, "reduce", "extract-lincomb", "--n", "1", "--big-n", "2",
                          "--terms", terms)
    assert code == 2 and out == "" and "malformed graph JSON" in err


def test_values_too_long_to_print_exit_2(capsys, tmp_path):
    pattern = _write(tmp_path, "p.json", {"a": 1, "b": 1, "edges": [[1, 1, 6000]]})
    seven = {"num": "7", "den": "1"}
    host = _write(tmp_path, "host.json", {"n": 1, "m": 1, "weights": [[1, 1, seven]]})
    code, out, err = _run(capsys, "oracle", "hom", "--pattern", pattern, "--host", host)
    assert code == 2 and out == "" and "4300-digit limit" in err
    # The size bound claimed for a forest of height 1200 has about 7,750 digits.
    path = _write(tmp_path, "p1200.json", make_path(1200).to_json())
    chain = {"kind": "elim", "parent": {str(v): v - 1 for v in range(1, 1201)}}
    forest = _write(tmp_path, "chain.json", chain)
    code, out, err = _run(capsys, "compile", "--graph", path, "--shape", "td",
                          "--n", "1", "--m", "1", "--decomp", forest)
    assert code == 2 and out == "" and err.startswith("error:") and "4300-digit limit" in err


def test_deep_inputs_stay_within_the_recursion_limit(capsys, tmp_path):
    one = {"const": {"num": "1", "den": "1"}}
    gates = [{"id": 0, "label": {"var": "x_1_1"}}, {"id": 1, "label": one}]
    wires = []
    for g in range(2, 1202):  # plus(previous, 1), 1200 deep
        gates.append({"id": g, "label": "plus"})
        wires += [[g, g - 1 if g > 2 else 0, 1], [g, 1, 1]]
    chain = _write(tmp_path, "chain.json", {"gates": gates, "wires": wires, "output": 1201})
    code, out, err = _run(capsys, "analyze", "--circuit", chain, "--n", "1", "--m", "1")
    assert code == 0 and err == "" and json.loads(out)["maxOrb"] == 1
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    bags = _write(tmp_path, "bags.json", {"kind": "path", "bags": [[1, 2]] * 1200})
    code, out, err = _run(capsys, "compile", "--graph", p2, "--shape", "pw",
                          "--n", "1", "--m", "1", "--decomp", bags)
    assert code == 0 and err == "" and json.loads(out)["shape"] == "skew"


@pytest.mark.parametrize("shape", ["td", "pw", "tw"])
def test_width_certificates_compile_as_compile_single_does(capsys, tmp_path, shape):
    for kind in ("path", "cycle"):
        graph = str(tmp_path / f"{kind}.json")
        _run(capsys, "pattern", "gen", kind, "--v", "4", "--out", graph)
        code, out, _ = _run(capsys, "width", shape, "--graph", graph)
        assert code == 0
        decomp = _write(tmp_path, f"{kind}-{shape}.json", json.loads(out)["certificate"])
        argv = ["compile", "--graph", graph, "--shape", shape, "--n", "2", "--m", "3"]
        code, direct, _ = _run(capsys, *argv)
        assert code == 0
        code, via_certificate, _ = _run(capsys, *argv, "--decomp", decomp)
        assert code == 0 and via_certificate == direct, (kind, shape)


@pytest.mark.parametrize("gadget", ["clique-grid", "btree", "path", "minor", "extract-subgraph",
                                    "extract-minor", "extract-lincomb"])
@pytest.mark.parametrize("option", ["--n", "--big-n"])
def test_reduce_host_sizes_below_one_exit_2(capsys, tmp_path, gadget, option):
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    p3 = _write(tmp_path, "p3.json", {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]})
    terms = _write(tmp_path, "terms.json", {"terms": [
        {"alpha": {"num": "1", "den": "1"}, "graph": {"a": 1, "b": 1, "edges": [[1, 1, 1]]}}]})
    sizes = {"--n": "1", "--big-n": "2", option: "0"}
    code, out, err = _run(capsys, "reduce", gadget, "--n", sizes["--n"],
                          "--big-n", sizes["--big-n"], "--trials", "1",
                          "--minor-pattern", p2, "--host-pattern", p3, "--terms", terms)
    assert code == 2 and out == "" and option in err


@pytest.mark.parametrize("option", ["--n", "--big-n", "--trials"])
def test_non_integer_counts_exit_2_with_a_plain_message(capsys, option):
    sizes = {"--n": "1", "--big-n": "2", "--trials": "1", option: "abc"}
    code, out, err = _run(capsys, "reduce", "clique-grid", *itertools.chain(*sizes.items()))
    assert code == 2 and out == ""
    assert f"argument {option}: not an integer: 'abc'" in err and "_positive_int" not in err


def test_emitted_text_is_json_dumps_byte_for_byte(monkeypatch, capsys):
    """`_json_text` against `json.dumps(data, indent=2, sort_keys=True)` on the
    payloads of `symcirc suite all --seed 1` and of `symcirc analyze` on the
    golden analysis inputs, and on edge cases: empty containers, equal tuples
    at different depths (tuple texts are kept per indentation), tuples equal
    as values but not as JSON, bool and None, escapes and non-ASCII text."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda data, out: payloads.append(data) or emit(data, out))
    assert _run(capsys, "suite", "all", "--seed", "1")[0] == 0
    assert len(payloads) == 1
    payloads += [analyze(c, n, n).to_json() for c, n in _analyze_inputs()]
    pair = ("L", 1)
    payloads += [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}], [()]],
        [pair, [pair, [pair]], {"deep": (pair, [pair])}, (pair, (pair,))],
        [(1, 2), (True, 2), (1.0, 2), (False, None), [1, True, 1.0]],
        True, False, None, 0, -7, 2.5, -0.0, float("inf"),
        {"quote\"back\\slash": "tab\tnew\nline\x00\x1f", "é": ["ünï", "☃", "\U0001f600"]},
        {"z": 1, "a": 2, "m": 3}, {2: "int", 1.5: "float", 0: [pair]}, {True: 1}, {None: 1},
    ]
    for data in payloads:
        assert cli._json_text(data) == json.dumps(data, indent=2, sort_keys=True), data


def test_emitting_an_int_too_long_to_print_raises_size_cap(tmp_path):
    """Wherever it sits; `test_values_too_long_to_print_exit_2` shows the
    CLI turning this SizeCap into exit code 2."""
    huge = 10 ** sys.get_int_max_str_digits()
    for data in (huge, [huge], {"v": huge}, [("L", huge)], [("L", 1), ("L", huge)]):
        with pytest.raises(SizeCap, match="digit limit"):
            cli._emit(data, str(tmp_path / "out.json"))



ONE, TWO = {"num": "1", "den": "1"}, {"num": "2", "den": "1"}


def test_repeated_edge_rows_add_multiplicities(capsys, tmp_path):
    """As repeated wires do in a circuit file; a row below multiplicity 1 exits 2."""
    host = _write(tmp_path, "host.json", {"n": 1, "m": 1, "weights": [[1, 1, TWO]]})
    for edges, value in (([[1, 1, 1]], "2"), ([[1, 1, 1], [1, 1, 1]], "4"), ([[1, 1, 2]], "4")):
        graph = _write(tmp_path, "g.json", {"a": 1, "b": 1, "edges": edges})
        code, out, _ = _run(capsys, "oracle", "hom", "--pattern", graph, "--host", host)
        assert code == 0 and json.loads(out)["value"] == {"num": value, "den": "1"}, edges
    zero = _write(tmp_path, "zero.json", {"a": 1, "b": 1, "edges": [[1, 1, 1], [1, 1, 0]]})
    code, out, err = _run(capsys, "oracle", "hom", "--pattern", zero, "--host", host)
    assert (code, out) == (2, "") and "multiplicity below 1" in err


def test_repeated_weight_rows_exit_2(capsys, tmp_path):
    """A host entry, or a coloured pair in either orientation, given twice."""
    p2 = _write(tmp_path, "p2.json", {"a": 1, "b": 1, "edges": [[1, 1, 1]]})
    twice = _write(tmp_path, "twice.json", {"n": 1, "m": 1, "weights": [[1, 1, ONE], [1, 1, TWO]]})
    code, out, err = _run(capsys, "oracle", "hom", "--pattern", p2, "--host", twice)
    assert (code, out) == (2, "") and "(1, 1) is given twice" in err
    for rows in ([[1, 1, 2, 1, ONE], [1, 1, 2, 1, TWO]], [[1, 1, 2, 1, ONE], [2, 1, 1, 1, TWO]]):
        coloured = _write(tmp_path, "c.json", {"sizes": {"1": 1, "2": 1}, "weights": rows})
        code, out, err = _run(capsys, "oracle", "colhom", "--pattern", p2, "--host", coloured)
        assert (code, out) == (2, "") and "is given twice" in err, rows
