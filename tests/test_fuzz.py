"""Seeded fuzzing of the CLI's file options: malformed input never escapes as a traceback.

Every command below starts from valid files (checked to exit 0), then one or
two values somewhere in one file are replaced by a value of another type or
sign, or deleted.  `cli.run` must return 0, 1 or 2 and raise nothing.  The
numbers stay small and a tight caps file rides along, so each case runs in
milliseconds.
"""

import copy
import json
import random

import pytest

from symcirc.cli import run

ONE = {"num": "1", "den": "1"}
HALF = {"num": "1", "den": "2"}
P2 = {"a": 1, "b": 1, "edges": [[1, 1, 1]]}
P3 = {"a": 2, "b": 1, "edges": [[1, 1, 1], [2, 1, 1]]}
FILES = {
    "graph": P3,
    "tree": {"kind": "tree", "bags": [[1, 3], [2, 3]], "parent": [0, 1]},
    "path": {"kind": "path", "bags": [[1, 3], [2, 3]]},
    "elim": {"kind": "elim", "parent": {"1": 3, "2": 3, "3": 0}},
    "circuit": {"gates": [{"id": 0, "label": {"var": "x_1_1"}},
                          {"id": 1, "label": {"const": HALF}},
                          {"id": 2, "label": "times"}, {"id": 3, "label": "plus"}],
                "wires": [[2, 0, 2], [2, 1, 1], [3, 2, 1], [3, 0, 1]], "output": 3},
    "host": {"n": 2, "m": 2,
             "weights": [[1, 1, HALF], [2, 1, ONE], [2, 2, {"num": "-3", "den": "1"}]]},
    "coloured": {"sizes": {"1": 1, "2": 2, "3": 1},
                 "weights": [[1, 1, 3, 1, ONE], [2, 1, 3, 1, HALF], [2, 2, 3, 1, ONE]]},
    "terms": {"terms": [{"alpha": ONE, "graph": P2}, {"alpha": HALF, "graph": P3}]},
    "minor": P2,
    "host-pattern": P3,
    "caps": {"width_vertices": 6, "brute_force_maps": 2000, "minor_norm": 10},
}
COMMANDS = [
    ["width", "tw", "--graph", "{graph}"],
    ["width", "pw", "--graph", "{graph}"],
    ["width", "td", "--graph", "{graph}"],
    ["compile", "--graph", "{graph}", "--shape", "tw", "--n", "2", "--m", "1"],
    ["compile", "--graph", "{graph}", "--shape", "tw", "--n", "2", "--m", "1", "--decomp", "{tree}"],
    ["compile", "--graph", "{graph}", "--shape", "pw", "--n", "1", "--m", "2", "--decomp", "{path}"],
    ["compile", "--graph", "{graph}", "--shape", "td", "--n", "1", "--m", "1", "--decomp", "{elim}"],
    ["analyze", "--circuit", "{circuit}", "--n", "1", "--m", "1"],
    ["oracle", "hom", "--pattern", "{graph}", "--host", "{host}"],
    ["oracle", "emb", "--pattern", "{graph}", "--host", "{host}"],
    ["oracle", "colhom", "--pattern", "{graph}", "--host", "{coloured}"],
    ["reduce", "minor", "--n", "1", "--trials", "1",
     "--minor-pattern", "{minor}", "--host-pattern", "{host-pattern}"],
    ["reduce", "extract-subgraph", "--n", "1", "--trials", "1",
     "--minor-pattern", "{minor}", "--host-pattern", "{host-pattern}"],
    ["reduce", "extract-minor", "--n", "1", "--trials", "1",
     "--minor-pattern", "{minor}", "--host-pattern", "{host-pattern}"],
    ["reduce", "extract-lincomb", "--n", "1", "--big-n", "2", "--ell", "1", "--trials", "1",
     "--terms", "{terms}"],
]
REPLACEMENTS = [None, 0, -1, -2, 2, 3, 1.5, -0.5, True, False, "", "x", "0", "-1", "2",
                [], [0], [1, 2], {}, {"1": 1}, {"num": "1", "den": "0"}, {"num": "1"}]
CASES = 1200


def _places(value, path=()):
    """Every (container path, key) inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _places(child, path + (key,))


def _mutate(data, rng):
    data = copy.deepcopy(data)
    for _ in range(rng.choice((1, 1, 2))):
        places = list(_places(data))
        if not places:
            return rng.choice(REPLACEMENTS)
        path, key = rng.choice(places)
        container = data
        for step in path:
            container = container[step]
        if rng.random() < 0.2:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return data


def _argv(tmp_path, command, files):
    paths = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return ["--caps", paths["caps"]] + [arg.format(**paths) for arg in command]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(
    a.strip("{}") for a in c if not a.startswith("-") and not a.isdigit()))
def test_valid_inputs_exit_0(capsys, tmp_path, command):
    code = run(_argv(tmp_path, command, FILES))
    assert code == 0, capsys.readouterr().err


def test_mutated_inputs_exit_0_1_or_2(capsys, tmp_path):
    rng = random.Random(1)
    escaped = []
    for case in range(CASES):
        command = rng.choice(COMMANDS)
        used = ["caps"] + [arg[1:-1] for arg in command if arg.startswith("{")]
        target = rng.choice(used)
        files = dict(FILES, **{target: _mutate(FILES[target], rng)})
        argv = _argv(tmp_path, command, files)
        try:
            code = run(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is reported below
            code = repr(exc)
        capsys.readouterr()
        if code not in (0, 1, 2):
            escaped.append((case, command[:2], target, files[target], code))
    assert escaped == []
