"""Package hygiene: no runtime dependencies, no unused public names or imports."""

import ast
import pathlib
import re
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "symcirc"


def test_imports_only_stdlib_and_symcirc():
    allowed = set(sys.stdlib_module_names) | {"symcirc"}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    assert found, "no imports found; is SRC right?"
    assert {name: files for name, files in found.items() if name not in allowed} == {}


def _referenced_words(tree: ast.AST) -> set:
    """Identifiers the code uses, and the words of its string constants other
    than docstrings; comments and docstrings do not count."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(id(first.value))
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"\w+", node.value))
    return words


def test_every_public_name_is_referenced():
    """Each public module-level class, function and method is used somewhere
    besides its definition: named in code, or in a string that is not a
    docstring."""
    root = SRC.parents[1]
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            referenced |= _referenced_words(ast.parse(path.read_text(encoding="utf-8")))
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in bodies:
            for node in body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    defined.setdefault(node.name, set()).add(path.name)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.setdefault(node.name, set()).add(path.name)
    unused = {name: files for name, files in defined.items() if name not in referenced}
    assert unused == {}


def test_every_error_type_is_raised():
    """Each exception class in errors.py but the base class is raised in the package."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))
    raised = set(re.findall(r"\braise (\w+)\(", text)) | {"SymcircError"}
    assert len(classes) > 1 and [name for name in classes if name not in raised] == []


def test_no_module_level_mutable_state_is_rebound():
    """No `global` statement, and no assignment to an attribute of an imported module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
            # Assignment, augmented and annotated assignment, del, for targets.
            targets = list(getattr(node, "targets", [])) + [getattr(node, "target", None)]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("setattr", "delattr") and node.args):
                targets.append(ast.Attribute(value=node.args[0], attr="?"))
            for target in targets:
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id in modules):
                    found.append(f"{path.name}:{node.lineno} sets {target.value.id}.{target.attr}")
    assert found == []


_MUTATING_METHODS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "sort",
                     "reverse", "add", "discard", "update", "setdefault", "difference_update",
                     "intersection_update", "symmetric_difference_update"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_container_mutations(source: str) -> list:
    """Where a function mutates a module-level name bound to a dict, list or
    set: a subscript store or delete, an augmented assignment, or a call of
    a mutating method on the name."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value else [])
        value = getattr(node, "value", None)
        if isinstance(value, _CONTAINER_NODES) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CALLS):
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}

    def named(node):
        return isinstance(node, ast.Name) and node.id in containers

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = named(node.value)
            elif isinstance(node, ast.AugAssign):
                target = node.target
                hit = named(target) or (isinstance(target, ast.Subscript) and named(target.value))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = named(node.func.value) and node.func.attr in _MUTATING_METHODS
            else:
                hit = False
            if hit:
                found.append(node.lineno)
    return sorted(set(found))


def test_no_function_mutates_a_module_level_container():
    """No process-wide state hides in a module-level dict, list or set: no
    function of the package stores into one, deletes from one or calls a
    mutating method on one.  The rule itself flags each kind of mutation."""
    sample = ("TABLE = {}\nSEEN: set = set()\nORDER = [1]\nLABELS = {'a': (1,)}\n"
              "def f(k):\n    TABLE[k] = 1\n    SEEN.add(k)\n    ORDER += [k]\n"
              "    del TABLE[k]\n    return LABELS[k], ORDER.index(k), {}.update()\n"
              "g = lambda k: ORDER.append(k)\n")
    assert _module_container_mutations(sample) == [6, 7, 8, 9, 11]
    found = {path.name: _module_container_mutations(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_caches_decorate_only_functions_without_arguments():
    """functools.lru_cache and cache keep one result per argument tuple for
    the life of the process, so they may only decorate functions that take
    no arguments, whose one result is fixed (`cli.build_parser`)."""
    decorated, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    decorated.append(f"{path.name}:{node.name}")
                    args = node.args
                    if (args.posonlyargs or args.args or args.kwonlyargs or args.vararg
                            or args.kwarg):
                        found.append(f"{path.name}:{node.name}")
    assert "cli.py:build_parser" in decorated and found == []


def test_code_is_generated_in_one_place():
    """The builtins compile and exec are called only by circuit.py's kernel
    builder, and eval nowhere."""
    found = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("compile", "exec", "eval")):
            found.append((path.name, where, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    assert sorted(found) == [("circuit.py", "_build_kernel", "compile"),
                             ("circuit.py", "_build_kernel", "exec")]


def test_json_is_never_asked_to_indent():
    """No call in the package passes `indent=`: json's indented writer is its
    slow pure-Python encoder, and cli.py's `_json_text` is the one writer of
    indented JSON."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_import_is_used():
    """Each name a module of the package imports is read in that module.
    The one exception is `compilers.rigidify`, which perfbench wraps there."""
    kept = {("compilers.py", "rigidify")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used and (path.name, name) not in kept]
    assert found == []


def test_no_nested_function_calls_itself():
    """No function defined inside another function refers to its own name.
    Such a closure holds a cell that holds the function itself, a reference
    cycle, so it and everything it closes over (a builder and its tables,
    say) outlive the call until the next garbage collection.  Recursive
    helpers are module-level functions instead, or generators that
    `circuit._run_nested` runs."""
    nested, found = 0, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested += 1
                    if any(isinstance(node, ast.Name) and node.id == inner.name
                           for node in ast.walk(inner)):
                        found.add(f"{path.name}: {inner.name} in {outer.name}")
    assert nested and sorted(found) == []
