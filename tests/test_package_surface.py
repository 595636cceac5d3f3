"""The package is the program: every module-level function and class in
``src/wenzl`` is reached by name from ``cli.main``, and every method or
property of a class there is used by name as an attribute somewhere in
``src/wenzl``, or is listed in ``KEPT`` with the reason it stays.  Test-only
code lives in tests/support.py, and the Brauer diagrams and the
regular-monomial census in tests/brauer.py.  The table a parameter set
holds per shape, its steps, is written by ``params`` alone (and so would be
one of W, which no parameter set holds any more), and the
nodes of a shape are read by ``combinat.steps_from`` and ``t_lambda``
alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wenzl"

# (module, name): why it stays with no caller from the CLI; what it reaches stays too
KEPT = {
    # methods and properties, as (module, "Class.name")
    ("params", "ParamSet.default"): "the README's entry point: the parameter set at the CLI's default roots",
}


def _reach(roots):
    """{(module, name): node} of the module-level functions, classes and
    assigned names, and the keys that ``roots`` refer to, transitively: by a
    bare name, a name imported from a module, or a module attribute."""
    defs, imports = {}, {}
    for path in SRC.glob("*.py"):
        mod, imports[path.stem] = path.stem, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:  # a whole module has the name None
                    imports[mod][alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None else (node.module, alias.name))

    def resolve(mod, name):
        while (mod, name) not in defs and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        return (mod, name) if (mod, name) in defs else None

    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append(resolve(key[0], node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, name = imports[key[0]].get(node.value.id, (None, ""))
                todo.append(resolve(module, node.attr) if name is None else None)
    return defs, seen


def _methods():
    """{(module, "Class.name"): node} of the methods and properties of the
    classes in ``src/wenzl``, dunders left out, and every name used as an
    attribute there."""
    methods, used = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods.update(((path.stem, f"{node.name}.{item.name}"), item)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and not (item.name.startswith("__") and item.name.endswith("__")))
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return methods, used


def test_every_function_and_class_is_reached_from_the_cli():
    defs, from_cli = _reach([("cli", "main")])
    kept = [key for key in KEPT if "." not in key[1]]  # functions and classes
    _, reached = _reach([("cli", "main"), *kept])
    dead = sorted(key for key, node in defs.items() if key not in reached
                  and isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    assert dead == [], f"not reached from cli.main and not in KEPT: {dead}"
    for key in kept:
        # a kept name exists, and needs no entry once the CLI calls it
        assert key in defs and key not in from_cli, key


def test_every_method_is_used_in_the_package():
    methods, used = _methods()
    unused = sorted(key for key in methods if key[1].split(".")[1] not in used)
    dead = [key for key in unused if key not in KEPT]
    assert dead == [], f"methods that no code in src/wenzl uses, not in KEPT: {dead}"
    for key in KEPT:
        # a kept method exists, and needs no entry once src/wenzl uses it
        if "." in key[1]:
            assert key in unused, key


def test_only_params_writes_the_step_and_w_tables():
    # an item stored into (or deleted from) <ps>.steps[...] or <ps>.w_at[...]
    writers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in ("steps", "w_at")):
                writers.add(path.stem)
    assert writers == {"params"}, writers


def test_only_steps_from_and_t_lambda_read_the_nodes_of_a_shape():
    # a call of add_box, remove_box, addable_nodes or removable_nodes, by the
    # module-level function or class that makes it
    node_readers = {"add_box", "remove_box", "addable_nodes", "removable_nodes"}
    callers = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in node_readers:
                        callers.add((path.stem, getattr(top, "name", None)))
    assert callers <= {("combinat", "steps_from"), ("combinat", "t_lambda")}, callers
