"""Static checks on the package source."""

import ast
from pathlib import Path

import wheelembed
from wheelembed.bounds import GUEST_KINDS, THEOREM_IDS

PACKAGE = Path(wheelembed.__file__).resolve().parent


def _string_constants(node: ast.AST) -> list[str]:
    return [leaf.value for leaf in ast.walk(node)
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)]


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so runtime checks must raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"


def test_no_function_calls_itself():
    # every search keeps an explicit stack, so no input is cut off by the
    # interpreter's recursion limit; nested closures count as functions too
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = node.func if isinstance(node, ast.Call) else None
                if (isinstance(callee, ast.Name) and callee.id == func.name
                        or isinstance(callee, ast.Attribute) and callee.attr == func.name
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id in ("self", "cls")):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {func.name}")
    assert not found, f"recursive calls: {', '.join(found)}"


def test_embedding_maps_are_built_only_by_build_embedding():
    # every construction then runs inside the one public validation entry
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "build_embedding"
                  for node in ast.walk(func)}
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "EmbeddingMap"]
    assert not found, f"EmbeddingMap built outside build_embedding: {', '.join(found)}"


def test_the_cli_leaves_each_theorem_to_the_bounds_table():
    # `bounds.THEOREMS` names each theorem's instance parameter and the host a
    # swept value builds, so the CLI names no theorem and builds no host itself
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not names & {"tree_host", "circulant", "DIL_HOST_KINDS"}
    assert not [s for s in _string_constants(tree)
                if any(theorem in s for theorem in THEOREM_IDS)]


def test_the_constructions_build_no_graph():
    # each construction places the guest and host it is given; `bounds`
    # builds every theorem instance
    tree = ast.parse((PACKAGE / "embedding.py").read_text(encoding="utf-8"))
    imported = {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for name in [node.module, *(alias.name for alias in node.names)]}
    assert not imported & {"families", "build_graph"}


def test_one_function_raises_the_equal_orders_error():
    # `graphs.require_equal_orders` is the one check every embedding, bound
    # and oracle calls
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{func.name}" for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  for node in ast.walk(func) if isinstance(node, ast.Raise)
                  and any("orders" in s for s in _string_constants(node))]
    assert found == ["graphs.py:require_equal_orders"]


def test_the_cli_leaves_each_guest_kind_to_the_bounds_table():
    # `bounds.HUB_GUESTS` names the guest kinds and the kinds with a
    # wirelength construction
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert not set(_string_constants(tree)) & set(GUEST_KINDS)


def test_the_families_leave_edge_form_to_build_graph():
    # each builder emits every edge once as a raw pair; `build_graph` alone
    # canonicalises edges and rejects a repeat
    tree = ast.parse((PACKAGE / "families.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "build_graph" in imported
    assert "edge_key" not in imported


def test_only_main_writes_a_commands_output():
    # each `_cmd_*` handler returns its text, and `main` writes it to stdout
    # or --out: no other function of cli.py prints, writes or opens a file
    # for writing, nor names sys.stdout
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            callee = node.func if isinstance(node, ast.Call) else None
            name = getattr(callee, "id", getattr(callee, "attr", None))
            # a mode that is not a literal counts as a write
            modes = [arg.value if isinstance(arg, ast.Constant) else "w"
                     for arg in node.args[1:2] + [k.value for k in node.keywords
                                                  if k.arg == "mode"]] if name == "open" else []
            if (name in ("print", "write", "writelines")
                    or any(set(str(mode)) & set("wax+") for mode in modes)
                    or isinstance(node, ast.Attribute) and node.attr == "stdout"):
                found.append(f"cli.py:{node.lineno} {func.name}")
    assert not found, f"output written outside main: {', '.join(found)}"
