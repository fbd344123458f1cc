"""Package layering: every module imports its package siblings at module
level, and the sibling imports form no cycle."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rpn2"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _sibling_imports(tree, modules):
    """Sibling modules named by the relative imports anywhere in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                out.update(alias.name for alias in node.names if alias.name in modules)
            elif node.module.split(".")[0] in modules:
                out.add(node.module.split(".")[0])
    return out


def test_no_function_imports_a_sibling():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found.append("%s.%s line %d" % (name, fn.name, node.lineno))
    assert not found, "function-level relative imports: %s" % ", ".join(found)


def test_sibling_import_graph_has_no_cycle():
    trees = _trees()
    modules = set(trees) - {"__init__"}
    graph = {name: _sibling_imports(trees[name], modules) for name in modules}
    assert graph["model"] >= {"interdependence", "reconciliation", "transformation"}
    state = {}  # name -> "open" while on the DFS stack, "done" after

    def visit(name, stack):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                cycle = stack[stack.index(dep):] + [dep]
                raise AssertionError("import cycle: %s" % " -> ".join(cycle))
            if dep not in state:
                visit(dep, stack + [dep])
        state[name] = "done"

    for name in sorted(modules):
        if name not in state:
            visit(name, [name])
