"""Every function and method under src/hdt has a caller in the program or
the benchmark, so no library surface lives on for tests alone."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Called only from tests, and kept on purpose.
EXEMPT = {
    "fundamental_weight": "the only caller in src of exact.solve_linear, which the "
                          "benchmark times as a layer of its own",
}


def _definitions(tree: ast.Module):
    """Module-level functions and the non-dunder methods of module-level classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _read_names(tree: ast.Module, defs: set[int], refs: dict[str, set]) -> None:
    """Add to refs[name] the id of the enclosing definition (None outside
    every one) of each name read in tree: variables, attributes and string
    constants, since the benchmark names the functions it wraps by string."""

    def visit(node, owner):
        if id(node) in defs:
            owner = id(node)
        if isinstance(node, ast.Name):
            refs[node.id].add(owner)
        elif isinstance(node, ast.Attribute):
            refs[node.attr].add(owner)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value].add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)


def unreferenced_definitions() -> set[str]:
    """Definitions in src/hdt read nowhere outside their own body, in src/hdt
    (without __init__.py) or in bench/*.py."""
    src = [p for p in sorted((ROOT / "src" / "hdt").glob("*.py")) if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text(), str(p)) for p in src + sorted((ROOT / "bench").glob("*.py"))]
    defs = [d for t in trees[: len(src)] for d in _definitions(t)]
    def_ids = {id(d) for d in defs}
    refs: dict[str, set] = defaultdict(set)
    for t in trees:
        _read_names(t, def_ids, refs)
    return {d.name for d in defs if not refs[d.name] - {id(d)}}


def test_every_function_has_a_caller_outside_the_tests():
    assert sorted(unreferenced_definitions()) == sorted(EXEMPT), (
        "called only by tests (delete it, or move it into its test as an oracle); "
        "or an exemption that a caller has made stale"
    )
