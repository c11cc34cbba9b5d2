"""Every function and method under src/hdt has a caller in the program or
the benchmark, so no library surface lives on for tests alone; and every
record the library returns is immutable."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

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


def _records():
    """One of each record the library returns, built as the program builds it."""
    import numpy as np

    from hdt import matrixmodel
    from hdt.cascade import restricted_root_data, strongly_orthogonal_cascade, verify_rho_identities
    from hdt.criterion import (HighestWeightInput, hc_condition, hc_condition_original,
                               reduction_trace)
    from hdt.hermitian import pair_by_label, partition_roots
    from hdt.integral import build_integrand, classify_convergence
    from hdt.suite import CheckResult
    from hdt.weights import extend_compact_coords, verify_weight_bound, weight_system

    pr = pair_by_label("su22")
    inp = HighestWeightInput(pr, extend_compact_coords(pr, (1, 0)), -9)
    ws = weight_system(pr, inp.lambda0)
    spec = build_integrand(pr, inp.lambda0, inp.lam)
    g = matrixmodel.identity_element(2, 2)
    return [pr.cartan_type, pr, partition_roots(pr), strongly_orthogonal_cascade(pr),
            restricted_root_data(pr), verify_rho_identities(pr), inp, hc_condition(inp),
            hc_condition_original(inp), reduction_trace(inp)[0], ws,
            verify_weight_bound(pr, ws), spec, classify_convergence(spec),
            CheckResult("check", True, 0.0, 0.0),
            matrixmodel.hc_factorize(g, np.zeros((2, 2), dtype=complex))]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_reject_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # a subclass without __slots__ would take this
