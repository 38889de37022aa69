import ast
import sys
from pathlib import Path

import pytest

import tpack
from tpack import check, harness, solver, structure
from tpack.core import DomainError, Embedding, Tournament

# the core names the checks may use; a new one is named here on purpose
_CORE_NAMES = {"Digraph", "DomainError", "Embedding", "bits"}


def test_check_imports_only_core_basics_and_the_standard_library():
    tree = ast.parse(Path(check.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "tpack":
                assert node.module in ("core", "tpack.core") and node.level in (0, 1), \
                    ast.unparse(node)
                assert {alias.name for alias in node.names} <= _CORE_NAMES, ast.unparse(node)
                continue
            modules = [node.module]
        else:
            continue
        for name in modules:
            assert name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)


def test_solver_and_its_callers_hold_the_checks_themselves():
    # no wrapper and no second copy: every namespace holds check's objects
    for name in ("Packing", "Obstruction", "normalize_patterns", "verify_packing",
                 "validate_obstruction"):
        assert getattr(solver, name) is getattr(check, name) is getattr(tpack, name), name
    assert harness.verify_packing is structure.verify_packing is check.verify_packing
    assert (harness._fits, harness._packing_rows) == (check._fits, check._packing_rows)


def test_packing_refuses_vertices_outside_the_host():
    t3 = Tournament.transitive(3)
    check.Packing(4, (Embedding(t3, (1, 2, 3)),))
    for n, image in ((3, (1, 2, 3)), (0, (0, 1, 2)), (5, (0, 7, 1))):
        with pytest.raises(DomainError, match="packing uses vertices outside the host"):
            check.Packing(n, (Embedding(t3, image),))
