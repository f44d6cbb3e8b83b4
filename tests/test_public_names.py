import ast
import inspect
from pathlib import Path

import pytest

from globalattn.attention import AttentionModel
from globalattn.classifier import ClassifierModel
from globalattn.config import load_kv_file
from globalattn.gradcheck import finite_diff_grad, grad_discrepancy
from globalattn.pipelinecheck import full_pipeline_gradcheck
from globalattn.training import TrainReport

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "globalattn"
PROGRAMS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")

# public names that no program uses, each kept for a reason of its own
KEPT = {
    "load_model_checkpoint": "the only reader of the .ckpt files that "
                             "train writes",
    "checksum_file": "perfbench/tracing.py patches manifest.checksum_file "
                     "by its name as a string",
    "mul": "the tests' product of two tensors; removing it would only move "
           "its backward rule into the tests",
}


def _references(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name a node mentions; strings,
    ``__all__`` lists among them, are not references."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return found


def _program_names() -> tuple[set[str], set[str], set[str]]:
    """The package's public top-level functions and classes, its private
    functions, classes and methods at any depth, and every name that a
    program in src/, demos/ or perfbench/ references."""
    public, private, used = set(), set(), set()
    for path in (p for top in PROGRAMS for p in top.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)  # a self-reference is no use
                if path.parent == PACKAGE and not stmt.name.startswith("_"):
                    public.add(stmt.name)
            if path.parent == PACKAGE:
                private.update(
                    node.name for node in ast.walk(stmt)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__"))
            # a re-export in __init__.py names the API; it does not use it
            if path.name != "__init__.py":
                used |= refs
    return public, private, used


def test_every_public_name_is_used_by_a_program():
    # no public function or class that only tests call: a name with no
    # reference in src/, demos/ or perfbench/ beyond its own definition is
    # either removed or kept in KEPT with its reason
    public, _, used = _program_names()
    assert public - used == set(KEPT)


def test_every_private_name_is_used_by_a_program():
    # a private function, class or method that only tests reach is dead
    # code, such as a helper that a rewrite left behind
    _, private, used = _program_names()
    assert private - used == set()


def test_defaults_have_one_home():
    # each default lives where users set it: the architecture in
    # TrainConfig, the gradient check's instance in the CLI, its step and
    # tolerance in pipelinecheck; these take every value from their callers
    for taker in (AttentionModel, ClassifierModel, full_pipeline_gradcheck,
                  finite_diff_grad, grad_discrepancy, load_kv_file,
                  TrainReport):
        defaulted = [p.name
                     for p in inspect.signature(taker).parameters.values()
                     if p.default is not p.empty]
        assert defaulted == [], taker.__name__
    # the architecture keywords go to TrainConfig, which knows no other
    with pytest.raises(TypeError, match="hidden_kernels"):
        full_pipeline_gradcheck(8, 8, 2, 0, 4, hidden_kernels=5)
