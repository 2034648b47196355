"""Docstring audit guard: every re-exported public symbol is documented.

PR 2's docstring audit established that every ``__all__`` symbol of
the ``repro.*`` subpackages carries at least a one-line summary.  This
test keeps that invariant from rotting as the API grows.
"""

import importlib
import inspect

import pytest

SUBPACKAGES = (
    "algorithms",
    "arith",
    "boolean",
    "compiler",
    "core",
    "emit",
    "engines",
    "mapping",
    "optimization",
    "pipeline",
    "revkit",
    "simulator",
    "synthesis",
    "verify",
    "frameworks.projectq",
)

#: entry points whose docstrings must document arguments and returns.
ENTRY_POINTS = (
    "repro.compile",
    "repro.compiler.detect_workload",
    "repro.compiler.as_truth_table",
    "repro.compiler.Target.flow",
    "repro.compiler.CompilerSession.sweep",
    "repro.emit.get",
    "repro.emit.emit",
    "repro.emit.parse",
    "repro.emit.emitter_for_path",
    "repro.compiler.CompilationResult.emit",
    "repro.compiler.CompilationResult.simulate",
    "repro.engines.get",
    "repro.engines.run",
    "repro.engines.as_noise_model",
    "repro.engines.NoiseModel.gate_error",
    "repro.pipeline.Pipeline.apply",
    "repro.pipeline.Pipeline.run",
    "repro.pipeline.PassCache.gc",
    "repro.pipeline.Deadline.after",
    "repro.mapping.map_to_clifford_t",
    "repro.mapping.route_circuit",
    "repro.optimization.simplify_reversible",
    "repro.optimization.cancel_adjacent_gates",
    "repro.optimization.tpar_optimize",
    "repro.optimization.template_optimize",
    "repro.verify.EquivalenceChecker.check_same_unitary",
    "repro.verify.EquivalenceChecker.check_same_permutation",
    "repro.verify.EquivalenceChecker.check_specification",
    "repro.verify.EquivalenceChecker.check_mapped_circuit",
    "repro.verify.EquivalenceChecker.check_routing",
    "repro.verify.as_checker",
    "repro.pipeline.Pass.check",
)


@pytest.mark.parametrize("subpackage", SUBPACKAGES)
def test_all_exports_have_docstrings(subpackage):
    module = importlib.import_module(f"repro.{subpackage}")
    exported = getattr(module, "__all__", ())
    assert exported, f"repro.{subpackage} should declare __all__"
    missing = []
    for name in exported:
        obj = getattr(module, name, None)
        assert obj is not None, f"repro.{subpackage}.{name} is not importable"
        if inspect.ismodule(obj) or not callable(obj):
            continue
        if not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, (
        f"repro.{subpackage} exports without docstrings: {missing}"
    )


@pytest.mark.parametrize("path", ENTRY_POINTS)
def test_entry_points_document_args_and_returns(path):
    module_name, _, rest = path.partition(".")
    obj = importlib.import_module(module_name)
    for part in rest.split("."):
        obj = getattr(obj, part)
    doc = inspect.getdoc(obj)
    assert doc, f"{path} has no docstring"
    assert "Args:" in doc, f"{path} docstring lacks an Args section"
    assert "Returns:" in doc, f"{path} docstring lacks a Returns section"
