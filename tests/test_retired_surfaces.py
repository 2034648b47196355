"""Retired simulator and shim surfaces fail loudly, never half-work.

The array-backend registry (and its ``backend=`` keywords, engine
options and environment variables), ``core/qasm.py``,
``pipeline/verification.py``, the deprecated ``optimize=`` /
``synth=`` keywords, the pass cache's constructor budgets, retry
and degradation knobs, the pipeline's ``follower_timeout=``, and the
simulator classes beside the engines (``StatevectorSimulator``,
``StabilizerSimulator``, ``NoisyBackend`` with ``repro.simulator.noise``
and the ``repro.simulator.NoiseModel`` re-export), and the flow presets
beside the targets (``repro.pipeline.flows`` with ``EQ5``/``QSHARP``/
``DEVICE`` and their builders, ``NAMED_FLOWS``, every ``flow=``
keyword and the CLI's ``--flow``) are gone.  So are the failure
policies beside ``retry=``: ``on_error=`` on ``repro.compile`` and
``Pipeline``, the per-call ``deadline=``/``retry=`` of
``Pipeline.run``/``apply``, pass fallbacks (``Pass.with_fallback``),
``RetryPolicy(classifier=)``, the per-call ``job_timeout=``/``retry=``
of the session batch calls and their ``max_in_flight=``, plus the
unused ``repro.core.dag``.  So is code only tests reached: the
linear-synthesis module ``repro.synthesis.linear``, the public helpers
nothing outside the tests called (deleted, or moved into ``tests/`` as
oracles such as ``circuits_equivalent`` and the PTM algebra), ProjectQ's
``Control`` context with the engine's control stack, the
object-per-region phase folding (``PhaseRegion``, ``PhaseTerm``,
``fold_region``; now ``tests/_tpar_reference.py``), and the session's
``executor=`` with its process pool.  So is the open backend
registry: the generic ``Registry`` class with runtime
``register``/``unregister`` (and ``overwrite=``) on ``repro.emit``
and ``repro.engines``, ``repro.compiler.register_target``, and the
``cirq``, ``qir`` and ``qasm3`` emitters — formats, engines and
targets are fixed tables of the built-ins.  So are the class members
only tests reached (``CompilerSession.compile_many`` among them:
``sweep`` is the batch call), and the spectral bent-function oracles,
now ``tests/_spectral_reference.py``, and the certificate re-runs
``cancellation_groups`` and ``block_lengths`` (a verified pass hands
over the certificate of its own run).  So are the options only tests
set: ``rptm``'s dirty-ancilla lowering (``prefer_clean=``,
``allow_extra_lines=`` and ``mcx_dirty_ancilla``), ``revsimp``'s
``max_rounds=``, routing's ``initial_layout=``, the statevector
engine's and ProjectQ ``Simulator``'s ``fusion=``, the
``seconds=`` of the ``Verdict`` constructors, ``tpar``'s
``post_cancel=`` and ``verify_routing``'s ``atol=``.  So is the
routing check's ladder beside its exact SWAP-relabelling tier (the
wire-permuting probe helpers and the measurement stripping), and a
stored ``RoutingResult.initial_layout``.  An old spelling must
end in an import, attribute, type or engine error — or, for the
environment variables, have no effect at all — rather than being
silently accepted.
"""

import asyncio
import importlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate
from repro.engines.density_matrix import DensityMatrix
from repro.simulator import kernels
from repro.simulator.statevector import Statevector


def _bell() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.qasm",
        "repro.simulator.backends",
        "repro.simulator.noise",
        "repro.pipeline.verification",
        "repro.pipeline.flows",
        "repro.algorithms.bernstein_vazirani",
        "repro.algorithms.deutsch_jozsa",
        "repro.core.dag",
        "repro.synthesis.linear",
        "repro.emit.cirq",
        "repro.emit.qir",
        "repro.emit.qasm3",
        "repro.verify.passes",
    ],
)
def test_retired_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Statevector(2, backend="numpy"),
        lambda: DensityMatrix(2, backend="numpy"),
        lambda: kernels.apply_gate(
            Statevector(2).data, Gate("h", (0,)), 2, backend="numpy"
        ),
    ],
    ids=["Statevector", "DensityMatrix", "kernels.apply_gate"],
)
def test_backend_keyword_is_gone(call):
    with pytest.raises(TypeError, match="backend"):
        call()


def test_density_matrix_engine_rejects_backend_option():
    with pytest.raises(engines.EngineError, match="unknown option"):
        engines.run("density_matrix", _bell(), backend="numpy")


def test_array_backend_env_vars_are_ignored(monkeypatch):
    baseline = engines.run("statevector", _bell(), shots=256, seed=4)
    monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numba")
    monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = engines.run("statevector", _bell(), shots=256, seed=4)
        state = Statevector(2)
        state.apply_gate(Gate("h", (0,)))
    assert result.counts == baseline.counts
    np.testing.assert_allclose(
        state.data, [2 ** -0.5, 2 ** -0.5, 0.0, 0.0], atol=1e-15
    )


def test_compiler_backend_optimize_keyword_is_gone():
    from repro.frameworks.projectq.compiler import CompilerBackend

    with pytest.raises(TypeError, match="optimize"):
        CompilerBackend(optimize=False)


@pytest.mark.parametrize(
    "call",
    [
        lambda qsharp, pi: qsharp.permutation_oracle_operation(pi, synth=None),
        lambda qsharp, pi: qsharp.hidden_shift_program(pi, 3, synth=None),
    ],
    ids=["permutation_oracle_operation", "hidden_shift_program"],
)
def test_qsharp_synth_keyword_is_gone(call, paper_pi):
    from repro.frameworks import qsharp

    with pytest.raises(TypeError, match="synth"):
        call(qsharp, paper_pi)
    assert not hasattr(qsharp, "operation_from_circuit")


@pytest.mark.parametrize(
    "keyword", ["max_entries", "max_bytes", "retry", "degrade_after"]
)
def test_pass_cache_takes_only_maxsize_and_path(keyword):
    from repro.pipeline import PassCache

    with pytest.raises(TypeError, match=keyword):
        PassCache(**{keyword: 1})
    assert not hasattr(PassCache, "counters")
    assert not hasattr(PassCache, "pin")


def test_pipeline_follower_timeout_keyword_is_gone():
    from repro.pipeline import Pipeline

    with pytest.raises(TypeError, match="follower_timeout"):
        Pipeline(cache=None, follower_timeout=1.0)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.simulator", "StatevectorSimulator"),
        ("repro.simulator", "StabilizerSimulator"),
        ("repro.simulator", "NoisyBackend"),
        ("repro.simulator", "NoiseModel"),
        ("repro.simulator.statevector", "StatevectorSimulator"),
        ("repro.simulator.stabilizer", "StabilizerSimulator"),
    ],
)
def test_simulator_classes_beside_the_engines_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.pipeline", "flows"),
        ("repro.pipeline", "Flow"),
        ("repro.pipeline", "EQ5"),
        ("repro.pipeline", "QSHARP"),
        ("repro.pipeline", "DEVICE"),
        ("repro.pipeline", "eq5"),
        ("repro.pipeline", "qsharp"),
        ("repro.pipeline", "device"),
        ("repro.compiler", "NAMED_FLOWS"),
        ("repro.compiler.session", "NAMED_FLOWS"),
    ],
)
def test_flow_presets_beside_the_targets_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "call",
    [
        lambda repro, session: repro.compile(
            {"hwb": 3}, flow="eq5", cache=None
        ),
        lambda repro, session: session.CompilerSession(flow="eq5"),
        lambda repro, session: session.CompilerSession(cache=None).compile(
            {"hwb": 3}, flow="eq5"
        ),
        lambda repro, session: session.CompilerSession(
            cache=None
        ).sweep({"hwb": [3]}, flow="eq5"),
        lambda repro, session: asyncio.run(
            session.CompilerSession(cache=None).sweep_async(
                {"hwb": [3]}, flow="eq5"
            )
        ),
    ],
    ids=["compile", "CompilerSession", "session.compile", "sweep",
         "sweep_async"],
)
def test_flow_keyword_is_gone(call):
    import repro
    from repro.compiler import session

    with pytest.raises(TypeError, match="flow"):
        call(repro, session)


@pytest.mark.parametrize(
    "argv",
    [["hwb=3", "--flow", "eq5"], ["-"]],
    ids=["--flow", "empty-seed"],
)
def test_cli_flow_option_and_empty_seed_are_gone(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "compile", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr


def test_core_dag_export_is_gone():
    with pytest.raises(ImportError):
        exec("from repro.core import CircuitDag", {})


def _session():
    from repro.compiler import CompilerSession

    return CompilerSession(target="toffoli", cache=None)


@pytest.mark.parametrize(
    "call, keyword",
    [
        (lambda repro, P: repro.compile(
            {"hwb": 3}, cache=None, on_error="retry"), "on_error"),
        (lambda repro, P: P(cache=None, on_error="retry"), "on_error"),
        (lambda repro, P: P(cache=None).run([], deadline=5), "deadline"),
        (lambda repro, P: P(cache=None).apply(
            None, None, retry=2), "retry"),
        (lambda repro, P: _session().sweep(
            {"hwb": [3]}, retry=2), "retry"),
        (lambda repro, P: _session().sweep(
            {"hwb": [3]}, job_timeout=60), "job_timeout"),
        (lambda repro, P: asyncio.run(_session().sweep_async(
            {"hwb": [3]}, max_in_flight=2)), "max_in_flight"),
    ],
    ids=["compile(on_error=)", "Pipeline(on_error=)",
         "Pipeline.run(deadline=)", "Pipeline.apply(retry=)",
         "sweep(retry=)", "sweep(job_timeout=)",
         "sweep_async(max_in_flight=)"],
)
def test_failure_policies_beside_retry_are_gone(call, keyword):
    import repro
    from repro.pipeline import Pipeline

    with pytest.raises(TypeError, match=keyword):
        call(repro, Pipeline)


def test_pass_fallbacks_are_gone():
    from repro.pipeline.passes import Pass, SynthesisPass

    with pytest.raises(AttributeError):
        SynthesisPass("tbs").with_fallback(SynthesisPass("dbs"))
    assert not hasattr(Pass, "fallback")


def test_retry_policy_classifier_is_gone():
    from repro.resilience import RetryPolicy

    with pytest.raises(TypeError, match="classifier"):
        RetryPolicy(max_attempts=2, classifier=lambda error: True)


#: Public names only tests reached, by the module that defined them.
TEST_ONLY_NAMES = {
    "repro.arith.adders": ["comparator"],
    "repro.boolean.cube": ["esop_evaluate"],
    "repro.boolean.spectral": [
        "autocorrelation", "dual_bent", "is_bent",
        "is_perfectly_nonlinear", "linear_structure", "nonlinearity",
        "walsh_spectrum",
    ],
    "repro.core.drawing": ["draw_reversible"],
    "repro.core.unitary": ["circuits_equivalent", "unitary_as_permutation"],
    "repro.engines.ptm": [
        "compose_ptms", "is_trace_preserving", "is_unital", "kraus_ptm",
        "readout_assignment", "superoperator_to_ptm", "unitary_ptm",
    ],
    "repro.frameworks.projectq.backends": ["ResourceCounterBackend"],
    "repro.frameworks.projectq.meta": ["Control"],
    "repro.mapping.barenco": ["t_count_of_mapping"],
    "repro.mapping.clifford_t": [
        "ccz_clifford_t", "cz_from_cx", "swap_from_cx",
    ],
    "repro.optimization.phase_polynomial": [
        "PhaseRegion", "PhaseTerm", "fold_region",
    ],
    "repro.optimization.templates": ["optimization_ladder"],
    "repro.optimization.tpar": ["t_count_before_after"],
    "repro.resilience.faults": ["is_injected"],
    "repro.revkit.generators": ["maiorana_mcfarland"],
    "repro.simulator.statevector": ["evolve_batch"],
    "repro.synthesis.embedding": ["verify_embedding"],
    "repro.synthesis.esop_based": ["esop_synthesis_from_cubes"],
    "repro.synthesis.exact": ["minimum_gate_count"],
    "repro.synthesis.pebbling": ["bennett_moves", "optimal_moves"],
}


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for defining, names in TEST_ONLY_NAMES.items()
        for module in (defining, defining.rsplit(".", 1)[0])
        for name in names
    ]
    + [
        ("repro.synthesis", name)
        for name in ("Gf2Matrix", "cnot_circuit_to_matrix",
                     "gaussian_synthesis", "pmh_synthesis")
    ],
)
def test_test_only_names_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


def test_projectq_control_stack_is_gone():
    from repro.frameworks.projectq.engine import MainEngine

    assert not hasattr(MainEngine, "push_controls")
    assert not hasattr(MainEngine, "pop_controls")


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_session_executor_keyword_is_gone(executor):
    from repro.compiler import CompilerSession

    with pytest.raises(TypeError, match="executor"):
        CompilerSession(executor=executor)
    session = CompilerSession(cache=None)
    assert not hasattr(session, "executor")
    assert not hasattr(session, "_cache_spec")


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.emit", "register"),
        ("repro.emit", "unregister"),
        ("repro.engines", "register"),
        ("repro.engines", "unregister"),
        ("repro.compiler", "register_target"),
        ("repro.registry", "Registry"),
    ],
)
def test_runtime_registration_is_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("fmt", ["cirq", "qir", "qasm3", "openqasm3"])
def test_retired_formats_are_gone(fmt):
    from repro import emit

    with pytest.raises(emit.EmitterError, match="unknown emission") as info:
        emit.get(fmt)
    assert info.value.args[0].endswith(
        "registered formats: qasm2 (aka qasm, openqasm2), qsharp (aka "
        "qs, q#), projectq"
    )


#: Public class members only tests reached, by their class.
TEST_ONLY_MEMBERS = {
    "repro.boolean.bdd.Bdd": [
        "top_var", "cofactors", "ite", "apply_not", "apply_and",
        "apply_or", "apply_xor", "count_nodes", "count_satisfying",
    ],
    "repro.boolean.bent.MaioranaMcFarland": ["verify_bent"],
    "repro.boolean.bent.HiddenShiftInstance": ["spectral_dual_table"],
    "repro.boolean.cube.Cube": [
        "from_literals", "tautology", "positive_vars", "negative_vars",
        "restrict",
    ],
    "repro.boolean.network.LogicNetwork": ["create_or", "fanout_counts"],
    "repro.boolean.permutation.BitPermutation": [
        "is_identity", "output_table", "to_truth_tables",
        "hamming_complexity",
    ],
    "repro.boolean.truth_table.TruthTable": ["is_constant", "is_balanced"],
    "repro.compiler.frontends.Workload": ["with_synthesis"],
    "repro.compiler.result.CompilationResult": ["to_qsharp"],
    "repro.compiler.session.CompilerSession": [
        "compile_many", "compile_many_async",
    ],
    "repro.verify.checker.EquivalenceChecker": ["signature", "no_check"],
    "repro.core.circuit.QuantumCircuit": ["is_clifford", "to_matrix"],
    "repro.engines.density_matrix.DensityMatrix": [
        "from_statevector", "apply_unitary", "purity",
    ],
    "repro.revkit.shell.RevKitShell": ["write_qasm"],
    "repro.simulator.stabilizer.StabilizerState": [
        "expectation_z", "stabilizer_strings",
    ],
    "repro.simulator.statevector.Statevector": [
        "from_label", "norm", "equiv", "sample_counts",
    ],
    "repro.synthesis.reversible.MctGate": ["fires"],
    "repro.synthesis.reversible.ReversibleCircuit": [
        "control_histogram", "t_count_estimate",
    ],
}


@pytest.mark.parametrize(
    "owner, member",
    [
        (owner, member)
        for owner, members in TEST_ONLY_MEMBERS.items()
        for member in members
    ],
)
def test_test_only_members_are_gone(owner, member):
    module, _, name = owner.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    with pytest.raises(AttributeError):
        getattr(cls, member)


def test_rptm_record_no_longer_rescans_its_output():
    import repro
    from repro.pipeline.passes import MapToCliffordTPass, Pass

    assert MapToCliffordTPass.statistics is Pass.statistics
    result = repro.compile({"hwb": 3}, target="clifford_t", cache=None)
    assert "clifford_t" not in result.record("rptm").details


def test_verify_pass_is_gone():
    import repro.verify

    with pytest.raises(ImportError):
        exec("from repro.verify import VerifyPass", {})
    assert not hasattr(repro.verify, "VerifyPass")


@pytest.mark.parametrize(
    "keyword", ["probes", "max_probe_qubits", "max_table_lines", "seed"]
)
def test_checker_probe_and_table_knobs_are_gone(keyword):
    from repro.verify import EquivalenceChecker

    with pytest.raises(TypeError, match=keyword):
        EquivalenceChecker(**{keyword: 3})


@pytest.mark.parametrize("keyword", ["in_map", "out_map"])
def test_mapped_check_layout_maps_are_gone(keyword):
    from repro.synthesis.reversible import ReversibleCircuit
    from repro.verify import EquivalenceChecker

    with pytest.raises(TypeError, match=keyword):
        EquivalenceChecker().check_mapped_circuit(
            QuantumCircuit(2), ReversibleCircuit(2), **{keyword: (1, 0)}
        )


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.optimization.simplify", "cancellation_groups"),
        ("repro.mapping.barenco", "block_lengths"),
    ],
)
def test_certificate_re_runs_are_gone(module, name):
    # the certificates come from the run that made the output
    # (cancel_with_groups, map_with_block_lengths)
    assert not hasattr(importlib.import_module(module), name)



def _name(module, name):
    return getattr(importlib.import_module(module), name)


def _hwb3_cascade():
    from repro.revkit import generators
    from repro.synthesis.transformation import transformation_based_synthesis

    return transformation_based_synthesis(generators.hwb(3))


def _line(n):
    from repro.mapping import CouplingMap

    return CouplingMap.line(n)


def _routed_cx():
    from repro.mapping import route_circuit

    return route_circuit(QuantumCircuit(2).cx(0, 1), _line(3))


@pytest.mark.parametrize(
    "module, name, args, keyword",
    [
        ("repro.pipeline", "MapToCliffordTPass", (), "prefer_clean"),
        ("repro.mapping.barenco", "map_to_clifford_t", (_hwb3_cascade,),
         "prefer_clean"),
        ("repro.mapping.barenco", "map_to_clifford_t", (_hwb3_cascade,),
         "allow_extra_lines"),
        ("repro.mapping.barenco", "map_with_block_lengths",
         (_hwb3_cascade,), "prefer_clean"),
        ("repro.pipeline", "SimplifyPass", (), "max_rounds"),
        ("repro.optimization.simplify", "simplify_reversible",
         (_hwb3_cascade,), "max_rounds"),
        ("repro.pipeline", "RoutePass", (lambda: _line(3),),
         "initial_layout"),
        ("repro.mapping.routing", "route_circuit",
         (lambda: QuantumCircuit(2).cx(0, 1), lambda: _line(3)),
         "initial_layout"),
        ("repro.frameworks.projectq.backends", "Simulator", (), "fusion"),
        ("repro.pipeline", "TparPass", (), "post_cancel"),
        ("repro.mapping.routing", "verify_routing",
         (lambda: QuantumCircuit(2).cx(0, 1), _routed_cx), "atol"),
        ("repro.mapping.routing", "RoutingResult",
         (lambda: QuantumCircuit(2), lambda: (0, 1), lambda: 0),
         "initial_layout"),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_test_only_options_are_gone(module, name, args, keyword):
    # every caller outside the tests passed one value; it is a constant now
    with pytest.raises(TypeError, match=f"{keyword}|takes no arguments"):
        _name(module, name)(*(make() for make in args), **{keyword: 0})


@pytest.mark.parametrize(
    "build, args",
    [("accept", ("dense",)), ("reject", ("dense", "why")),
     ("skip", ("none", "why"))],
)
def test_verdict_constructors_take_no_seconds(build, args):
    # the timed decorator stamps the field
    from repro.verify import Verdict

    with pytest.raises(TypeError, match="seconds"):
        getattr(Verdict, build)(*args, seconds=1.0)


def test_statevector_engine_fusion_option_is_gone():
    with pytest.raises(engines.EngineError, match="unknown option 'fusion'"):
        engines.run("statevector", _bell(), shots=8, seed=1, fusion=False)


def test_routing_check_ladder_is_gone():
    # the routing check is one exact SWAP-relabelling walk
    from repro.verify import checker, tiers

    for module, name in (
        (tiers, "permute_wires"),
        (tiers, "wire_permutation"),
        (checker, "_strip_measurements"),
    ):
        assert not hasattr(module, name), name


def test_dirty_v_chain_is_gone():
    import repro.mapping
    from repro.mapping import barenco

    with pytest.raises(ImportError):
        exec("from repro.mapping import mcx_dirty_ancilla", {})
    assert not hasattr(repro.mapping, "mcx_dirty_ancilla")
    assert not hasattr(barenco, "mcx_dirty_ancilla")
