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
unused ``repro.core.dag``.  Then ``retry=`` itself went: on
``Pipeline``, ``repro.compile`` and ``CompilerSession``, the CLI's
``--retry``, ``RetryPolicy`` with ``as_retry`` and
``RetriesExhausted``, ``PassCache.probe`` with ``DegradedCache``, and
the ``cache.store`` fault site (disk I/O is the only work retried).  So is code only tests reached: the
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
stored ``RoutingResult.initial_layout``.  So is the batch executor:
``sweep`` is a plain loop in the calling thread, so
``CompilerSession.sweep_async`` with its asyncio core and thread pool,
the session's ``max_workers=`` and ``job_timeout=``, the
``session.dispatch`` fault site and single-flight deduplication
(``PassCache.begin_compute``/``end_compute``/``count_miss``,
``get(count_miss=)``, ``SINGLE_FLIGHT_TIMEOUT``, the
``pipeline.apply.claim``/``pipeline.apply.wait`` sites,
``Deadline.bound`` and the ``hang`` fault action) are gone.  So is
the fault-injection harness and the ``repro.resilience`` package that
held it (``fault_point``, ``FaultPlan``, ``KNOWN_SITES``, the
injected error types and the ``REPRO_FAULTS`` variable; tests make
the OS calls fail instead), with ``ResilienceError``; ``Deadline``
and ``DeadlineExceeded`` live in ``repro.pipeline``.  So is every
defaulted parameter no caller outside the tests set (the parameter
sweep of ``tests/test_src_names_have_callers.py`` listed them), from
``PassCache``'s ``maxsize=`` to ``compile_circuit``'s ``block_size=``.
So are the second implementations of each output job: the resource
counter (``ResourceCounter``/``ResourceEstimate`` beside
``circuit_statistics``) with ``QuantumCircuit.t_depth``, the emission
twins of ``repro.emit.emit`` and ``CompilationResult.emit``
(``QuantumCircuit.to_qasm``/``emit``, ``CompilationResult.to_qasm``/
``to_projectq`` and ``repro.core``'s ``QasmError``/``from_qasm``/
``to_qasm``), the unused ``inverse`` aliases and
``ReversibleCircuit.gate_count``, and the Q# dialect's copy in
``repro.frameworks.qsharp`` (it lives in ``repro.emit.qsharp``).  So
are the checker's ``max_dense_qubits=``/``atol=`` (module constants
now) and ``grover_circuit``'s default iteration count.  So is what
only look-alike names kept alive: members such as
``QuantumCircuit.controlled``/``power``/``i``, ``NoiseModel.scaled``,
``Statevector.amplitude``/``fidelity`` and ``RevKitShell.sim``,
``Statevector.evolve``'s and ``compile_circuit``'s ``fuse=``, and the
engines' ``**opts`` with ``reject_opts`` (an unknown engine option is
Python's ``TypeError``), plus the checker's ``_dense_failure``; so
are the ``qasm2`` and ``projectq`` emitters' ``**opts``, which took
options only to refuse them (an unknown option is a ``TypeError``).
An old spelling must
end in an import, attribute, type or engine error — or, for the
environment variables, have no effect at all — rather than being
silently accepted.
"""

import importlib
import os
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
        "repro.resilience",
        "repro.resilience.faults",
        "repro.resilience.policies",
        "repro.resilience.errors",
        "repro.simulator.resources",
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
    with pytest.raises(TypeError, match="backend"):
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


@pytest.mark.parametrize(
    "argv",
    [["compile", "hwb=3"], ["cache", "stats", "--cache-dir", "{dir}"]],
    ids=["compile", "cache-stats"],
)
def test_repro_faults_env_var_is_ignored(argv, tmp_path):
    # a fresh process: nothing can have read the variable before
    env = {**os.environ, "REPRO_FAULTS": "session.dispatch:raise:1"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro",
         *(arg.format(dir=tmp_path) for arg in argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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
    "keyword", ["maxsize", "max_entries", "max_bytes", "retry", "degrade_after"]
)
def test_pass_cache_takes_only_path(keyword):
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
    ],
    ids=["compile", "CompilerSession", "session.compile", "sweep"],
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

    return CompilerSession(cache=None)


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
    ],
    ids=["compile(on_error=)", "Pipeline(on_error=)",
         "Pipeline.run(deadline=)", "Pipeline.apply(retry=)",
         "sweep(retry=)", "sweep(job_timeout=)"],
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


@pytest.mark.parametrize(
    "call",
    [
        lambda repro, P, S: P(cache=None, retry=1),
        lambda repro, P, S: repro.compile({"hwb": 3}, cache=None, retry=1),
        lambda repro, P, S: S(cache=None, retry=1),
    ],
    ids=["Pipeline(retry=)", "compile(retry=)", "CompilerSession(retry=)"],
)
def test_pass_and_job_retries_are_gone(call):
    import repro
    from repro.compiler import CompilerSession
    from repro.pipeline import Pipeline

    with pytest.raises(TypeError, match="retry"):
        call(repro, Pipeline, CompilerSession)


def test_cli_retry_option_is_gone():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "compile", "hwb=3", "--retry", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments: --retry 3" in proc.stderr


@pytest.mark.parametrize(
    "name", ["RetryPolicy", "RetriesExhausted", "DegradedCache", "as_retry"]
)
def test_retry_vocabulary_is_gone(name):
    # the retry vocabulary left with the per-pass and per-job retries:
    # the disk tier's own loop is the only retry left
    from repro import pipeline
    from repro.pipeline import cache, runner

    for module in (pipeline, cache, runner):
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("keyword", ["max_workers", "job_timeout"])
def test_session_pool_options_are_gone(keyword):
    from repro.compiler import CompilerSession

    with pytest.raises(TypeError, match=keyword):
        CompilerSession(cache=None, **{keyword: 1})
    session = CompilerSession(cache=None)
    assert not hasattr(session, keyword)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.compiler.session.CompilerSession", "sweep_async"),
        ("repro.compiler.session.CompilerSession", "_run_batch_async"),
        ("repro.compiler.session.CompilerSession", "_compile_task"),
        ("repro.compiler.session", "_run_sync"),
        ("repro.compiler.session", "_run_private"),
        ("repro.compiler.session", "_JOB_TIMEOUT_GRACE"),
        ("repro.compiler.session", "asyncio"),
        ("repro.compiler.session", "ThreadPoolExecutor"),
        ("repro.pipeline.runner", "SINGLE_FLIGHT_TIMEOUT"),
        ("repro.pipeline.cache.PassCache", "begin_compute"),
        ("repro.pipeline.cache.PassCache", "end_compute"),
        ("repro.pipeline.cache.PassCache", "count_miss"),
        ("repro.pipeline.Deadline", "bound"),
    ],
)
def test_batch_executor_and_single_flight_are_gone(module, name):
    path, _, attribute = module.rpartition(".")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        owner = getattr(importlib.import_module(path), attribute)
    assert not hasattr(owner, name), (module, name)


def _assert_fault_harness_is_gone():
    import repro

    assert not hasattr(repro, "resilience")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.resilience.faults")


def test_single_flight_remnants_fail():
    from repro.pipeline import PassCache

    with pytest.raises(TypeError, match="count_miss"):
        PassCache().get("key", count_miss=False)
    assert not hasattr(PassCache(), "_inflight")
    # the hang action and the dispatch/claim/wait sites went with the
    # whole harness
    _assert_fault_harness_is_gone()


def test_cache_probe_and_store_fault_site_are_gone():
    from repro.pipeline import PassCache
    from repro.pipeline import cache as cache_module

    assert not hasattr(PassCache, "probe")
    assert not hasattr(cache_module, "DISK_RETRY")
    _assert_fault_harness_is_gone()


@pytest.mark.parametrize(
    "name",
    [
        "fault_point", "mutate_payload", "FaultSpec", "FaultPlan",
        "KNOWN_SITES", "ACTIONS", "InjectedFault", "InjectedOSError",
        "InjectedTimeout", "install", "active_plan", "plan_from_env",
        "ResilienceError",
    ],
)
def test_fault_harness_names_are_gone(name):
    import repro
    from repro import pipeline
    from repro.pipeline import cache, runner

    for module in (repro, pipeline, cache, runner):
        assert not hasattr(module, name), (module.__name__, name)


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
    "repro.engines.base": ["reject_opts"],
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
        "variable",
    ],
    "repro.boolean.bent.MaioranaMcFarland": ["verify_bent"],
    "repro.boolean.bent.HiddenShiftInstance": ["spectral_dual_table"],
    "repro.boolean.cube.Cube": [
        "from_literals", "tautology", "positive_vars", "negative_vars",
        "restrict",
    ],
    "repro.boolean.network.LogicNetwork": ["create_or", "fanout_counts"],
    "repro.boolean.network.LutNetwork": ["num_luts"],
    "repro.boolean.permutation.BitPermutation": [
        "is_identity", "output_table", "to_truth_tables",
        "hamming_complexity", "parity",
    ],
    "repro.boolean.truth_table.TruthTable": [
        "is_constant", "is_balanced", "support", "cofactor",
    ],
    "repro.compiler.frontends.Workload": ["with_synthesis"],
    "repro.compiler.result.CompilationResult": ["to_qsharp"],
    "repro.compiler.session.CompilerSession": [
        "compile_many", "compile_many_async",
    ],
    "repro.verify.checker.EquivalenceChecker": ["signature", "no_check"],
    "repro.core.circuit.QuantumCircuit": [
        "is_clifford", "to_matrix", "controlled", "power", "i",
    ],
    "repro.engines.density_matrix.DensityMatrix": [
        "from_statevector", "apply_unitary", "purity",
    ],
    "repro.engines.noise.NoiseModel": ["scaled"],
    "repro.pipeline.runner.PassRecord": ["delta"],
    "repro.revkit.shell.RevKitShell": ["write_qasm", "sim"],
    "repro.simulator.stabilizer.StabilizerState": [
        "expectation_z", "stabilizer_strings",
    ],
    "repro.simulator.statevector.Statevector": [
        "from_label", "norm", "equiv", "sample_counts", "amplitude",
        "fidelity",
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


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.verify.tiers", "apply_classical_gates"),
        ("repro.verify.tiers", "is_classical"),
        ("repro.verify.tiers", "_bits_set"),
        ("repro.synthesis.esop_based", "verify_esop_circuit"),
        ("repro.synthesis.bdd_based", "verify_bdd_synthesis"),
        ("repro.synthesis.lut_based", "verify_lut_synthesis"),
        ("repro.synthesis", "verify_esop_circuit"),
        ("repro.synthesis", "verify_bdd_synthesis"),
        ("repro.synthesis", "verify_lut_synthesis"),
        ("repro.synthesis.esop_based", "_as_tables"),
        ("repro.synthesis.bdd_based", "_as_tables"),
        ("repro.synthesis.lut_based", "_as_tables"),
    ],
)
def test_per_input_classical_checks_are_gone(module, name):
    # one column evaluator (ReversibleCircuit.columns) and one embedding
    # check (synthesis.embedding.verify_bennett_circuit) replaced them
    assert not hasattr(importlib.import_module(module), name)


def test_compiler_backend_optimize_attribute_is_gone():
    from repro.frameworks.projectq.compiler import CompilerBackend

    assert not hasattr(CompilerBackend(), "optimize")



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
    with pytest.raises(TypeError, match="fusion"):
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


@pytest.mark.parametrize(
    "path, parameter",
    [
        ("repro.algorithms.grover:solve_grover", "num_vars"),
        ("repro.algorithms.grover:solve_grover", "iterations"),
        ("repro.compiler.frontends:as_truth_table", "num_vars"),
        ("repro.algorithms.hidden_shift:phase_oracle_circuit", "effort"),
        ("repro.algorithms.hidden_shift:hidden_shift_circuit", "synth"),
        ("repro.algorithms.hidden_shift:hidden_shift_circuit",
         "inverse_synth"),
        ("repro.algorithms.hidden_shift:solve_hidden_shift", "seed"),
        ("repro.algorithms.hidden_shift:solve_hidden_shift", "synth"),
        ("repro.algorithms.hidden_shift:solve_hidden_shift",
         "inverse_synth"),
        ("repro.algorithms.simon:solve_simon", "max_rounds"),
        ("repro.arith.adders:constant_adder", "target"),
        ("repro.boolean.esop:best_fprm", "max_exhaustive_vars"),
        ("repro.compiler.session:CompilerSession", "target"),
        ("repro.core.circuit:QuantumCircuit.compose", "qubits"),
        ("repro.core.circuit:QuantumCircuit.remap", "num_qubits"),
        ("repro.frameworks.projectq.backends:IBMBackend", "noise_model"),
        ("repro.frameworks.projectq.compiler:CompilerBackend", "target"),
        ("repro.frameworks.projectq.compiler:CompilerBackend", "pipeline"),
        ("repro.frameworks.projectq.compiler:CompilerBackend",
         "compile_target"),
        ("repro.frameworks.projectq.oracles:PhaseOracle", "effort"),
        ("repro.frameworks.qsharp:permutation_oracle_operation", "name"),
        ("repro.frameworks.qsharp:hidden_shift_program", "target"),
        ("repro.optimization.templates:template_optimize", "max_rounds"),
        ("repro.pipeline.cache:PassCache", "maxsize"),
        ("repro.simulator.kernels:compile_circuit", "block_size"),
        ("repro.simulator.kernels:compile_circuit", "fuse"),
        ("repro.simulator.statevector:Statevector.evolve", "fuse"),
        ("repro.engines.registry:run", "opts"),
        ("repro.engines.base:Engine.run", "opts"),
        ("repro.engines.statevector:StatevectorEngine.run", "opts"),
        ("repro.engines.stabilizer:StabilizerEngine.run", "opts"),
        ("repro.engines.density_matrix:DensityMatrixEngine.run", "opts"),
        ("repro.engines.monte_carlo:MonteCarloEngine.run", "opts"),
        ("repro.compiler.result:CompilationResult.simulate", "opts"),
        ("repro.emit.qasm2:Qasm2Emitter.emit", "opts"),
        ("repro.emit.projectq:ProjectQEmitter.emit", "opts"),
        ("repro.simulator.statevector:SimulationResult.counts_by_bitstring",
         "width"),
        ("repro.synthesis.pebbling:validate_moves", "require_clean"),
        ("repro.synthesis.reversible:ReversibleCircuit.remap", "num_lines"),
    ],
)
def test_parameters_only_tests_set_are_gone(path, parameter):
    import inspect

    module, _, qualname = path.partition(":")
    target = importlib.import_module(module)
    for attribute in qualname.split("."):
        target = getattr(target, attribute)
    assert parameter not in inspect.signature(target).parameters


def test_block_gain_extrapolation_is_gone():
    from repro.simulator import kernels

    assert not hasattr(kernels, "_block_gain")
    assert not hasattr(kernels, "_BLOCK_GAIN_GROWTH")
    assert max(kernels._BLOCK_GAIN) == kernels.BLOCK_QUBITS


#: Second implementations of an output job, by the module or class
#: that held them.
OUTPUT_JOB_TWINS = {
    "repro.simulator": ["ResourceCounter", "ResourceEstimate"],
    "repro.core": ["QasmError", "from_qasm", "to_qasm"],
    "repro.core.circuit.QuantumCircuit": [
        "t_depth", "to_qasm", "emit", "inverse",
    ],
    "repro.synthesis.reversible.ReversibleCircuit": ["gate_count", "inverse"],
    "repro.compiler.result.CompilationResult": ["to_qasm", "to_projectq"],
    "repro.frameworks.qsharp": [
        "_QSHARP_NAMES", "_ADJOINT_NAMES", "QSharpError", "gate_to_qsharp",
        "_FRAME_RE", "_STMT_RE", "_INDEX_RE", "_ARITY",
    ],
    "repro.verify": ["DEFAULT_MAX_DENSE_QUBITS"],
    "repro.verify.checker": ["_dense_failure"],
    "repro.emit.qasm2": ["to_qasm", "from_qasm"],
    "repro.emit.projectq": ["to_projectq"],
    "repro.verify.checker.EquivalenceChecker": [
        "_dense_failure", "_dense_extended_failure", "_dense_mapped_failure",
    ],
}


@pytest.mark.parametrize(
    "owner, name",
    [
        (owner, name)
        for owner, names in OUTPUT_JOB_TWINS.items()
        for name in names
    ],
)
def test_output_job_twins_are_gone(owner, name):
    try:
        holder = importlib.import_module(owner)
    except ImportError:
        module, _, attribute = owner.rpartition(".")
        holder = getattr(importlib.import_module(module), attribute)
    assert not hasattr(holder, name), (owner, name)


def test_frameworks_qsharp_defines_no_parser():
    # perfbench's Fig. 10 check imports the parser from the framework
    # module; it is the one in repro.emit.qsharp, not a copy
    from repro.emit import qsharp as dialect
    from repro.frameworks import qsharp

    assert qsharp.parse_operation_body is dialect.parse_operation_body


@pytest.mark.parametrize("keyword", ["max_dense_qubits", "atol"])
def test_checker_dense_width_and_tolerance_are_constants(keyword):
    from repro.verify import EquivalenceChecker, checker

    with pytest.raises(TypeError, match=keyword):
        EquivalenceChecker(**{keyword: 4})
    assert (checker.MAX_DENSE_QUBITS, checker.ATOL) == (10, 1e-7)


def test_grover_circuit_iterations_are_required():
    from repro.algorithms import grover_circuit
    from repro.boolean.truth_table import TruthTable

    with pytest.raises(TypeError, match="iterations"):
        grover_circuit(TruthTable.from_values([0, 0, 0, 1]))
