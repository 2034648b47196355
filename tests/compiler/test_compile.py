"""The compile facade: target resolution, preset equivalence, emission."""

import pytest

import _hand_wired as hand_wired
import repro
from repro.compiler import (
    CompilationResult,
    EmissionError,
    Target,
    get_target,
    list_targets,
    targets,
)
from repro.core.circuit import QuantumCircuit
from repro.frameworks.qsharp import parse_operation_body
from repro.mapping.routing import CouplingMap
from repro.pipeline import FlowState, Pipeline, PipelineError
from repro.revkit import generators
from repro.synthesis.transformation import transformation_based_synthesis


class TestPresetEquivalence:
    """repro.compile() reproduces the hand-wired flows gate-for-gate."""

    def test_eq5_gate_for_gate(self):
        reversible, _, optimized = hand_wired.eq5(generators.hwb(4))
        facade = repro.compile(
            {"hwb": 4}, target="clifford_t", cache=None
        )
        assert facade.circuit.gates == optimized.gates
        assert facade.reversible.gates == reversible.gates
        assert [r.name for r in facade.records] == [
            "revgen-hwb", "tbs", "revsimp", "rptm", "tpar", "ps",
        ]

    def test_qsharp_gate_for_gate(self, paper_pi):
        facade = repro.compile(paper_pi, target="qsharp", cache=None)
        assert facade.circuit.gates == hand_wired.qsharp(paper_pi).gates

    def test_device_gate_for_gate(self, paper_pi):
        source = hand_wired.qsharp(paper_pi)
        direct = hand_wired.device(source, CouplingMap.ibm_qx2())
        facade = repro.compile(
            source.copy(), target="ibm_qe5", cache=None
        )
        assert facade.circuit.gates == direct.circuit.gates
        assert (
            facade.routing.initial_layout == direct.initial_layout
        )

    def test_toffoli_level_zero_is_raw_synthesis(self, paper_pi):
        facade = repro.compile(
            paper_pi,
            target=targets.TOFFOLI.with_(optimization_level=0),
            cache=None,
        )
        assert (
            facade.reversible.gates
            == transformation_based_synthesis(paper_pi).gates
        )
        assert facade.circuit is None


class TestTargets:
    def test_presets_registered(self):
        assert list_targets() == (
            "toffoli", "clifford_t", "ibm_qe5", "qsharp", "projectq"
        )

    def test_get_target_by_name_case_insensitive(self):
        assert get_target("CLIFFORD_T") is targets.CLIFFORD_T
        assert get_target(None) is targets.CLIFFORD_T
        assert get_target(targets.QSHARP) is targets.QSHARP

    def test_unknown_target_lists_registered(self):
        with pytest.raises(PipelineError, match="registered targets"):
            get_target("warp_drive")

    def test_with_derives_without_registering(self):
        derived = targets.CLIFFORD_T.with_(optimization_level=0)
        assert derived.optimization_level == 0
        assert targets.CLIFFORD_T.optimization_level == 2
        assert derived.name == targets.CLIFFORD_T.name

    def test_reversible_target_rejects_circuit(self):
        with pytest.raises(PipelineError, match="reversible-level"):
            repro.compile(
                QuantumCircuit(1).h(0), target="toffoli", cache=None
            )

    def test_reversible_target_rejects_statistics_flag(self, paper_pi):
        # ps needs a quantum circuit; refuse rather than silently drop
        with pytest.raises(PipelineError, match="collect_statistics"):
            repro.compile(
                paper_pi,
                target=targets.TOFFOLI.with_(collect_statistics=True),
                cache=None,
            )

    def test_empty_state_rejected(self):
        with pytest.raises(PipelineError, match="nothing to compile"):
            repro.compile(FlowState(), cache=None)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("optimization_level", 7),
            ("optimization_level", 3),
            ("optimization_level", -1),
            ("optimization_level", "2"),
            ("optimization_level", 2.0),
            ("optimization_level", True),
            ("gate_set", ("foo",)),
            ("gate_set", ()),
            ("gate_set", ["mct"]),
        ],
        ids=["level-7", "level-3", "level-neg1", "level-str", "level-float",
             "level-bool", "gates-foo", "gates-empty", "gates-list"],
    )
    def test_pass_picking_fields_validated(self, field, value):
        with pytest.raises(PipelineError) as info:
            Target(name="bad_target", **{field: value})
        message = str(info.value)
        assert "'bad_target'" in message
        assert field in message
        assert repr(value) in message

    def test_target_synthesis_override(self, paper_pi):
        result = repro.compile(
            paper_pi,
            target=targets.CLIFFORD_T.with_(synthesis="tbs-bidir"),
            cache=None,
        )
        assert result.record("tbs-bidir")

    def test_routing_appended_for_function_workloads(self, paper_pi):
        result = repro.compile(paper_pi, target="ibm_qe5", cache=None)
        assert result.routing is not None
        assert result.record("route")


class TestCompilationResult:
    @pytest.fixture
    def result(self, paper_pi) -> CompilationResult:
        return repro.compile(paper_pi, target="qsharp", cache=None)

    def test_metrics_and_report(self, result):
        metrics = result.metrics()
        assert metrics["gates"] == len(result.circuit)
        assert result.record("tbs").name == "tbs"
        assert "rptm" in result.report()
        assert "target=qsharp" in result.summary()

    def test_to_qasm_round_trips(self, result):
        from repro.emit.qasm2 import from_qasm

        parsed = from_qasm(result.to_qasm())
        assert parsed.gates == result.circuit.gates
        # lazy: the second call returns the cached text
        assert result.to_qasm() is result.to_qasm()

    def test_to_qsharp_round_trips(self, result, paper_pi):
        code = result.emit("qsharp", name="Oracle")
        assert "operation Oracle" in code
        parsed = parse_operation_body(code, result.circuit.num_qubits)
        assert parsed.gates == result.circuit.gates

    def test_to_projectq_replays(self, result):
        source = result.to_projectq()
        namespace = {}
        exec(source, namespace)  # noqa: S102 - generated by us
        replayed = namespace["eng"].circuit
        assert replayed.gates == result.circuit.gates

    def test_emit_uses_target_default(self, result):
        assert result.emit() == result.emit("qsharp")

    def test_emit_without_format_raises(self, paper_pi):
        bare = repro.compile(paper_pi, target="clifford_t", cache=None)
        with pytest.raises(EmissionError, match="no emission format"):
            bare.emit()

    def test_emit_unknown_format_raises(self, result):
        with pytest.raises(EmissionError, match="unknown emission format"):
            result.emit("verilog")

    def test_reversible_result_cannot_emit(self, paper_pi):
        mct = repro.compile(paper_pi, target="toffoli", cache=None)
        with pytest.raises(EmissionError, match="no\\s+quantum circuit"):
            mct.to_qasm()

    def test_verify_flag_runs_verification(self, paper_pi):
        result = repro.compile(
            paper_pi, target="qsharp", verify=True, cache=None
        )
        assert result.circuit.is_clifford_t()


class TestFrameworkDispatch:
    """Rewired entry points match their pre-redesign outputs."""

    def test_qsharp_operation_matches_legacy_flow(self, paper_pi):
        from repro.frameworks.qsharp import permutation_oracle_operation

        operation = permutation_oracle_operation(
            paper_pi, pipeline=Pipeline(cache=None)
        )
        assert operation.circuit.gates == hand_wired.qsharp(paper_pi).gates

    def test_projectq_backend_matches_legacy_flow(self):
        from repro.frameworks.projectq import CompilerBackend

        circuit = QuantumCircuit(3)
        circuit.h(0).ccx(0, 1, 2).h(0)
        coupling = CouplingMap.ibm_qx2()
        legacy = hand_wired.device(circuit.copy(), coupling)
        backend = CompilerBackend(
            coupling=coupling, pipeline=Pipeline(cache=None)
        )
        compiled = backend.compile(circuit.copy())
        assert compiled.gates == legacy.circuit.gates

    def test_hidden_shift_mm_oracle_unchanged(self, paper_pi):
        from repro.algorithms.hidden_shift import _synthesize_permutation

        assert (
            _synthesize_permutation(paper_pi, None, "tbs").gates
            == transformation_based_synthesis(paper_pi).gates
        )

    def test_grover_accepts_expression_workloads(self):
        from repro.algorithms.grover import solve_grover

        result = solve_grover("a and b", seed=7)
        assert result.is_solution
        assert result.measured == 3
