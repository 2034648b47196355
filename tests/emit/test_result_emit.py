"""CompilationResult.emit as a thin registry dispatcher."""

import pickle

import pytest

import repro
from repro import emit
from repro.compiler import EmissionError, targets
from repro.core.circuit import FrozenCircuitError, QuantumCircuit
from repro.pipeline import PassCache


@pytest.fixture
def result(paper_pi):
    return repro.compile(paper_pi, target="qsharp", cache=None)


class TestDispatch:
    def test_every_registered_format_emits(self, result):
        for name in emit.formats():
            text = result.emit(name)
            assert isinstance(text, str) and text

    def test_memoized_per_format_and_opts(self, result):
        assert result.emit("qasm2") is result.emit("qasm2")
        assert result.emit("projectq") is result.emit("projectq")
        named = result.emit("qsharp", name="A")
        assert named is result.emit("qsharp", name="A")
        assert named != result.emit("qsharp", name="B")

    def test_alias_hits_the_same_memo_entry(self, result):
        assert result.emit("qasm") is result.emit("qasm2")
        assert result.to_qasm() is result.emit("qasm")

    def test_memoized_text_cannot_go_stale(self, result):
        # the memo keys on the circuit never changing: the compiled
        # circuit is frozen, so a post-emit edit raises instead of
        # leaving the cached text describing a different circuit
        text = result.emit("qasm2")
        gates = len(result.circuit)
        with pytest.raises(FrozenCircuitError):
            result.circuit.x(0)
        assert len(result.circuit) == gates
        assert result.emit("qasm2") is text
        assert text == emit.emit(result.circuit, "qasm2")

    def test_warm_results_of_one_point_share_the_text(self, paper_pi):
        # the memo lives on the frozen circuit, which every replay of
        # the cache entry shares, not on the throwaway result
        cache = PassCache()
        cold = repro.compile(paper_pi, target="qsharp", cache=cache)
        warm = repro.compile(paper_pi, target="qsharp", cache=cache)
        again = repro.compile(paper_pi, target="qsharp", cache=cache)
        assert warm.cache_hits == len(warm.records)
        assert warm.emit("qasm2") is again.emit("qasm2")
        assert cold.emit("qasm2") is warm.emit("qasm2")

    def test_named_qsharp_keeps_its_own_slot(self, result):
        foo = result.emit("qsharp", name="Foo")
        plain = result.emit("qsharp")
        assert foo is not plain
        assert "operation Foo" in foo and "operation Foo" not in plain
        assert result.emit("qsharp", name="Foo") is foo
        assert result.emit("qsharp") is plain

    def test_pickled_result_carries_no_memo(self, result):
        text = result.emit("qasm2")
        data = pickle.dumps(result)
        assert b"_memo" not in data
        assert text.encode() not in data
        clone = pickle.loads(data)
        assert clone.circuit == result.circuit and clone.circuit.frozen
        assert "_memo" not in vars(clone.circuit)
        assert clone.emit("qasm2") == text

    def test_caller_circuit_workload_is_never_frozen(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        result = repro.compile(circuit, target="clifford_t", cache=None)
        compiled = list(result.circuit.gates)
        assert result.circuit.frozen and not circuit.frozen
        circuit.x(1)  # the caller's builder stays editable
        assert result.circuit.gates == compiled

    def test_qsharp_unknown_option_raises_emission_error(self, result):
        with pytest.raises(EmissionError, match="name=/namespace="):
            result.emit("qsharp", bogus=1)

    def test_qsharp_unexportable_gate_raises_emission_error(self, paper_pi):
        from repro.compiler import detect_workload
        from repro.compiler.result import CompilationResult

        measured = repro.compile(paper_pi, target="qsharp", cache=None)
        circuit = measured.circuit.copy()
        circuit.num_clbits = 1
        circuit.measure(0, 0)
        workload = detect_workload(circuit)
        bundle = CompilationResult(
            workload=workload,
            target=targets.QSHARP,
            flow=targets.QSHARP.flow(workload),
            state=workload.state,
            records=[],
        )
        with pytest.raises(EmissionError, match="no Q# primitive"):
            bundle.emit("qsharp")

    def test_qasm2_round_trips_through_registry(self, result):
        parsed = emit.parse(result.emit("qasm2"))
        assert parsed.gates == result.circuit.gates


class TestErrorPaths:
    def test_unknown_format_lists_registered(self, result):
        with pytest.raises(EmissionError, match="unknown emission format"):
            result.emit("verilog")
        with pytest.raises(EmissionError, match="qasm2 \\(aka qasm"):
            result.emit("verilog")
        with pytest.raises(EmissionError, match="projectq"):
            result.emit("verilog")

    def test_no_default_emitter_lists_registered(self, paper_pi):
        bare = repro.compile(paper_pi, target="clifford_t", cache=None)
        with pytest.raises(EmissionError, match="no emission format"):
            bare.emit()
        with pytest.raises(EmissionError, match="registered formats"):
            bare.emit()
        with pytest.raises(EmissionError, match="qasm2"):
            bare.emit()

    def test_errors_are_both_pipeline_and_emitter_errors(self, result):
        from repro.pipeline.state import PipelineError

        with pytest.raises(PipelineError):
            result.emit("verilog")
        with pytest.raises(emit.EmitterError):
            result.emit("verilog")

    def test_backend_failure_translated(self, paper_pi):
        mct = repro.compile(paper_pi, target="toffoli", cache=None)
        with pytest.raises(EmissionError, match="no\\s+quantum circuit"):
            mct.emit("projectq")


class TestTargetDefaultEmitter:
    def test_target_emitter_is_the_default(self, paper_pi):
        result = repro.compile(paper_pi, target="projectq", cache=None)
        assert result.emit() is result.emit("projectq")
