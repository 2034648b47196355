"""The paper's flows come out of their targets gate for gate.

Each test compiles through ``repro.compile(..., target=...)`` and
compares with the hand-wired entry-point calls in ``tests/_hand_wired``.
"""

import pytest

import _hand_wired as hand_wired
import repro
from repro.boolean.permutation import BitPermutation
from repro.compiler import targets
from repro.compiler.target import Flow
from repro.core.statistics import circuit_statistics
from repro.mapping.routing import CouplingMap
from repro.pipeline import Pipeline
from repro.revkit import RevKitShell, generators
from repro.synthesis.decomposition import decomposition_based_synthesis
from repro.synthesis.transformation import transformation_based_synthesis

PAPER_PI = BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])
EQ5_SCRIPT = "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c"


class TestEq5Preset:
    def test_matches_hand_wired_gate_for_gate(self):
        perm = generators.hwb(4)
        reversible, mapped, optimized = hand_wired.eq5(perm)
        result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
        assert result.state.function == perm
        assert result.reversible.gates == reversible.gates
        assert result.circuit.gates == optimized.gates
        assert result.record("rptm").after["t_count"] == mapped.t_count()
        assert result.statistics.as_dict() == (
            circuit_statistics(optimized).as_dict()
        )

    def test_synthesis_variant_matches_hand_wired(self):
        perm = generators.hwb(4)
        _, _, optimized = hand_wired.eq5(
            perm, synthesize=decomposition_based_synthesis
        )
        result = repro.compile(
            {"hwb": 4},
            target=targets.CLIFFORD_T.with_(synthesis="dbs"),
            cache=None,
        )
        assert result.circuit.gates == optimized.gates

    def test_shell_script_identical_stage_statistics(self):
        """The Eq. (5) script through the pass manager reproduces the
        hand-wired per-stage outputs exactly."""
        perm = generators.hwb(4)
        reversible, mapped, optimized = hand_wired.eq5(perm)
        shell = RevKitShell(pipeline=Pipeline(cache=None))
        outputs = shell.run(EQ5_SCRIPT)
        tbs_count = len(transformation_based_synthesis(perm))
        assert outputs[0] == "generated BitPermutation"
        assert outputs[1] == f"{tbs_count} gates"
        assert outputs[2] == f"{tbs_count} -> {len(reversible)} gates"
        assert outputs[3] == (
            f"{len(mapped)} gates, T={mapped.t_count()}, "
            f"{mapped.num_qubits} qubits"
        )
        assert outputs[4] == f"T: {mapped.t_count()} -> {optimized.t_count()}"
        assert outputs[5] == str(circuit_statistics(optimized))
        assert shell.quantum.gates == optimized.gates

    def test_shell_script_and_target_emit_identical_qasm(self):
        shell = RevKitShell(pipeline=Pipeline(cache=None))
        shell.run(EQ5_SCRIPT)
        result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
        assert shell.quantum.gates == result.circuit.gates
        assert repro.emit.emit(shell.quantum, "qasm2") == result.emit("qasm2")

    def test_shell_cached_rerun_identical_outputs(self):
        """A cached re-run of the same script prints the same stages."""
        pipeline = Pipeline(cache="shared")
        first = RevKitShell(pipeline=Pipeline(cache=pipeline.cache)).run(
            EQ5_SCRIPT
        )
        second = RevKitShell(pipeline=Pipeline(cache=pipeline.cache)).run(
            EQ5_SCRIPT
        )
        assert first == second

    def test_preset_timing_report_available(self):
        result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
        report = result.report()
        assert "rptm" in report and "ms" in report


class TestQsharpPreset:
    @pytest.mark.parametrize("relative_phase", [True, False])
    def test_matches_hand_wired_gate_for_gate(self, relative_phase):
        expected = hand_wired.qsharp(PAPER_PI, relative_phase=relative_phase)
        result = repro.compile(
            PAPER_PI,
            target=targets.QSHARP.with_(relative_phase=relative_phase),
            cache=None,
        )
        assert result.circuit.gates == expected.gates


class TestDevicePreset:
    @pytest.mark.parametrize("level", [2, 1])
    @pytest.mark.parametrize("chip", ["line", "bowtie"])
    def test_matches_hand_wired_gate_for_gate(self, chip, level):
        circuit = transformation_based_synthesis(
            generators.hwb(3)
        ).to_quantum_circuit()
        if chip == "line":
            coupling = CouplingMap.line(circuit.num_qubits)
        else:
            coupling = CouplingMap.ibm_qx2()
        expected = hand_wired.device(circuit, coupling, level=level)
        target = targets.IBM_QE5.with_(
            coupling=coupling, optimization_level=level
        )
        result = repro.compile(circuit, target=target, cache=None)
        assert [r.name for r in result.records] == (
            ["cancel", "rptm", "tpar", "route"]
            if level == 2
            else ["cancel", "rptm", "route"]
        )
        assert result.circuit.gates == expected.circuit.gates
        assert result.routing.swap_count == expected.swap_count

    def test_default_preset_targets_bowtie_chip(self):
        circuit = transformation_based_synthesis(
            generators.hwb(3)
        ).to_quantum_circuit()
        route = targets.IBM_QE5.flow(circuit).passes[-1]
        assert route.name == "route"
        assert route.coupling.num_qubits == 5

    def test_chained_after_eq5_keeps_optimized_quantum(self):
        """Feeding an Eq. (5) result into the device shape must lower
        the *current* quantum circuit on need — not re-map the stale
        cascade still sitting in the store."""
        eq5_result = repro.compile(
            {"hwb": 4}, target="clifford_t", cache=None
        )
        width = eq5_result.circuit.num_qubits
        result = repro.compile(
            eq5_result.state,
            target=targets.IBM_QE5.with_(coupling=CouplingMap.line(width)),
            verify=True,
            cache=None,
        )
        rptm = result.record("rptm")
        # nothing lowerable -> untouched
        assert rptm.after["gates"] == rptm.before["gates"]
        assert rptm.after["qubits"] == width


class TestFlow:
    def test_name_and_chain(self):
        flow = targets.CLIFFORD_T.flow({"hwb": 4})
        assert isinstance(flow, Flow)
        assert flow.name == "clifford_t[generator]"
        assert str(flow) == (
            "clifford_t[generator]: revgen-hwb -> tbs -> revsimp -> "
            "rptm -> tpar -> ps"
        )

    def test_pipeline_runs_a_resolved_flow(self):
        flow = targets.CLIFFORD_T.flow({"hwb": 4})
        direct = Pipeline(cache=None).run(flow)
        facade = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
        assert direct.quantum.gates == facade.circuit.gates
