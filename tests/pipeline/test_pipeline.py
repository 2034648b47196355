"""Unit tests for the pass-manager runner, cache and verification."""

import pytest

from repro.boolean.permutation import BitPermutation
from repro.core.circuit import FrozenCircuitError
from repro.pipeline import (
    CancelPass,
    FlowState,
    GeneratePass,
    MapToCliffordTPass,
    PassCache,
    Pipeline,
    PipelineError,
    SimplifyPass,
    StatisticsPass,
    SynthesisPass,
    TparPass,
    VerificationError,
    state_key,
    state_token,
)
from repro.revkit import generators
from repro.synthesis.reversible import ReversibleCircuit


def eq5_passes():
    """The Eq. (5) script as a pass list: revgen; tbs; revsimp; rptm;
    tpar; ps."""
    return (
        GeneratePass("hwb", 4),
        SynthesisPass("tbs"),
        SimplifyPass(),
        MapToCliffordTPass(relative_phase=True),
        TparPass(pre_cancel=True),
        StatisticsPass(),
    )


class CountingSimplify(SimplifyPass):
    """SimplifyPass that counts how often run() actually executes."""

    calls = 0

    def run(self, state):
        type(self).calls += 1
        return super().run(state)


class BrokenSimplify(SimplifyPass):
    """A deliberately wrong pass: drops the last gate of the cascade."""

    name = "broken-simp"

    def run(self, state):
        out = state.copy()
        pruned = ReversibleCircuit(state.reversible.num_lines)
        pruned.extend(state.reversible.gates[:-1])
        out.reversible = pruned
        return out


class BrokenTpar(TparPass):
    """A deliberately wrong pass: appends a stray X to the circuit."""

    name = "broken-tpar"

    def run(self, state):
        out = super().run(state)
        out.quantum.x(0)
        return out


def hwb4_state():
    perm = generators.hwb(4)
    return FlowState(
        function=perm,
        reversible=SynthesisPass("tbs").run(FlowState(function=perm)).reversible,
    )


class TestStateFingerprint:
    def test_token_distinguishes_content(self):
        a = BitPermutation([0, 1, 2, 3])
        b = BitPermutation([0, 1, 3, 2])
        assert state_token(a) != state_token(b)
        assert state_token(a) == state_token(BitPermutation([0, 1, 2, 3]))

    def test_key_depends_on_selected_fields_only(self):
        state = hwb4_state()
        other = FlowState(function=state.function)
        assert state_key(state, ("function",)) == state_key(other, ("function",))
        assert state_key(state, ("function", "reversible")) != state_key(
            other, ("function", "reversible")
        )

    def test_circuit_token_sees_gate_order(self):
        a = ReversibleCircuit(2).cnot(0, 1).x(0)
        b = ReversibleCircuit(2).x(0).cnot(0, 1)
        assert state_token(a) != state_token(b)


class TestPipelineRecords:
    def test_records_time_and_deltas(self):
        result = Pipeline(cache=None).run(eq5_passes())
        assert [r.name for r in result.records] == [
            "revgen-hwb", "tbs", "revsimp", "rptm", "tpar", "ps",
        ]
        assert all(r.seconds >= 0 for r in result.records)
        tpar = result.record("tpar")
        assert tpar.after["t_count"] < tpar.before["t_count"]
        assert "T " in tpar.summary()
        assert "statistics" in result.state.artifacts

    def test_report_mentions_every_pass(self):
        pipeline = Pipeline(cache=None)
        pipeline.run(eq5_passes())
        text = pipeline.report()
        for name in ("revgen-hwb", "tbs", "revsimp", "rptm", "tpar"):
            assert name in text

    def test_missing_store_raises(self):
        with pytest.raises(PipelineError):
            Pipeline(cache=None).apply(SimplifyPass(), FlowState())

    def test_unknown_generator_rejected(self):
        with pytest.raises(PipelineError):
            GeneratePass("nope", 3)

    def test_irrelevant_generator_options_ignored(self):
        """The shell historically tolerated stray options
        (``revgen --hwb 4 --seed 3`` ignored the seed)."""
        state = GeneratePass("hwb", 4, seed=3).run(FlowState())
        assert state.function == generators.hwb(4)

    def test_unknown_synthesis_rejected(self):
        with pytest.raises(PipelineError):
            SynthesisPass("nope")


class TestCache:
    def test_cache_hit_skips_execution(self):
        CountingSimplify.calls = 0
        pipeline = Pipeline(cache=PassCache())
        state = hwb4_state()
        _, first = pipeline.apply(CountingSimplify(), state)
        _, second = pipeline.apply(CountingSimplify(), state)
        assert CountingSimplify.calls == 1
        assert not first.cache_hit
        assert second.cache_hit
        assert second.after == first.after

    def test_cache_key_sees_input_content(self):
        CountingSimplify.calls = 0
        pipeline = Pipeline(cache=PassCache())
        pipeline.apply(CountingSimplify(), hwb4_state())
        other = FlowState(
            function=generators.hwb(3),
            reversible=SynthesisPass("tbs")
            .run(FlowState(function=generators.hwb(3)))
            .reversible,
        )
        _, record = pipeline.apply(CountingSimplify(), other)
        assert CountingSimplify.calls == 2
        assert not record.cache_hit

    def test_cache_key_sees_pass_parameters(self):
        pipeline = Pipeline(cache=PassCache())
        state = hwb4_state()
        rptm, ctmap = (
            MapToCliffordTPass(relative_phase=flag) for flag in (True, False)
        )
        assert rptm.signature() != ctmap.signature()
        pipeline.apply(rptm, state)
        _, record = pipeline.apply(ctmap, state)
        assert not record.cache_hit

    def test_mutating_result_does_not_corrupt_cache(self):
        pipeline = Pipeline(cache=PassCache())
        perm = generators.hwb(4)
        state = FlowState(function=perm)
        state, _ = pipeline.apply(SynthesisPass("tbs"), state)
        mapped, _ = pipeline.apply(MapToCliffordTPass(), state)
        original = list(mapped.quantum.gates)
        with pytest.raises(FrozenCircuitError):
            mapped.quantum.x(0)  # a caller may not corrupt the entry
        replay, record = pipeline.apply(MapToCliffordTPass(), state)
        assert record.cache_hit
        assert replay.quantum.gates == original
        edited = replay.quantum.copy().x(0)  # copies are editable
        assert len(edited) == len(original) + 1
        assert replay.quantum.gates == original

    def test_editing_a_returned_gate_list_raises(self):
        import repro

        cache = PassCache()
        first = repro.compile({"hwb": 3}, target="clifford_t", cache=cache)
        gates = list(first.circuit.gates)
        with pytest.raises(FrozenCircuitError):
            first.circuit.gates.append(first.circuit.gates[0])
        with pytest.raises(FrozenCircuitError):
            first.circuit.gates[0] = first.circuit.gates[-1]
        with pytest.raises(FrozenCircuitError):
            first.reversible.gates.pop()
        replay = repro.compile({"hwb": 3}, target="clifford_t", cache=cache)
        assert replay.cache_hits == len(replay.records)
        assert replay.circuit.gates == gates
        assert replay.emit("qasm2") == repro.emit.emit(
            first.circuit.copy(), "qasm2"
        )

    def test_memory_hit_returns_the_stored_objects(self):
        circuit = ReversibleCircuit(2).cnot(0, 1).freeze()
        cache = PassCache()
        cache.put("k", {"reversible": circuit}, {"n": 1})
        outputs, details, _ = cache.get("k")
        assert outputs["reversible"] is circuit
        assert cache.get("k")[0]["reversible"] is circuit
        assert details == {"n": 1}

    def test_warm_routed_replay_shares_frozen_outputs(self):
        import repro

        cache = PassCache()
        cold = repro.compile(generators.hwb(4), target="ibm_qe5", cache=cache)
        warm = repro.compile(generators.hwb(4), target="ibm_qe5", cache=cache)
        assert warm.cache_hits == len(warm.records)
        assert warm.circuit is cold.circuit
        assert warm.reversible is cold.reversible
        assert warm.routing is cold.routing
        assert warm.statistics is cold.statistics
        for circuit in (warm.circuit, warm.reversible, warm.routing.circuit):
            gates = list(circuit.gates)
            with pytest.raises(FrozenCircuitError):
                circuit.append(circuit.gates[0])
            assert circuit.gates == gates
        with pytest.raises(AttributeError):
            warm.routing.swap_count = 0
        assert isinstance(warm.routing.final_layout, tuple)

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.pipeline.cache.MEMORY_ENTRIES", 2)
        cache = PassCache()
        cache.put("a", {}, {})
        cache.put("b", {}, {})
        cache.put("c", {}, {})
        assert len(cache) == 2
        assert cache.get("a") is None

    def test_shared_cache_reused_across_pipelines(self):
        cache = PassCache()
        state = hwb4_state()
        Pipeline(cache=cache).apply(SimplifyPass(), state)
        _, record = Pipeline(cache=cache).apply(SimplifyPass(), state)
        assert record.cache_hit

    def test_same_qualname_closures_do_not_collide(self):
        """Opaque callables opt out of caching: two closures sharing a
        qualname must not replay each other's results."""
        from repro.synthesis.transformation import (
            bidirectional_synthesis,
            transformation_based_synthesis,
        )

        def make_synth(backend):
            def synth(perm):
                return backend(perm)
            return synth

        pipeline = Pipeline(cache=PassCache())
        state = FlowState(function=generators.hwb(4))
        pipeline.apply(
            SynthesisPass(make_synth(transformation_based_synthesis)), state
        )
        result, record = pipeline.apply(
            SynthesisPass(make_synth(bidirectional_synthesis)), state
        )
        assert not record.cache_hit
        assert result.reversible.gates == bidirectional_synthesis(
            generators.hwb(4)
        ).gates

    def test_named_callable_still_cacheable(self):
        from repro.synthesis.transformation import bidirectional_synthesis

        pipeline = Pipeline(cache=PassCache())
        state = FlowState(function=generators.hwb(4))
        _, cold = pipeline.apply(SynthesisPass(bidirectional_synthesis), state)
        _, warm = pipeline.apply(SynthesisPass(bidirectional_synthesis), state)
        assert not cold.cache_hit
        assert warm.cache_hit


class TestSynthesisOutputs:
    def test_bdd_synthesis_writes_only_the_cascade(self, tmp_path):
        import repro
        from repro.boolean.truth_table import TruthTable
        from repro.compiler import get_target

        assert SynthesisPass.writes == ("reversible",)
        table = TruthTable.from_function(3, lambda a, b, c: (a and b) ^ c)
        target = get_target("toffoli").with_(synthesis="bdd")
        result = repro.compile(table, target=target, cache=None)
        assert "bdd" not in result.state.artifacts
        # with no opaque artifact the synthesis entry spills to disk, so
        # a fresh cache over the same directory replays it
        repro.compile(table, target=target, cache=PassCache(path=tmp_path))
        replay = repro.compile(
            table, target=target, cache=PassCache(path=tmp_path)
        )
        assert replay.record("bdd").cache_hit
        assert replay.reversible.gates == result.reversible.gates


class TestVerification:
    def test_broken_reversible_pass_caught(self):
        pipeline = Pipeline(cache=None, verify=True)
        with pytest.raises(VerificationError, match="broken-simp"):
            pipeline.apply(BrokenSimplify(), hwb4_state())

    def test_broken_quantum_pass_caught(self):
        state = hwb4_state()
        state, _ = Pipeline(cache=None).apply(MapToCliffordTPass(), state)
        pipeline = Pipeline(cache=None, verify=True)
        with pytest.raises(VerificationError, match="broken-tpar"):
            pipeline.apply(BrokenTpar(), state)

    def test_honest_passes_verify_clean(self):
        result = Pipeline(cache=None, verify=True).run(eq5_passes())
        assert result.quantum.is_clifford_t()

    def test_verification_off_lets_broken_pass_through(self):
        pipeline = Pipeline(cache=None, verify=False)
        state, _ = pipeline.apply(BrokenSimplify(), hwb4_state())
        assert state.reversible is not None

    def test_failed_verification_never_poisons_cache(self):
        """A pass that fails verify=True must leave nothing behind: a
        later verify=False pipeline on the same cache must re-run the
        pass, not replay the broken output."""
        cache = PassCache()
        state = hwb4_state()
        with pytest.raises(VerificationError):
            Pipeline(cache=cache, verify=True).apply(BrokenSimplify(), state)
        assert len(cache) == 0
        _, record = Pipeline(cache=cache, verify=False).apply(
            BrokenSimplify(), state
        )
        assert not record.cache_hit

    def test_cache_hit_skips_reverification(self):
        """Entries stored by a verifying pipeline are flagged, so a
        warm verify=True run does not redo the dense checks."""

        class CountingCheck(SimplifyPass):
            check_calls = 0

            def _tiered_check(self, checker, before, after):
                type(self).check_calls += 1
                return super()._tiered_check(checker, before, after)

        CountingCheck.check_calls = 0
        cache = PassCache()
        state = hwb4_state()
        pipeline = Pipeline(cache=cache, verify=True)
        pipeline.apply(CountingCheck(), state)
        _, warm = pipeline.apply(CountingCheck(), state)
        assert warm.cache_hit
        assert CountingCheck.check_calls == 1

    def test_unverified_entry_verified_on_first_hit(self):
        """An entry stored by a verify=False pipeline is checked (once)
        when a verifying pipeline replays it."""
        cache = PassCache()
        state = hwb4_state()
        Pipeline(cache=cache, verify=False).apply(SimplifyPass(), state)
        verifier = Pipeline(cache=cache, verify=True)
        _, first = verifier.apply(SimplifyPass(), state)
        assert first.cache_hit

    def test_broken_cached_entry_dropped_on_verified_hit(self):
        """A broken entry cached by a verify=False run is caught and
        evicted the first time a verifying pipeline replays it."""
        cache = PassCache()
        state = hwb4_state()
        Pipeline(cache=cache, verify=False).apply(BrokenSimplify(), state)
        assert len(cache) == 1
        with pytest.raises(VerificationError):
            Pipeline(cache=cache, verify=True).apply(BrokenSimplify(), state)
        assert len(cache) == 0

    def test_widened_quantum_lowering_is_verified(self):
        """Mapping a quantum circuit may append clean ancillae; the
        verifier must still check it (extended-unitary), and must
        catch a corrupted widened mapping."""
        from repro.core.circuit import QuantumCircuit

        class BrokenMap(MapToCliffordTPass):
            def __init__(self, **options):
                super().__init__(**options)
                self.name = "broken-map"

            def run(self, state):
                out = super().run(state)
                out.quantum.z(0)
                return out

        circuit = QuantumCircuit(4).h(0).mcx((0, 1, 2), 3)
        state = FlowState(quantum=circuit)
        good = Pipeline(cache=None, verify=True)
        result, _ = good.apply(
            MapToCliffordTPass(only_if_needed=True), state
        )
        assert result.quantum.num_qubits > 4  # really widened
        with pytest.raises(VerificationError, match="broken-map"):
            Pipeline(cache=None, verify=True).apply(
                BrokenMap(only_if_needed=True), state
            )

    def test_cache_key_sees_circuit_name(self):
        """Replayed outputs carry name-derived metadata, so identical
        gates under different names must not share a cache entry."""
        from repro.core.circuit import QuantumCircuit

        def named(name):
            return FlowState(
                quantum=QuantumCircuit(2, name=name).h(0).h(0).cx(0, 1)
            )

        pipeline = Pipeline(cache=PassCache())
        pipeline.apply(CancelPass(), named("alpha"))
        state, record = pipeline.apply(CancelPass(), named("beta"))
        assert not record.cache_hit
        assert "alpha" not in state.quantum.name

    def test_flow_error_context_names_flow_and_pass_index(self):
        """A PipelineError mid-flow must say which preset step failed:
        flow name, 1-based pass index, pass name and stage."""
        with pytest.raises(PipelineError) as info:
            Pipeline(cache=None).run(
                [SimplifyPass()],  # no reversible store yet
                flow_name="demo-flow",
            )
        message = str(info.value)
        assert "flow 'demo-flow'" in message
        assert "pass 1/1" in message
        assert "'revsimp'" in message

    def test_verification_error_context_keeps_type_and_position(self):
        passes = (
            GeneratePass("hwb", 4), SynthesisPass("tbs"), BrokenSimplify()
        )
        with pytest.raises(VerificationError) as info:
            Pipeline(cache=None, verify=True).run(
                passes, flow_name="broken-demo"
            )
        message = str(info.value)
        assert "flow 'broken-demo'" in message
        assert "pass 3/3" in message
        assert "broken-simp" in message

    def test_foreign_exception_keeps_type_and_gains_note(self):
        """A non-pipeline exception keeps its type (except clauses
        still match) and gains a traceback note with the position."""

        class ExplodingPass(SimplifyPass):
            name = "kaboom"

            def run(self, state):
                raise ValueError("wires crossed")

        passes = (
            GeneratePass("hwb", 3), SynthesisPass("tbs"), ExplodingPass()
        )
        with pytest.raises(ValueError, match="wires crossed") as info:
            Pipeline(cache=None).run(passes, flow_name="exploding")
        notes = getattr(info.value, "__notes__", [])
        assert any(
            "flow 'exploding'" in note and "pass 3/3" in note
            for note in notes
        )

    def test_pipeline_run_context_without_flow_name(self):
        with pytest.raises(PipelineError) as info:
            Pipeline(cache=None).run([SimplifyPass()])
        message = str(info.value)
        assert "pass 1/1" in message
        assert "flow" not in message

    def test_route_verify_guard_uses_device_width(self):
        """The dense routing check builds device-width unitaries, so a
        narrow circuit on a wide coupling map must skip it (not try to
        allocate 2^device_width matrices)."""
        from repro.core.circuit import QuantumCircuit
        from repro.mapping.routing import CouplingMap
        from repro.pipeline import RoutePass

        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        pipeline = Pipeline(cache=None, verify=True)
        state, record = pipeline.apply(
            RoutePass(CouplingMap.line(12)), FlowState(quantum=circuit)
        )
        assert state.routing.circuit.num_qubits == 12
        assert record.details["swaps"] == state.routing.swap_count
