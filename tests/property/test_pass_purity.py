"""Property: a pass never mutates its input store.

Pass outputs are shared by reference — ``FlowState.copy`` is shallow and
the result cache hands out the stored objects themselves — which is
sound only if every pass treats the store it is given as read-only.
The stores here hold *unfrozen* builders, so a mutating pass would go
through silently; the content tokens of every field catch it.

Frozen circuits memoize their content digest, T-count and quantum
cost, so the frozen-store variants also check that every memo agrees
with a value recomputed from scratch: a memo must never hide an input
mutation, and never outlive an edit of a ``copy()``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.mapping.barenco import map_to_clifford_t
from repro.core.circuit import QuantumCircuit
from repro.mapping.routing import CouplingMap, RoutingResult, route_circuit
from repro.pipeline import (
    CancelPass,
    FlowState,
    GeneratePass,
    MapToCliffordTPass,
    Pipeline,
    PipelineError,
    RoutePass,
    SimplifyPass,
    StatisticsPass,
    SynthesisPass,
    TemplatePass,
    TparPass,
    state_token,
)
from repro.pipeline.passes import GENERATOR_KINDS
from repro.pipeline.state import FIELDS
from repro.synthesis.reversible import ReversibleCircuit
from repro.synthesis.transformation import transformation_based_synthesis

SYNTHESIS_METHODS = ("tbs", "tbs-bidir", "dbs", "exact", "esop", "bdd")


def permutations(min_bits=2, max_bits=3):
    return st.integers(min_bits, max_bits).flatmap(
        lambda n: st.permutations(list(range(1 << n))).map(BitPermutation)
    )


def truth_tables(max_vars=3):
    return st.integers(1, max_vars).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda bits: TruthTable(n, bits)
        )
    )


def full_store(perm):
    """A store with every field set, all circuits unfrozen builders."""
    cascade = transformation_based_synthesis(perm)
    mapped = map_to_clifford_t(cascade)
    routing = route_circuit(mapped, CouplingMap.line(mapped.num_qubits))
    return FlowState(
        function=perm,
        reversible=cascade,
        quantum=routing.circuit,
        routing=routing,
        artifacts={"note": "caller's"},
    )


def frozen_store(perm):
    """:func:`full_store` with every circuit frozen (memos enabled)."""
    state = full_store(perm)
    state.reversible.freeze()
    state.routing.freeze()  # freezes ``quantum`` too: it is the same circuit
    return state


def thawed(value):
    """Rebuild ``value`` with builder circuits, which never memoize."""
    if isinstance(value, (QuantumCircuit, ReversibleCircuit)):
        return value.copy()
    if isinstance(value, RoutingResult):
        return dataclasses.replace(value, circuit=value.circuit.copy())
    if isinstance(value, dict):
        return {k: thawed(v) for k, v in value.items()}
    return value


def assert_memos_fresh(value):
    """Every memoized fact of ``value`` equals a from-scratch recount."""
    assert state_token(value) == state_token(thawed(value))
    if isinstance(value, RoutingResult):
        value = value.circuit
    if isinstance(value, QuantumCircuit):
        assert value.t_count() == value.copy().t_count()
    if isinstance(value, ReversibleCircuit):
        assert value.quantum_cost() == value.copy().quantum_cost()


def assert_pure_frozen(pass_, state):
    """:func:`assert_pure` over a frozen store whose memos are filled."""
    tokens = {name: state_token(getattr(state, name)) for name in FIELDS}
    try:
        pass_.run(state)
    except PipelineError:
        pass
    for name in FIELDS:
        value = getattr(state, name)
        assert state_token(value) == tokens[name], name
        assert_memos_fresh(value)


def assert_pure(pass_, state):
    """Run ``pass_`` and check it left ``state`` exactly as it was."""
    tokens = {name: state_token(getattr(state, name)) for name in FIELDS}
    objects = {name: getattr(state, name) for name in FIELDS}
    try:
        pass_.run(state)
    except PipelineError:
        pass  # a refusal must leave the input intact too
    for name in FIELDS:
        assert getattr(state, name) is objects[name], name
        assert state_token(getattr(state, name)) == tokens[name], name


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_leaves_input_intact(kind):
    perm = BitPermutation.random(3, seed=1)
    assert_pure(GeneratePass(kind, 3), full_store(perm))


@pytest.mark.parametrize("method", SYNTHESIS_METHODS)
@given(perm=permutations(), table=truth_tables())
@settings(max_examples=10, deadline=None)
def test_synthesis_leaves_input_intact(method, perm, table):
    state = full_store(perm)
    if method in ("esop", "bdd"):
        state.function = table
    assert_pure(SynthesisPass(method), state)


REWRITE_PASSES = [
    SimplifyPass(),
    TemplatePass(),
    MapToCliffordTPass(),
    MapToCliffordTPass(relative_phase=False),
    TparPass(),
    CancelPass(),
    RoutePass(CouplingMap.ring(8)),
    StatisticsPass(),
]


@pytest.mark.parametrize("pass_", REWRITE_PASSES, ids=lambda p: p.name)
@given(perm=permutations())
@settings(max_examples=10, deadline=None)
def test_rewrite_passes_leave_input_intact(pass_, perm):
    assert_pure(pass_, full_store(perm))


@pytest.mark.parametrize("only_if_needed", [False, True])
@given(perm=permutations())
@settings(max_examples=10, deadline=None)
def test_rptm_from_quantum_source_leaves_input_intact(only_if_needed, perm):
    cascade = transformation_based_synthesis(perm)
    state = FlowState(quantum=cascade.to_quantum_circuit())
    assert_pure(MapToCliffordTPass(only_if_needed=only_if_needed), state)
    # on-need lowering over an already-lowered circuit passes it through
    state = FlowState(quantum=map_to_clifford_t(cascade), reversible=cascade)
    assert_pure(MapToCliffordTPass(only_if_needed=only_if_needed), state)


EVERY_PASS = (
    [GeneratePass("hwb", 3)]
    + [SynthesisPass(method) for method in ("tbs", "dbs")]
    + REWRITE_PASSES
)


@pytest.mark.parametrize("pass_", EVERY_PASS, ids=lambda p: p.name)
@given(perm=permutations())
@settings(max_examples=5, deadline=None)
def test_memos_never_hide_an_input_mutation(pass_, perm):
    assert_pure_frozen(pass_, frozen_store(perm))


@pytest.mark.parametrize("pass_", EVERY_PASS, ids=lambda p: p.name)
@given(perm=permutations())
@settings(max_examples=5, deadline=None)
def test_every_pass_output_memoizes_its_fresh_digest(pass_, perm):
    state, _ = Pipeline(cache=None).apply(pass_, full_store(perm))
    for name in pass_.writes:
        value = getattr(state, name)
        circuit = getattr(value, "circuit", value)
        assert getattr(circuit, "frozen", True), name
        assert_memos_fresh(value)
        assert_memos_fresh(value)  # the second call reads the memo


@given(perm=permutations())
@settings(max_examples=10, deadline=None)
def test_edited_copy_gets_a_new_token_and_spares_the_source(perm):
    state = frozen_store(perm)
    for source in (state.quantum, state.reversible):
        token = state_token(source)
        memo = dict(vars(source)["_memo"])
        edited = source.copy()
        assert state_token(edited) == token
        edited.x(0)
        assert state_token(edited) != token
        assert vars(source)["_memo"] == memo
        assert state_token(source) == token == state_token(source.copy())


@given(perm=permutations())
@settings(max_examples=10, deadline=None)
def test_builder_and_frozen_twin_share_a_token(perm):
    builders = full_store(perm)
    for name in FIELDS:
        value = getattr(builders, name)
        twin = thawed(value)
        if hasattr(twin, "freeze"):
            twin.freeze()
        assert state_token(twin) == state_token(value), name
