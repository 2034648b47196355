"""Unit tests for the repro.engines table."""

import importlib

import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.simulator.statevector import SimulationResult

#: The four built-in engines, in canonical listing order.
EXPECTED_ENGINES = (
    "statevector", "stabilizer", "density_matrix", "monte_carlo",
)

#: Every declared alias and the engine it names.
ALIASES = {
    "sv": "statevector",
    "pure": "statevector",
    "chp": "stabilizer",
    "tableau": "stabilizer",
    "dm": "density_matrix",
    "rho": "density_matrix",
    "mc": "monte_carlo",
    "noisy": "monte_carlo",
}
CAPPED_ENGINES = [
    name for name in EXPECTED_ENGINES
    if engines.get(name).capabilities.max_qubits is not None
]


class TestBuiltins:
    def test_builtin_engines_registered(self):
        assert engines.engines() == EXPECTED_ENGINES

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_every_alias_resolves_case_insensitively(self, alias):
        backend = engines.get(ALIASES[alias])
        assert engines.get(alias) is backend
        assert engines.get(alias.upper()) is backend
        assert alias in backend.aliases

    @pytest.mark.parametrize("name", EXPECTED_ENGINES)
    def test_get_returns_the_module_backend_instance(self, name):
        # perfbench's tracer patches type(engines.get(name)).run, so the
        # table must hand out each engine module's own ENGINE
        module = importlib.import_module(f"repro.engines.{name}")
        assert engines.get(name) is module.ENGINE
        assert engines.get(name.upper()) is module.ENGINE

    def test_get_passes_engine_instances_through(self):
        engine = engines.get("density_matrix")
        assert engines.get(engine) is engine

    def test_run_resolves_noise_specs(self):
        captured = {}

        class Probe:
            name = "probe"
            capabilities = engines.EngineCapabilities()

            def run(self, circuit, *, shots=1024, noise=None, seed=None,
                    **opts):
                captured["noise"] = noise
                return SimulationResult({}, None, shots)

        engines.run(Probe(), QuantumCircuit(1), noise="qe5")
        assert captured["noise"] == engines.QE5_NOISE
        engines.run(Probe(), QuantumCircuit(1), noise="p1=0.5")
        assert captured["noise"].p1 == 0.5

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(engines.EngineError, match="unknown engine"):
            engines.get("qft_only")
        with pytest.raises(
            engines.EngineError, match=r"statevector \(aka sv"
        ):
            engines.get("qft_only")

    def test_protocol_runtime_checkable(self):
        for name in EXPECTED_ENGINES:
            assert isinstance(engines.get(name), engines.Engine)

    def test_capabilities_match_design(self):
        assert engines.get("statevector").capabilities.noise is False
        assert engines.get("stabilizer").capabilities.max_qubits is None
        assert engines.get("stabilizer").capabilities.gate_set == "clifford"
        dm = engines.get("density_matrix").capabilities
        assert dm.noise and dm.exact and dm.max_qubits == 12
        mc = engines.get("monte_carlo").capabilities
        assert mc.noise and not mc.exact

    def test_describe_engines_mentions_aliases(self):
        described = engines.describe_engines()
        assert "density_matrix (aka dm, rho)" in described
        assert "monte_carlo (aka mc, noisy)" in described


class TestDeclaredCapacity:
    """Engines refuse circuits past ``max_qubits`` before allocating."""

    @pytest.mark.parametrize("name", CAPPED_ENGINES)
    def test_wide_circuit_raises_before_allocating(self, name):
        import tracemalloc

        cap = engines.get(name).capabilities.max_qubits
        circuit = QuantumCircuit(40, 40)
        circuit.h(0)
        circuit.measure_all()
        tracemalloc.start()
        try:
            with pytest.raises(engines.EngineError) as info:
                engines.run(name, circuit, shots=8, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"caps at {cap} qubits" in str(info.value)
        assert "40" in str(info.value)
        assert peak < 1 << 20  # nothing state-sized was allocated

    @pytest.mark.parametrize("name", CAPPED_ENGINES)
    def test_result_simulate_checks_width_too(self, name):
        # CompilationResult.simulate calls engine.run directly, so the
        # check cannot live only in the registry's run()
        engine = engines.get(name)
        cap = engine.capabilities.max_qubits
        with pytest.raises(engines.EngineError, match=f"caps at {cap}"):
            engine.run(QuantumCircuit(cap + 1), shots=1)


class TestShotsGuard:
    """Every engine vets ``shots`` first, with one typed error."""

    @pytest.mark.parametrize("shots", [-1, 2.5, True])
    @pytest.mark.parametrize("name", engines.engines())
    def test_bad_shots_raise_engine_error(self, name, shots):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(engines.EngineError) as info:
            engines.run(name, circuit, shots=shots, seed=0)
        assert f"shots={shots!r}" in str(info.value)
        assert name in str(info.value)

    @pytest.mark.parametrize("name", engines.engines())
    def test_shots_checked_before_width(self, name):
        with pytest.raises(engines.EngineError, match="shot count"):
            engines.get(name).run(QuantumCircuit(40), shots=-1)

    @pytest.mark.parametrize("name", engines.engines())
    def test_numpy_and_zero_shots_accepted(self, name):
        import numpy as np

        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        assert engines.run(name, circuit, shots=np.int64(3)).counts == {1: 3}
        assert engines.run(name, circuit, shots=0).counts == {}
