"""The shared NoiseModel: one home for the rates and spec parsing."""

import pytest

from repro.engines import (
    EngineError,
    NOISE_PRESETS,
    NoiseModel,
    QE5_NOISE,
    as_noise_model,
)


class TestNoiseModel:
    def test_qe5_rates_match_paper_calibration(self):
        assert QE5_NOISE.p1 == 0.0015
        assert QE5_NOISE.p2 == 0.035
        assert QE5_NOISE.p_meas == 0.04
        assert QE5_NOISE.p_multi == 0.06
        assert QE5_NOISE.amplitude_damping == 0.0
        assert QE5_NOISE.phase_damping == 0.0

    def test_damping_fields_default_to_zero(self):
        # pre-PR-8 call sites construct the identical model
        assert NoiseModel(p1=0.1, p2=0.2, p_meas=0.3, p_multi=0.4) == \
            NoiseModel(0.1, 0.2, 0.3, 0.4, 0.0, 0.0)

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="p1"):
            NoiseModel(p1=1.5)
        with pytest.raises(ValueError, match="amplitude_damping"):
            NoiseModel(amplitude_damping=-0.1)

    def test_is_noiseless(self):
        assert NoiseModel.noiseless().is_noiseless
        assert not QE5_NOISE.is_noiseless
        assert not NoiseModel(
            p1=0, p2=0, p_meas=0, p_multi=0, phase_damping=0.1
        ).is_noiseless


class TestAsNoiseModel:
    def test_passthrough(self):
        assert as_noise_model(None) is None
        assert as_noise_model(QE5_NOISE) is QE5_NOISE

    def test_presets_case_insensitive(self):
        assert as_noise_model("qe5") == QE5_NOISE
        assert as_noise_model("QE5") == QE5_NOISE
        assert as_noise_model("ibm_qe_2018") == QE5_NOISE
        assert as_noise_model("none").is_noiseless
        assert set(NOISE_PRESETS) >= {"qe5", "none", "ideal", "noiseless"}

    def test_rate_list(self):
        model = as_noise_model("p1=0.001, p2=0.03")
        assert model.p1 == 0.001
        assert model.p2 == 0.03
        assert model.p_meas == NoiseModel().p_meas  # untouched fields default
        assert as_noise_model("amplitude_damping=0.25").amplitude_damping \
            == 0.25

    def test_duplicate_rate_field_rejected(self):
        # regression: "p1=0.1,p1=0.2" used to silently keep the last
        # value; each field may appear at most once
        with pytest.raises(EngineError, match="duplicate noise rate 'p1'"):
            as_noise_model("p1=0.1,p1=0.2")
        with pytest.raises(EngineError, match="duplicate noise rate"):
            as_noise_model("p_meas=0.01, p2=0.03, p_meas=0.02")

    def test_unknown_preset_lists_presets(self):
        with pytest.raises(EngineError, match="qe5"):
            as_noise_model("chernobyl")

    def test_unknown_rate_field(self):
        with pytest.raises(EngineError, match="unknown noise rate"):
            as_noise_model("p9=0.1")

    def test_malformed_rate_value(self):
        with pytest.raises(EngineError, match="needs a number"):
            as_noise_model("p1=lots")

    def test_out_of_range_rate_wrapped(self):
        with pytest.raises(EngineError, match="not in"):
            as_noise_model("p1=2.0")

    def test_non_string_rejected(self):
        with pytest.raises(EngineError, match="expected a NoiseModel"):
            as_noise_model(0.5)


class TestSharedNoiseModel:
    """One NoiseModel class, defined in repro.engines.noise."""

    def test_monte_carlo_consumes_shared_model(self):
        from repro import engines
        from repro.core.circuit import QuantumCircuit

        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        result = engines.run(
            "monte_carlo", circuit, shots=64, noise=NoiseModel.noiseless(),
            seed=11,
        )
        assert result.counts == {1: 64}
