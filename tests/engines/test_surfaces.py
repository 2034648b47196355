"""The four engine-selection surfaces: API, Target, CLI, RevKit shell."""

import pytest

import repro
from repro.__main__ import main
from repro.compiler import Target, targets
from repro.engines import NoiseModel, QE5_NOISE
from repro.engines.density_matrix import DensityMatrixResult
from repro.pipeline.state import PipelineError
from repro.revkit.shell import RevKitShell, ShellError
from repro.simulator.statevector import SimulationResult


class TestTargetEngineField:
    def test_alias_canonicalized_at_construction(self):
        assert Target(name="t", engine="dm").engine == "density_matrix"
        assert Target(name="t", engine="SV").engine == "statevector"

    def test_noise_spec_canonicalized(self):
        target = Target(name="t", noise="qe5")
        assert target.noise == QE5_NOISE
        assert Target(name="t", noise="p1=0.002").noise.p1 == 0.002

    def test_unknown_engine_raises_with_list(self):
        with pytest.raises(PipelineError, match="registered engines"):
            Target(name="t", engine="verilog")

    def test_unknown_noise_raises(self):
        with pytest.raises(PipelineError, match="presets"):
            Target(name="t", noise="chernobyl")

    def test_with_revalidates(self):
        target = Target(name="t")
        assert target.with_(engine="rho").engine == "density_matrix"
        with pytest.raises(PipelineError, match="registered engines"):
            target.with_(engine="nope")

    def test_ibm_qe5_preset_defaults(self):
        assert targets.IBM_QE5.engine == "density_matrix"
        assert targets.IBM_QE5.noise == QE5_NOISE

    def test_other_presets_have_no_engine_default(self):
        assert targets.CLIFFORD_T.engine is None
        assert targets.CLIFFORD_T.noise is None


class TestSimulatePrecedence:
    def test_default_engine_is_statevector(self, paper_pi):
        result = repro.compile(paper_pi, target="clifford_t", cache=None)
        sim = result.simulate(shots=32, seed=1)
        assert type(sim) is SimulationResult

    def test_target_engine_applies(self, paper_pi):
        result = repro.compile(paper_pi, target="ibm_qe5", cache=None)
        sim = result.simulate(shots=32, seed=1)
        assert isinstance(sim, DensityMatrixResult)

    def test_compile_engine_overrides_target(self, paper_pi):
        result = repro.compile(
            paper_pi, target="ibm_qe5", engine="sv", cache=None
        )
        assert result.engine == "statevector"
        sim = result.simulate(shots=32, seed=1)
        assert type(sim) is SimulationResult

    def test_argument_overrides_everything(self, paper_pi):
        result = repro.compile(
            paper_pi, target="ibm_qe5", engine="sv", cache=None
        )
        sim = result.simulate(engine="dm", shots=32, seed=1)
        assert isinstance(sim, DensityMatrixResult)

    def test_target_noise_applied_by_noise_capable_engine(self, paper_pi):
        result = repro.compile(paper_pi, target="ibm_qe5", cache=None)
        noisy = result.simulate(shots=0)
        ideal = result.simulate(shots=0, noise="none")
        best = noisy.most_frequent()
        assert noisy.probability(best) < ideal.probability(best)

    def test_target_noise_silently_skipped_for_noiseless_engine(
        self, paper_pi
    ):
        # engine="sv" on a noisy target must not raise: the target's
        # noise is a soft default, not a demand
        result = repro.compile(
            paper_pi, target="ibm_qe5", engine="sv", cache=None
        )
        sim = result.simulate(shots=16, seed=2)
        assert sum(sim.counts.values()) == 16

    def test_explicit_noise_on_noiseless_engine_still_raises(
        self, paper_pi
    ):
        result = repro.compile(
            paper_pi, target="ibm_qe5", engine="sv", cache=None
        )
        with pytest.raises(repro.engines.EngineError, match="density_matrix"):
            result.simulate(noise="qe5")

    def test_unknown_engine_at_compile_time(self, paper_pi):
        with pytest.raises(PipelineError, match="registered engines"):
            repro.compile(paper_pi, engine="nope", cache=None)

    def test_measureless_circuit_gets_measure_all_copy(self, paper_pi):
        result = repro.compile(paper_pi, target="clifford_t", cache=None)
        assert not result.circuit.has_measurements()
        sim = result.simulate(shots=16, seed=0)
        assert sum(sim.counts.values()) == 16
        # the stored circuit was not mutated
        assert not result.circuit.has_measurements()

    def test_reversible_target_cannot_simulate(self, paper_pi):
        result = repro.compile(paper_pi, target="toffoli", cache=None)
        assert result.circuit is None
        with pytest.raises(PipelineError, match="no quantum circuit"):
            result.simulate()


class TestCLI:
    def test_engines_subcommand_lists_builtins(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "density_matrix" in out
        assert "aka dm/rho" in out

    def test_engines_names_flag(self, capsys):
        assert main(["engines", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert names == [
            "statevector", "stabilizer", "density_matrix", "monte_carlo",
        ]

    def test_compile_simulate_prints_counts_table(self, capsys):
        code = main(
            [
                "compile", "x1 & x2", "--target", "ibm_qe5",
                "--shots", "512", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact=" in out  # density-matrix runs show exact column

    def test_compile_engine_flag(self, capsys):
        code = main(
            [
                "compile", "x1 & x2", "--engine", "sv",
                "--simulate", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exact=" not in out  # statevector has no exact column

    def test_compile_unknown_engine_fails_cleanly(self, capsys):
        code = main(["compile", "x1 & x2", "--engine", "bogus"])
        assert code == 2
        assert "registered engines" in capsys.readouterr().err

    def test_compile_bad_noise_fails_cleanly(self, capsys):
        code = main(
            ["compile", "x1 & x2", "--simulate", "--noise", "chernobyl"]
        )
        assert code == 2
        assert "presets" in capsys.readouterr().err

    def test_compile_negative_shots_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "compile", "hwb=3", "--target", "ibm_qe5",
                    "--engine", "monte_carlo", "--shots", "-5",
                ]
            )
        assert info.value.code == 2
        assert "argument --shots: must be >= 0" in capsys.readouterr().err


class TestShell:
    @pytest.fixture
    def shell(self):
        sh = RevKitShell()
        sh.run("revgen --hwb 3; tbs; rptm")
        return sh

    def test_sim_statevector(self, shell):
        out = shell.execute("sim_statevector --seed 5")
        assert out.startswith("statevector (1024 shots)")
        assert "|000> 1.000" in out

    def test_sim_alias_and_noise_options(self, shell):
        out = shell.execute("sim_dm --noise qe5 --shots 2048 --seed 7")
        assert out.startswith("density_matrix (2048 shots)")

    def test_sim_monte_carlo(self, shell):
        out = shell.execute("sim_monte_carlo --shots 128 --noise qe5 --seed 2")
        assert out.startswith("monte_carlo (128 shots)")

    def test_unknown_engine(self, shell):
        with pytest.raises(ShellError, match="registered engines"):
            shell.execute("sim_bogus")

    def test_unknown_option(self, shell):
        with pytest.raises(ShellError, match="unknown options"):
            shell.execute("sim_dm --frobnicate 1")

    def test_negative_shots_become_shell_error(self, shell):
        with pytest.raises(ShellError, match="shots=-1"):
            shell.execute("sim_monte_carlo --shots=-1")

    def test_backend_refusal_becomes_shell_error(self, shell):
        # the hwb3 mapped circuit carries T gates
        with pytest.raises(ShellError, match="not Clifford"):
            shell.execute("sim_stabilizer")

    def test_needs_quantum_circuit(self):
        sh = RevKitShell()
        with pytest.raises(ShellError, match="no quantum circuit"):
            sh.execute("sim_statevector")
