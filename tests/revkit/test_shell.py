"""Unit tests for the RevKit command shell."""

import pytest

from repro.revkit import RevKitShell, ShellError


class TestCommandParsing:
    def test_eq5_pipeline_runs(self):
        """The paper's Eq. (5) script must run end to end."""
        shell = RevKitShell()
        outputs = shell.run("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")
        assert len(outputs) == 6
        assert "generated" in outputs[0]
        assert "gates" in outputs[1]
        assert "T:" in outputs[4]
        assert "qubits:" in outputs[5]

    def test_unknown_command(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("frobnicate")

    def test_empty_segments_skipped(self):
        outputs = RevKitShell().run("revgen --hwb 3;; tbs;")
        assert len(outputs) == 2

    def test_log_accumulates(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs")
        assert len(shell.log) == 2


class TestCommands:
    def test_revgen_variants(self):
        for option in (
            "--hwb 3",
            "--random 3 --seed 7",
            "--adder 3 --const 2",
            "--rotate 3",
            "--gray 3",
        ):
            shell = RevKitShell()
            shell.execute(f"revgen {option}")
            assert shell.function is not None

    def test_revgen_without_option_rejected(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("revgen")

    def test_synthesis_requires_function(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("tbs")

    def test_tbs_and_simulate(self):
        shell = RevKitShell()
        shell.run("revgen --random 3 --seed 5; tbs")
        assert "matches specification: True" in shell.execute("simulate")

    def test_dbs_and_simulate(self):
        shell = RevKitShell()
        shell.run("revgen --random 3 --seed 5; dbs")
        assert "matches specification: True" in shell.execute("simulate")

    def test_exact_synthesis_command(self):
        shell = RevKitShell()
        shell.run("revgen --random 3 --seed 1; exs")
        assert "optimal" in shell.log[-1]
        assert "matches specification: True" in shell.execute("simulate")

    def test_esopbs_needs_truth_table(self):
        shell = RevKitShell()
        shell.execute("revgen --hwb 3")
        with pytest.raises(ShellError):
            shell.execute("esopbs")

    def test_esopbs_on_bent_function(self):
        shell = RevKitShell()
        shell.run("revgen --bent 2; esopbs")
        assert shell.reversible is not None
        assert shell.reversible.num_lines == 5

    def test_rptm_requires_reversible(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("rptm")

    def test_tpar_requires_quantum(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs")
        with pytest.raises(ShellError):
            shell.execute("tpar")

    def test_tpar_never_increases_t(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 4; tbs; revsimp; rptm")
        before = shell.quantum.t_count()
        shell.execute("tpar")
        assert shell.quantum.t_count() <= before

    def test_rptm_no_relative_phase_costs_more(self):
        shell_a = RevKitShell()
        shell_a.run("revgen --hwb 4; tbs; rptm")
        shell_b = RevKitShell()
        shell_b.run("revgen --hwb 4; tbs; rptm --no-relative-phase")
        assert shell_a.quantum.t_count() < shell_b.quantum.t_count()

    def test_ps_function_info(self):
        shell = RevKitShell()
        shell.execute("revgen --hwb 3")
        assert "permutation on 3 bits" in shell.execute("ps")

    def test_ps_circuit_reversible_stats(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs")
        assert "quantum-cost" in shell.execute("ps -c")

    def test_backends_command_is_gone(self):
        # the array-backend registry it listed is gone
        with pytest.raises(ShellError, match="unknown command 'backends'"):
            RevKitShell().execute("backends")
        assert not hasattr(RevKitShell, "backends")

    def test_ps_empty_store_rejected(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("ps")

    def test_write_qasm(self, tmp_path):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        path = tmp_path / "out.qasm"
        output = shell.execute(f"write_qasm {path}")
        text = path.read_text()
        assert text.startswith("OPENQASM 2.0;")
        assert output == (
            f"wrote {len(text.splitlines())} lines to {path}"
        )

    @pytest.mark.parametrize(
        "command, marker",
        [
            ("write_qasm2", "OPENQASM 2.0;"),
            ("write_qsharp", "operation CompiledOperation"),
            ("write_projectq", "MainEngine()"),
        ],
    )
    def test_write_every_registered_format(self, tmp_path, command, marker):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        path = tmp_path / "out.txt"
        shell.execute(f"{command} {path}")
        assert marker in path.read_text()

    def test_write_unknown_format_lists_registered(self, tmp_path):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        with pytest.raises(ShellError, match="unknown emission format"):
            shell.execute(f"write_verilog {tmp_path / 'x'}")

    def test_write_python_method(self, tmp_path):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        path = tmp_path / "out.qs"
        shell.write("qs", str(path))
        assert "operation CompiledOperation" in path.read_text()

    def test_python_api_mirror(self):
        shell = RevKitShell()
        shell.revgen(hwb=3)
        shell.tbs(bidirectional=True)
        shell.revsimp()
        shell.rptm()
        shell.tpar()
        result = shell.ps(circuit=True)
        assert "T:" in result

    def test_cancel_command(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        before = len(shell.quantum)
        shell.execute("cancel")
        assert len(shell.quantum) <= before


class TestTemplateCommand:
    def test_templ_in_pipeline(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 4; tbs; revsimp; templ")
        assert "matches specification: True" in shell.execute("simulate")

    def test_templ_never_grows(self):
        shell = RevKitShell()
        shell.run("revgen --random 4 --seed 3; tbs")
        before = len(shell.reversible)
        shell.execute("templ")
        assert len(shell.reversible) <= before

    def test_templ_requires_circuit(self):
        with pytest.raises(ShellError):
            RevKitShell().execute("templ")


class TestVerifyCommand:
    def test_verify_after_pipeline(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 4; tbs; revsimp; rptm; tpar")
        assert shell.execute("verify") == "equivalent: True"

    def test_verify_detects_corruption(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs; rptm")
        # corrupt an editable copy of the (frozen) mapped circuit
        shell.quantum = shell.quantum.copy().x(0)
        assert "False" in shell.execute("verify")

    def test_verify_requires_both_stores(self):
        shell = RevKitShell()
        shell.run("revgen --hwb 3; tbs")
        with pytest.raises(ShellError):
            shell.execute("verify")

    def test_verify_after_dbs(self):
        shell = RevKitShell()
        shell.run("revgen --random 3 --seed 9; dbs; templ; rptm; cancel")
        assert shell.execute("verify") == "equivalent: True"
