"""The ``python -m repro`` command-line front door."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.pipeline import PassCache


@pytest.fixture
def run_cli(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestCompileCommand:
    def test_eq5_story_from_the_shell(self, run_cli):
        code, out, _err = run_cli(
            "compile", "hwb=4", "--target", "clifford_t",
            "--stats", "--report",
        )
        assert code == 0
        assert "revgen-hwb" in out
        assert "tpar" in out
        assert "T:" in out  # the ps -c statistics block

    def test_expression_workload(self, run_cli):
        code, out, _err = run_cli("compile", "(a and b) ^ (c and d)")
        assert code == 0
        assert "t_count=" in out

    def test_emit_qasm_on_stdout(self, run_cli):
        code, out, _err = run_cli(
            "compile", "perm:0,2,3,5,7,1,4,6",
            "--target", "ibm_qe5", "--emit", "qasm",
        )
        assert code == 0
        assert out.startswith("OPENQASM 2.0;")

    def test_emit_qsharp(self, run_cli):
        code, out, _err = run_cli(
            "compile", "perm:0,2,3,5,7,1,4,6",
            "--target", "qsharp", "--emit", "qsharp",
        )
        assert code == 0
        assert "operation CompiledOperation" in out

    def test_truth_table_spec(self, run_cli):
        code, out, _err = run_cli(
            "compile", "tt:3:e8", "--target", "toffoli", "--stats"
        )
        assert code == 0
        assert "mct_gates" in out

    def test_qasm_file_workload(self, run_cli, tmp_path):
        from repro.core.circuit import QuantumCircuit

        path = tmp_path / "circuit.qasm"
        path.write_text(QuantumCircuit(2).h(0).cx(0, 1).to_qasm())
        code, out, _err = run_cli(
            "compile", str(path), "--target", "projectq"
        )
        assert code == 0
        assert "workload=qasm(circuit.qasm)" in out

    def test_json_file_workload(self, run_cli, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"hwb": 3}))
        code, out, _err = run_cli("compile", str(path))
        assert code == 0
        assert "revgen(hwb=3)" in out

    def test_cache_dir_persists(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, out, _err = run_cli(
            "compile", "hwb=3", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "cached=0" in out
        code, out, _err = run_cli(
            "compile", "hwb=3", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "cached=0" not in out

    def test_verify_flag(self, run_cli):
        code, _out, _err = run_cli("compile", "hwb=3", "--verify")
        assert code == 0

    def test_bad_workload_exits_nonzero(self, run_cli):
        code, _out, err = run_cli("compile", "definitely: not valid!")
        assert code == 2
        assert "supported workload shapes" in err

    @pytest.mark.parametrize(
        "workload", ["perm:0,1,1", "perm:0,x", "tt:4:zz"]
    )
    def test_malformed_workload_spec_exits_cleanly(self, run_cli, workload):
        code, _out, err = run_cli("compile", workload)
        assert code == 2
        assert err.startswith("error:")

    def test_corrupt_json_file_exits_cleanly(self, run_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _out, err = run_cli("compile", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_emission_error_exits_cleanly(self, run_cli):
        # a reversible-level target has no quantum circuit to emit
        code, _out, err = run_cli(
            "compile", "hwb=3", "--target", "toffoli", "--emit", "qasm"
        )
        assert code == 2
        assert "error: cannot emit qasm" in err


class TestCacheCommand:
    def _warm(self, run_cli, cache_dir):
        code, _out, _err = run_cli(
            "compile", "hwb=3", "--cache-dir", cache_dir
        )
        assert code == 0

    def test_stats_json(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "tier")
        self._warm(run_cli, cache_dir)
        code, out, _err = run_cli(
            "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == cache_dir
        assert payload["entries"] > 0
        assert payload["bytes"] > 0

    def test_stats_text(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "tier")
        self._warm(run_cli, cache_dir)
        code, out, _err = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries" in out and "bytes" in out

    def test_gc_enforces_budget(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "tier")
        self._warm(run_cli, cache_dir)
        code, out, _err = run_cli(
            "cache", "gc", "--cache-dir", cache_dir,
            "--max-entries", "1", "--json",
        )
        assert code == 0
        swept = json.loads(out)
        assert swept["evicted"] > 0
        assert swept["entries"] <= 1
        # the surviving tier still works
        code, out, _err = run_cli(
            "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        assert json.loads(out)["entries"] <= 1

    def test_gc_drops_corrupt_entries(self, run_cli, tmp_path):
        cache_dir = tmp_path / "tier"
        self._warm(run_cli, str(cache_dir))
        entries = sorted(cache_dir.glob("*.json"))
        entries[0].write_text("{torn write")
        code, out, _err = run_cli(
            "cache", "gc", "--cache-dir", str(cache_dir), "--json"
        )
        assert code == 0
        assert json.loads(out)["evicted"] == 1

    def test_clear_empties_the_tier(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "tier")
        self._warm(run_cli, cache_dir)
        code, out, _err = run_cli(
            "cache", "clear", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        assert json.loads(out)["cleared"] > 0
        code, out, _err = run_cli(
            "cache", "stats", "--cache-dir", cache_dir, "--json"
        )
        assert code == 0
        assert json.loads(out)["entries"] == 0

    @pytest.mark.parametrize(
        "flag, budget", [("--max-entries", -1), ("--max-bytes", -5)]
    )
    def test_negative_budget_is_refused(
        self, run_cli, capsys, tmp_path, flag, budget
    ):
        cache_dir = tmp_path / "tier"
        self._warm(run_cli, str(cache_dir))
        entries = sorted(cache_dir.glob("*.json"))
        with pytest.raises(SystemExit) as info:
            run_cli(
                "cache", "gc", "--cache-dir", str(cache_dir),
                flag, str(budget),
            )
        assert info.value.code == 2
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err
        keyword = flag[2:].replace("-", "_")
        with pytest.raises(ValueError, match=f"{keyword} must be >= 0"):
            PassCache(path=str(cache_dir)).gc(**{keyword: budget})
        assert sorted(cache_dir.glob("*.json")) == entries  # none evicted

    def test_missing_directory_exits_nonzero(self, run_cli, tmp_path):
        for action in ("stats", "gc", "clear"):
            code, _out, err = run_cli(
                "cache", action, "--cache-dir", str(tmp_path / "nope")
            )
            assert code == 2
            assert "does not exist" in err

    def test_compile_after_gc_recompiles_evicted_passes(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "tier")
        self._warm(run_cli, cache_dir)
        code, _out, _err = run_cli(
            "cache", "gc", "--cache-dir", cache_dir, "--max-entries", "0"
        )
        assert code == 0
        code, out, _err = run_cli(
            "compile", "hwb=3", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "cached=0" in out  # everything was evicted, so cold


class TestTargetsCommand:
    def test_lists_presets(self, run_cli):
        code, out, _err = run_cli("targets")
        assert code == 0
        for name in ("toffoli", "clifford_t", "ibm_qe5", "qsharp"):
            assert name in out

    def test_shows_canonical_emitters(self, run_cli):
        code, out, _err = run_cli("targets")
        assert code == 0
        assert "emit=qasm2" in out
        assert "emit=projectq" in out


class TestFormatsCommand:
    def test_lists_registered_formats(self, run_cli):
        from repro import emit

        code, out, _err = run_cli("formats")
        assert code == 0
        for name in emit.formats():
            assert name in out
        assert "aka qasm" in out
        assert "round-trip" in out

    def test_names_mode_is_script_friendly(self, run_cli):
        from repro import emit

        code, out, _err = run_cli("formats", "--names")
        assert code == 0
        assert tuple(out.split()) == emit.formats()


class TestRetiredCommands:
    def test_backends_subcommand_is_a_usage_error(self, capsys):
        # the array-backend registry it listed is gone
        with pytest.raises(SystemExit) as info:
            main(["backends"])
        assert info.value.code == 2
        assert "invalid choice: 'backends'" in capsys.readouterr().err


class TestEmitMatrix:
    @pytest.mark.parametrize(
        "fmt, marker",
        [
            ("qasm2", "OPENQASM 2.0;"),
            ("qsharp", "operation CompiledOperation"),
            ("projectq", "MainEngine()"),
        ],
    )
    def test_every_builtin_format_emits(self, run_cli, fmt, marker):
        code, out, _err = run_cli(
            "compile", "perm:0,2,3,5,7,1,4,6",
            "--target", "ibm_qe5", "--emit", fmt,
        )
        assert code == 0
        assert marker in out

    def test_unknown_emit_format_exits_with_listing(self, run_cli):
        code, _out, err = run_cli(
            "compile", "hwb=3", "--emit", "verilog"
        )
        assert code == 2
        assert "unknown emission format" in err
        assert "qasm2" in err

    def test_emitted_qasm_parses_back(self, run_cli, tmp_path):
        code, out, _err = run_cli(
            "compile", "perm:0,2,3,5,7,1,4,6",
            "--target", "ibm_qe5", "--emit", "qasm2",
        )
        assert code == 0
        path = tmp_path / "roundtrip.qasm"
        path.write_text(out)
        code, second, _err = run_cli(
            "compile", str(path), "--target", "ibm_qe5", "--emit", "qasm2"
        )
        assert code == 0


class TestModuleInvocation:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "targets"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "clifford_t" in proc.stdout
