"""Unit tests for the repro.emit format table."""

import importlib

import pytest

from repro import emit
from repro.compiler import Target
from repro.pipeline.state import PipelineError

#: The three built-in formats, in canonical listing order.
EXPECTED_FORMATS = ("qasm2", "qsharp", "projectq")

#: Every declared alias and the format it names.
ALIASES = {
    "qasm": "qasm2",
    "openqasm2": "qasm2",
    "qs": "qsharp",
    "q#": "qsharp",
}


class TestFormats:
    def test_builtin_formats_registered(self):
        assert emit.formats() == EXPECTED_FORMATS

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_every_alias_resolves_case_insensitively(self, alias):
        backend = emit.get(ALIASES[alias])
        assert emit.get(alias) is backend
        assert emit.get(alias.upper()) is backend
        assert alias in backend.aliases

    @pytest.mark.parametrize("name", EXPECTED_FORMATS)
    def test_get_returns_the_module_backend_instance(self, name):
        # perfbench's tracer patches type(emit.get(name)).emit, so the
        # table must hand out each backend module's own EMITTER
        module = importlib.import_module(f"repro.emit.{name}")
        assert emit.get(name) is module.EMITTER
        assert emit.get(name.upper()) is module.EMITTER

    def test_get_passes_emitter_instances_through(self):
        emitter = emit.get("qsharp")
        assert emit.get(emitter) is emitter

    def test_unknown_format_lists_registered(self):
        with pytest.raises(emit.EmitterError, match="unknown emission"):
            emit.get("verilog")
        with pytest.raises(emit.EmitterError, match="qasm2 \\(aka qasm"):
            emit.get("verilog")

    def test_protocol_runtime_checkable(self):
        for name in EXPECTED_FORMATS:
            assert isinstance(emit.get(name), emit.Emitter)

    def test_parseable_formats(self):
        parseable = emit.parseable_formats()
        assert parseable == ("qasm2", "qsharp")

    def test_parse_rejects_emit_only_formats(self):
        with pytest.raises(emit.EmitterError, match="no importer"):
            emit.parse("anything", "projectq")


class TestTargetEmitterResolution:
    def test_presets_are_canonical(self):
        from repro.compiler import targets

        assert targets.IBM_QE5.emitter == "qasm2"
        assert targets.QSHARP.emitter == "qsharp"
        assert targets.PROJECTQ.emitter == "projectq"

    def test_alias_canonicalized_at_construction(self):
        assert Target(name="t", emitter="qasm").emitter == "qasm2"
        assert Target(name="t", emitter="QS").emitter == "qsharp"

    def test_unknown_emitter_raises_with_list(self):
        with pytest.raises(PipelineError, match="registered formats"):
            Target(name="t", emitter="verilog")
        with pytest.raises(PipelineError, match="qasm2"):
            Target(name="t", emitter="verilog")

    def test_with_revalidates(self):
        target = Target(name="t")
        assert target.with_(emitter="qasm").emitter == "qasm2"
        with pytest.raises(PipelineError, match="registered formats"):
            target.with_(emitter="verilog")


class TestPathResolution:
    def test_extension_lookup(self):
        assert emit.emitter_for_path("x.qasm").name == "qasm2"
        assert emit.emitter_for_path("x.qs").name == "qsharp"
        assert emit.emitter_for_path("x.py").name == "projectq"

    @pytest.mark.parametrize("name", emit.formats())
    def test_one_extension_per_format(self, name):
        path = "f" + emit.get(name).file_extension
        assert emit.emitter_for_path(path).name == name

    def test_unknown_extension_lists_known(self):
        with pytest.raises(emit.EmitterError, match="known\\s+extensions"):
            emit.emitter_for_path("x.v")
