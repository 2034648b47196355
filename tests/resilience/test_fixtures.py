"""The chaos fixtures themselves: which calls fail, when, and how.

Every chaos test leans on :func:`os_fault` and :func:`pass_fault`; a
fixture that failed the wrong paths, or never failed at all, would
make those tests pass vacuously.  These tests pin the schedule
(``skip``, ``times``, ``heal``), the path filter and the error kind.
"""

import os
import time

import pytest

from repro.pipeline import FlowState, Pipeline
from repro.pipeline import cache as cache_module
from repro.pipeline.passes import Pass

CALLS = ["listdir", "unlink", "replace", "open"]


def make_call(call, directory):
    """Return a zero-argument function making ``call`` on ``directory``.

    Each invocation prepares what the call needs (a file to unlink,
    a file to rename) so it can be repeated.
    """
    os.makedirs(directory, exist_ok=True)
    victim = os.path.join(directory, "victim.json")

    def touch(path):
        with open(path, "w") as stream:
            stream.write("{}")

    def run():
        if call == "listdir":
            return os.listdir(directory)
        if call == "unlink":
            touch(victim)
            return os.unlink(victim)
        if call == "replace":
            source = victim + ".tmp"
            touch(source)
            return os.replace(source, victim)
        with cache_module.open(victim, "w") as stream:
            return stream.write("{}")

    return run


class TestOsFault:
    @pytest.mark.parametrize("call", CALLS)
    def test_calls_on_the_directory_fail_with_the_given_error(
        self, tmp_path, os_fault, call
    ):
        directory = tmp_path / "cache"
        run = make_call(call, directory)
        fault = os_fault(call, directory, error=PermissionError)
        with pytest.raises(PermissionError, match=f"injected {call}"):
            run()
        run()  # times=1: the second call goes through
        assert fault.hits == 2

    @pytest.mark.parametrize("call", CALLS)
    def test_paths_outside_the_directory_are_untouched(
        self, tmp_path, os_fault, call
    ):
        fault = os_fault(call, tmp_path / "cache", times=None)
        run = make_call(call, tmp_path / "elsewhere")
        run()
        run()
        assert fault.hits == 0

    def test_a_sibling_sharing_the_name_prefix_is_outside(
        self, tmp_path, os_fault
    ):
        fault = os_fault("listdir", tmp_path / "cache", times=None)
        os.makedirs(tmp_path / "cache2")
        assert os.listdir(tmp_path / "cache2") == []
        assert fault.hits == 0

    def test_skip_passes_early_hits_then_fails_times_then_sleeps(
        self, tmp_path, os_fault
    ):
        fault = os_fault("listdir", tmp_path, times=2, skip=2)
        outcomes = []
        for _ in range(5):
            try:
                os.listdir(tmp_path)
                outcomes.append("ok")
            except OSError:
                outcomes.append("fail")
        assert outcomes == ["ok", "ok", "fail", "fail", "ok"]
        assert fault.hits == 5

    def test_times_none_fails_every_hit_until_healed(
        self, tmp_path, os_fault
    ):
        fault = os_fault("listdir", tmp_path, times=None)
        for _ in range(4):
            with pytest.raises(OSError):
                os.listdir(tmp_path)
        fault.heal()
        assert os.listdir(tmp_path) == []
        assert fault.hits == 5

    def test_times_zero_only_counts(self, tmp_path, os_fault):
        fault = os_fault("listdir", tmp_path, times=0)
        for _ in range(3):
            os.listdir(tmp_path)
        assert fault.hits == 3

    def test_replace_fails_when_only_the_destination_is_inside(
        self, tmp_path, os_fault
    ):
        directory = tmp_path / "cache"
        os.makedirs(directory)
        source = tmp_path / "outside.json"
        source.write_text("{}")
        fault = os_fault("replace", directory)
        with pytest.raises(OSError):
            os.replace(source, directory / "entry.json")
        assert source.exists()
        assert fault.hits == 1


class NamedPass(Pass):
    """A pass recording each run under its own name."""

    stage = "transform"
    writes = ("artifacts",)
    cacheable = False

    def __init__(self, name):
        """Name the pass."""
        self.name = name

    def run(self, state):
        """Record one run and pass the store through."""
        result = state.copy()
        result.artifacts[self.name] = result.artifacts.get(self.name, 0) + 1
        return result


class TestPassFault:
    def test_only_the_first_run_of_the_named_pass_fails(self, pass_fault):
        pass_fault(NamedPass, "victim", error=KeyError)
        passes = [NamedPass("bystander"), NamedPass("victim")]
        pipeline = Pipeline(cache=None)
        with pytest.raises(KeyError, match="injected victim failure"):
            pipeline.run(passes, FlowState())
        result = pipeline.run(passes, FlowState())
        assert result.state.artifacts == {"bystander": 1, "victim": 1}

    def test_error_none_only_stalls_the_pass(self, pass_fault):
        pass_fault(NamedPass, "victim", error=None, seconds=0.05)
        started = time.monotonic()
        result = Pipeline(cache=None).run([NamedPass("victim")])
        assert time.monotonic() - started >= 0.05
        assert result.state.artifacts == {"victim": 1}
