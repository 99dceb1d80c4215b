"""The benchmark in perfbench/ patches package names by getattr; they must resolve.

perfbench/workloads.py wraps functions at the binding each caller uses
(install_trace_points) and hooks a speed sampler into long workloads
(speed_hooks).  perfbench/oracles.py checks each workload's output with
package functions such as ryser_permanent, double_cover and
DiGraph.relabel.  A refactor that drops or renames one of those names
would break the benchmark without failing any other test.
"""

import contextlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "oracles", "speed", "tracer", "check_oracles"):
        monkeypatch.delitem(sys.modules, name, raising=False)


@pytest.fixture
def workloads(perfbench_path):
    import workloads

    return workloads


def _recording_patched(workloads, monkeypatch):
    """Replace workloads.patched by a wrapper recording each (module, attr)."""
    seen = []
    real = workloads.patched

    def recording(module, attr, replacement):
        seen.append((module, attr, getattr(module, attr)))
        return real(module, attr, replacement)

    monkeypatch.setattr(workloads, "patched", recording)
    return seen


def _assert_restored(seen):
    for module, attr, original in seen:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_trace_points_resolve_and_are_restored(workloads, monkeypatch):
    seen = _recording_patched(workloads, monkeypatch)
    observed = {"certified": [], "fingerprints": {}}
    with contextlib.ExitStack() as stack:
        workloads.install_trace_points(workloads.Tracer(), stack, observed)
        assert seen
        for module, attr, original in seen:
            assert callable(original), f"{module.__name__}.{attr}"
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    _assert_restored(seen)


def test_speed_hooks_resolve_and_are_restored(workloads):
    sampler = workloads.SpeedSampler()
    hooks = [(module, attr) for cls in workloads.WORKLOADS.values()
             for module, attr in getattr(cls, "speed_hooks", ())]
    # Search84.measure patches these two through an IterationClock instead
    search = workloads.search
    clock_points = [(search, "swap_move"), (search, "random_regular_digraph")]
    assert hooks
    originals = [(module, attr, getattr(module, attr)) for module, attr in hooks + clock_points]
    with contextlib.ExitStack() as stack:
        for module, attr, original in originals:
            assert callable(original), f"{module.__name__}.{attr}"
            stack.enter_context(workloads.patched(module, attr, sampler.hooked(original)))
            assert getattr(module, attr) is not original
    _assert_restored(originals)


def test_every_workload_oracle_fires_exactly_on_tampered_output(perfbench_path):
    import check_oracles

    outcomes = list(check_oracles.cases())
    # untouched outputs that must pass and tampered ones that must fire
    assert {should_fire for _, _, should_fire in outcomes} == {False, True}
    assert [label for label, problems, should_fire in outcomes
            if bool(problems) != should_fire] == []
