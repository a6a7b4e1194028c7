"""Every benchmark workload runs on the package as it stands: one pass
untraced and one traced with every layer's entry points wrapped, each
without a failed check, with the same output digest, and with the traced
pass's cross-layer counts in agreement."""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")
SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_alike_traced_and_untraced(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    wl.generate(str(tmp_path))
    plain = wl.run_pass(wl.load(str(tmp_path), SEED), SEED)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.begin("traced")
        traced = wl.run_pass(wl.load(str(tmp_path), SEED), SEED)
    finally:
        tracer.unwrap_all()

    assert plain.failures == [] and traced.failures == []
    assert traced.digest == plain.digest
    assert tracing.reconcile(tracer.spans, ["traced"]) == []
