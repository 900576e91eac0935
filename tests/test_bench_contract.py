"""The benchmark's call contract, checked on one operation per in-process workload.

perfbench declares, per workload, which public functions an operation
must call and which it must not.  Its traced run checks that contract,
but only after a long run; this test runs one ``verify-suite`` operation
and one ``states-dim120`` block (all three families) under perfbench's
own span tracer, reading ``perfbench/workloads.py`` and
``perfbench/tracer.py`` as they are.
"""

import os
import sys
from pathlib import Path

import pytest

import ptcs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracer
    import workloads

    return workloads, tracer


def traced_calls(wl, tracer_module, inputs):
    """Function name -> call count over the traced operations."""
    tracer = tracer_module.Tracer()
    calls = {}
    tracer.install()
    try:
        for inp in inputs:
            _, profiles = wl.traced_op(inp, tracer)
            for profile in profiles:
                for name, (count, _, _) in profile.by_name.items():
                    calls[name] = calls.get(name, 0) + count
    finally:
        tracer.uninstall()
    return calls


@pytest.mark.parametrize("name, count", [("verify-suite", 1), ("states-dim120", 6)])
def test_workload_call_contract(bench, name, count):
    workloads, tracer_module = bench
    wl = workloads.make(name, PERFBENCH.parent, 601, ptcs, dict(os.environ))
    wl.prepare()
    inputs = [wl.input(i) for i in range(count)]
    if name == "states-dim120":
        assert {inp.family for inp in inputs} == {"kp", "gk", "is"}
    calls = traced_calls(wl, tracer_module, inputs)
    missing = [f for f in wl.must_call if not calls.get(f)]
    forbidden = [f for f in wl.must_not_call if calls.get(f)]
    assert not missing, f"{name} never called {missing}"
    assert not forbidden, f"{name} called {forbidden}"
    # the wrappers are gone again: the package's functions are the originals
    assert not hasattr(ptcs.operators.variance_pair, "__wrapped__")


def test_first_verify_suite_inputs_pass_the_benchmark_check(bench):
    # two integer-s and two float-s draws: an oracle change that fails the
    # benchmark's own check on them would fail benchmark operations
    workloads, _ = bench
    wl = workloads.make("verify-suite", PERFBENCH.parent, 601, ptcs, dict(os.environ))
    wl.prepare()
    inputs = [wl.input(i) for i in range(4)]
    assert sum(float(p.strength_sum).is_integer() for p in inputs) == 2
    for params in inputs:
        outcome = wl.check(params, wl.op(params))
        assert outcome.ok, outcome.why


def test_full_suite_digest_equals_per_name_traced_digest(bench):
    # a traced run calls run_suite once per check name, and run.py fails it
    # when a digest differs from the untraced full call's: work shared between
    # the checks of one call must not change a number
    workloads, tracer_module = bench
    wl = workloads.make("verify-suite", PERFBENCH.parent, 601, ptcs, dict(os.environ))
    wl.prepare()
    inputs = [wl.input(i) for i in range(4)]
    untraced = [wl.digest(wl.op(params)) for params in inputs]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = [wl.digest(wl.traced_op(params, tracer)[0]) for params in inputs]
    finally:
        tracer.uninstall()
    assert traced == untraced
