"""The benchmark tracer (perfbench/tracer.py) rebinds package functions and
methods by name.  Installing it here, and calling through it, makes a rename
or deletion of any of them, or of a result field its counting hooks read,
fail the test suite, not only a traced benchmark run."""

import pathlib

import numpy as np

import fockcascade as fc
from fockcascade import measurement, network

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    inst = fc.random_nogo_instance(np.random.default_rng(5), force_aux_photons=True)
    reg = fc.ModeRegistry(("m1", "m2"))
    disc = fc.DiscriminationInstance(
        states=(fc.CreationPolynomial.mode(reg, "m1"), fc.CreationPolynomial.mode(reg, "m2")),
        aux=fc.CreationPolynomial.constant(reg, 1.0),
        strategy=fc.CascadeStage(measure="m1", branches={0: "second", 1: "first"}),
    )
    originals = (network.substitute, measurement.condition, measurement.expand_by_mode)
    bench = tracer.Tracer()
    bench.install()
    try:
        wrapped = (network.substitute, measurement.condition, measurement.expand_by_mode)
        assert all(w is not o for w, o in zip(wrapped, originals))
        # Called through the package, whose bindings the tracer replaced.
        assert fc.verify_no_go(inst.aux, inst.states, inst.network, inst.measured).passed
        assert fc.run_oracle_suite(count=1).all_passed
        assert fc.cascade_discrimination(disc).verdict
    finally:
        bench.uninstall()
    assert (network.substitute, measurement.condition, measurement.expand_by_mode) == originals
    metrics = bench.metrics()
    assert metrics["nogo.tables.entries"] > 0
    assert metrics["nogo.verify.calls"] == 1
    assert metrics["fockdense.unitary.calls"] > 0
    assert "discriminate.cascade.self_s" in metrics


def test_constant_aux_expands_each_state_once(monkeypatch):
    # With aux = 1 the product state equals sub(psi); the window reads it from
    # the expansion of sub(psi) instead of expanding it a second time.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    inst = fc.random_nogo_instance(np.random.default_rng(6), n_states=3)
    aux = fc.CreationPolynomial.constant(inst.aux.registry, 1.0)
    bench = tracer.Tracer()
    bench.install()
    try:
        assert fc.verify_no_go(aux, inst.states, inst.network, inst.measured).passed
    finally:
        bench.uninstall()
    metrics = bench.metrics()
    assert metrics["measurement.expand.calls"] == len(inst.states) + 1
    assert metrics["measurement.expand.repeat_share"] == 0
