"""The benchmark tracer (perfbench/tracer.py) rebinds package functions and
methods by name.  Installing it here makes a rename or deletion of any of
them fail the test suite, not only a traced benchmark run."""

import pathlib

from fockcascade import measurement, network

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = (network.substitute, measurement.condition, measurement.expand_by_mode)
    bench = tracer.Tracer()
    bench.install()
    try:
        wrapped = (network.substitute, measurement.condition, measurement.expand_by_mode)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        bench.uninstall()
    assert (network.substitute, measurement.condition, measurement.expand_by_mode) == originals
