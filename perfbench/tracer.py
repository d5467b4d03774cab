"""Per-layer timing of fockcascade from outside the package.

``Tracer.install`` rebinds the package's public functions and a few class
methods to timing wrappers, in this process only; ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Each wrapped call is a span: name, start, end, parent span and item id.  A
layer's self time is its spans' time minus the time covered by their child
spans.  Polynomial arithmetic is called hundreds of thousands of times per
item, so its calls are aggregated (counts and times) without a span record
each; every other span is kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import fockcascade as fc
from fockcascade import discriminate, fockdense, measurement, network, nogo, poly, sampling, suites
from fockcascade import cli, instancefile

# Declared per-layer metrics: name -> unit.  "count", "share" and "ops" are
# work measures that must repeat exactly for a fixed seed; "s" are times.
METRICS = {
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.mul.pair_products": "count",
    "poly.mul.terms_out": "count",
    "poly.add.calls": "count",
    "poly.add.self_s": "s",
    "poly.add.terms_copied": "count",
    "poly.init.calls": "count",
    "poly.init.self_s": "s",
    "poly.init.terms_in": "count",
    "poly.init.dropped_share": "share",
    "poly.vip.calls": "count",
    "poly.vip.self_s": "s",
    "network.substitute.calls": "count",
    "network.substitute.self_s": "s",
    "network.substitute.total_s": "s",
    "network.substitute.terms_in": "count",
    "network.substitute.terms_out": "count",
    "network.unitary.calls": "count",
    "network.unitary.self_s": "s",
    "measurement.expand.calls": "count",
    "measurement.expand.self_s": "s",
    "measurement.expand.repeat_share": "share",
    "measurement.condition.calls": "count",
    "measurement.condition.self_s": "s",
    "measurement.cascade.calls": "count",
    "measurement.cascade.self_s": "s",
    "nogo.verify.calls": "count",
    "nogo.verify.self_s": "s",
    "nogo.tables.calls": "count",
    "nogo.tables.self_s": "s",
    "nogo.tables.entries": "count",
    "discriminate.instance.self_s": "s",
    "discriminate.stage.self_s": "s",
    "discriminate.cascade.self_s": "s",
    "fockdense.basis.calls": "count",
    "fockdense.basis.self_s": "s",
    "fockdense.basis.dim_sum": "count",
    "fockdense.unitary.calls": "count",
    "fockdense.unitary.self_s": "s",
    "fockdense.unitary.dim_cubed_sum": "ops",
    "fockdense.project.calls": "count",
    "fockdense.project.self_s": "s",
    "fockdense.embed.self_s": "s",
    "sampling.self_s": "s",
    "suites.self_s": "s",
    "instancefile.load.calls": "count",
    "instancefile.load.self_s": "s",
    "cli.self_s": "s",
}

# Layers whose calls are aggregated only, never recorded as single spans.
_AGGREGATED = {"poly.mul", "poly.add", "poly.init", "poly.vip"}


class _Layer:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Span recorder for one pass over a fixed item set."""

    def __init__(self):
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.work: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.item = None
        # Per item: the first FockBasis (modes, cap) and the first substituted
        # state's term count, which identify the class an oracle item drew.
        self.first_basis: dict[int, tuple[int, int]] = {}
        self.first_substituted: dict[int, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._expanded: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- item bookkeeping ---------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self._expanded = set()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn, before=None, after=None):
        keep_span = layer not in _AGGREGATED
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            if before:
                before(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats = self.layers[layer]
                stats.calls += 1
                stats.self_s += duration - frame[0]
                stats.total_s += duration
                if keep_span:
                    self.spans.append(
                        (span_id, parent[1] if parent else None, layer, start, end, self.item)
                    )
            if after:
                after(result, *args, **kwargs)
            if parent is not None:
                # The parent's self time excludes this call and the tracer's
                # own bookkeeping around it.
                parent[0] += perf_counter() - entered
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every package module that
        binds it (``substitute`` alone is bound in seven)."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fockcascade" or name.startswith("fockcascade.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, layer: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(layer, original, before, after))

    def _patch_function(self, module, attr: str, layer: str, before=None, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._wrap(layer, original, before, after))

    # -- counting hooks -----------------------------------------------------

    def _mul_after(self, result, left, right):
        if isinstance(right, fc.CreationPolynomial):
            self.work["poly.mul.pair_products"] += len(left) * len(right)
            self.work["poly.mul.terms_out"] += len(result)

    def _add_after(self, result, left, right):
        self.work["poly.add.terms_copied"] += len(left)

    def _init_after(self, result, obj, registry, terms=None):
        given = len(terms) if terms else 0
        self.work["poly.init.terms_in"] += given
        self.work["poly.init.dropped"] += given - len(obj)

    def _substitute_after(self, result, state, net):
        self.work["network.substitute.terms_in"] += len(state)
        self.first_substituted.setdefault(self.item, len(state))
        self.work["network.substitute.terms_out"] += len(result)

    def _expand_before(self, p, measured):
        key = (p.registry, measured, frozenset(p.items()))
        if key in self._expanded:
            self.work["measurement.expand.repeats"] += 1
        else:
            self._expanded.add(key)

    def _tables_after(self, result, *args, **kwargs):
        self.work["nogo.tables.entries"] += len(result.coeff)

    def _basis_after(self, result, obj, mode_count, photon_cap):
        self.work["fockdense.basis.dim_sum"] += obj.dimension
        self.first_basis.setdefault(self.item, (mode_count, photon_cap))

    def _unitary_after(self, result, mode_unitary, basis):
        self.work["fockdense.unitary.dim_cubed_sum"] += basis.dimension ** 3

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        cp = fc.CreationPolynomial
        self._patch_method(cp, "__init__", "poly.init", after=self._init_after)
        self._patch_method(cp, "__mul__", "poly.mul", after=self._mul_after)
        self._patch_method(cp, "__add__", "poly.add", after=self._add_after)
        self._patch_method(network.LinearNetwork, "__init__", "network.unitary")
        self._patch_method(fockdense.FockBasis, "__init__", "fockdense.basis", after=self._basis_after)
        self._patch_method(discriminate.DiscriminationInstance, "__post_init__", "discriminate.instance")

        self._patch_function(poly, "vacuum_inner_product", "poly.vip")
        self._patch_function(network, "substitute", "network.substitute", after=self._substitute_after)
        self._patch_function(measurement, "expand_by_mode", "measurement.expand", before=self._expand_before)
        self._patch_function(measurement, "condition", "measurement.condition")
        self._patch_function(measurement, "run_cascade", "measurement.cascade")
        self._patch_function(nogo, "verify_no_go", "nogo.verify")
        self._patch_function(nogo, "aux_transfer_tables", "nogo.tables", after=self._tables_after)
        self._patch_function(discriminate, "stage_orthogonality", "discriminate.stage")
        self._patch_function(discriminate, "cascade_discrimination", "discriminate.cascade")
        self._patch_function(fockdense, "fock_unitary", "fockdense.unitary", after=self._unitary_after)
        self._patch_function(fockdense, "project_outcome_dense", "fockdense.project")
        self._patch_function(fockdense, "embed", "fockdense.embed")
        for attr, value in list(vars(sampling).items()):
            if inspect.isfunction(value) and value.__module__ == sampling.__name__:
                self._patch_function(sampling, attr, "sampling")
        self._patch_function(suites, "run_nogo_suite", "suites")
        self._patch_function(suites, "run_oracle_suite", "suites")
        self._patch_function(instancefile, "load_instance", "instancefile.load")
        self._patch_function(cli, "main", "cli")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Declared per-layer metrics this pass reached.  A layer that was
        never called is left out, so that it reads as absent, not as zero."""
        out: dict[str, float] = {}
        for name in METRICS:
            layer, _, quantity = name.rpartition(".")
            stats = self.layers.get(layer)
            if stats is None:
                continue
            if quantity == "calls":
                out[name] = stats.calls
            elif quantity == "self_s":
                out[name] = stats.self_s
            elif quantity == "total_s":
                out[name] = stats.total_s
            elif name == "poly.init.dropped_share":
                given = self.work["poly.init.terms_in"]
                out[name] = self.work["poly.init.dropped"] / given if given else 0.0
            elif name == "measurement.expand.repeat_share":
                out[name] = self.work["measurement.expand.repeats"] / stats.calls
            else:
                out[name] = self.work[name]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, item in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "item": item}
                    )
                    + "\n"
                )
