"""The reader of problem-instance JSON files, the only reader of the format.

An instance file declares the mode registry, the candidate system states, an
optional auxiliary state, and whatever networks or strategy the command needs:

    {
      "modes": ["s0", "s1", "b0"],
      "system_modes": ["s0", "s1"],          (optional; covers the states)
      "aux_modes": ["b0"],                   (optional; covers the aux)
      "states": [ {"terms": [...]}, ... ],
      "aux": {"terms": [...]},               (optional, default constant 1)
      "network": {...},                      (optional)
      "networks": {"name": {...}, ...},      (optional)
      "strategy": {...},                     (optional)
      "measure": "s0"                        (optional default measured mode)
    }

Polynomial objects follow the standard serialization ({"terms": [{"exp", "re",
"im"}]}); their "modes" field may be omitted, and must equal the instance's
when given.  A network is ``{"matrix": [[{re, im}, ...], ...]}`` or
``{"elements": [...]}``, each element ``{"bs": {"theta", "phi", "i", "j"}}``
(``phi`` defaults to 0) or ``{"ps": {"phi", "i"}}``, composed left to right.
A strategy stage is ``{"network": ... | null, "measure": ..., "branches":
{"<N>": <stage or leaf label>}}``.  Unknown fields anywhere are rejected, and
every number must be finite as a double.

Each part of the file is read with its location, built as the walk goes down
(``states[0].terms[2]``, ``networks[y].matrix``,
``strategy.branches[0].network.elements[1].bs``), and every error names it.
Messages are formatted only on failure.  A strategy stage's own errors are
StrategyError, all others SchemaError; an error raised by a constructor gets
its location in :func:`_built`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import PhotonCapError, SchemaError, StrategyError, UnitarityViolation
from .measurement import Branch, CascadeStage
from .modes import DEFAULT_PHOTON_CAP, ModeRegistry
from .network import CONSTRUCTION_TOL, LinearNetwork, beam_splitter, compose, identity, phase_shifter
from .poly import CreationPolynomial

_TOP_FIELDS = frozenset(
    {"modes", "system_modes", "aux_modes", "states", "aux", "network", "networks", "strategy", "measure"}
)
_POLY_FIELDS = frozenset({"modes", "terms"})
_TERM_FIELDS = frozenset({"exp", "re", "im"})
_ENTRY_FIELDS = frozenset({"re", "im"})
_BS_FIELDS = frozenset({"theta", "phi", "i", "j"})
_PS_FIELDS = frozenset({"phi", "i"})
_STAGE_FIELDS = frozenset({"network", "measure", "branches"})


@dataclass(frozen=True)
class Instance:
    registry: ModeRegistry
    states: tuple[CreationPolynomial, ...]
    aux: CreationPolynomial
    networks: dict[str, LinearNetwork]
    strategy: CascadeStage | None
    measure: str | None

    def network(self, name: str | None = None) -> LinearNetwork:
        """The named network, or the instance's own; the identity only when
        neither a name nor any network is given."""
        if name is None:
            if not self.networks:
                return identity(self.registry)
            if "main" in self.networks:
                return self.networks["main"]
            if len(self.networks) == 1:
                return next(iter(self.networks.values()))
            raise SchemaError(
                "instance declares no unique network; pass a network name "
                f"(available: {sorted(self.networks)})"
            )
        try:
            return self.networks[name]
        except KeyError:
            raise SchemaError(
                f"unknown network {name!r} (available: {sorted(self.networks)})"
            ) from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _fields(data, where: str, allowed, required=(), error=SchemaError, what="fields") -> Mapping:
    """``data``, when it is an object with every ``required`` field and no
    field outside ``allowed``; an unknown field is reported as an unknown
    ``what``."""
    if not isinstance(data, Mapping):
        raise error(f"{where} must be an object")
    unknown = data.keys() - allowed
    if unknown:
        raise error(f"{where}: unknown {what} {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise error(f"{where} needs '{key}'")
    return data


def _one_of(data, where: str, choices: tuple[str, str]) -> str:
    """The one field of ``choices`` that ``data``, an object with no other
    field, holds."""
    _fields(data, where, choices)
    present = [key for key in choices if key in data]
    if len(present) != 1:
        raise SchemaError(f"{where} needs exactly one of {choices[0]!r} or {choices[1]!r}")
    return present[0]


def _number(data: Mapping, key: str, where: str) -> float:
    """Field ``key`` of the object at ``where`` as a float: a JSON number, not
    a boolean, finite as a double.  A missing field reads 0."""
    value = data.get(key, 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise SchemaError(f"{where}.{key} must be a finite number")


def _mode(label, where: str, registry: ModeRegistry, error=SchemaError) -> str:
    if isinstance(label, str) and label in registry:
        return label
    raise error(f"{where} names {label!r}, not one of the modes {registry.labels}")


def _built(where: str, make, *args):
    """``make(*args)``, with ``where`` in front of the message of any error it
    raises.  A ValueError becomes a SchemaError; a UnitarityViolation or
    PhotonCapError keeps its type, and so its exit code."""
    try:
        return make(*args)
    except (UnitarityViolation, PhotonCapError) as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _poly(data, registry: ModeRegistry, where: str) -> CreationPolynomial:
    """One polynomial of the file; a SchemaError when it is malformed or zero."""
    _fields(data, where, _POLY_FIELDS, ("terms",))
    if "modes" in data and data["modes"] != list(registry.labels):
        raise SchemaError(f"{where}.modes must be the instance modes {list(registry.labels)}")
    raw = data["terms"]
    if not isinstance(raw, list):
        raise SchemaError(f"{where}.terms must be a list")
    terms: dict[tuple[int, ...], complex] = {}
    for k, term in enumerate(raw):
        at = f"{where}.terms[{k}]"
        _fields(term, at, _TERM_FIELDS, ("exp", "re", "im"))
        exps = term["exp"]
        if not (
            isinstance(exps, list)
            and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps)
        ):
            raise SchemaError(f"{at}.exp must be nonnegative integers")
        key = tuple(exps)
        coeff = complex(_number(term, "re", at), _number(term, "im", at))
        terms[key] = terms.get(key, 0.0) + coeff
    poly = _built(where, CreationPolynomial, registry, terms)
    if poly.is_zero():
        raise SchemaError(f"{where} is the zero polynomial")
    return poly


def _entry(cell, where: str, r: int, c: int) -> complex:
    """Entry ``[r][c]`` of the matrix of the network at ``where``.  The form a
    file holds, two finite floats, is taken at once; any other goes through
    the checks that report, and only then is the entry's location formatted."""
    if type(cell) is dict and cell.keys() == _ENTRY_FIELDS:
        re, im = cell["re"], cell["im"]
        if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
            return complex(re, im)
    at = f"{where}.matrix[{r}][{c}]"
    _fields(cell, at, _ENTRY_FIELDS, ("re", "im"))
    return complex(_number(cell, "re", at), _number(cell, "im", at))


def _network(data, registry: ModeRegistry, tol: float, where: str) -> LinearNetwork:
    if _one_of(data, where, ("matrix", "elements")) == "matrix":
        rows = data["matrix"]
        if not (
            isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
        ):
            raise SchemaError(f"{where}.matrix must be a square list of rows")
        entries = [
            [_entry(cell, where, r, c) for c, cell in enumerate(row)] for r, row in enumerate(rows)
        ]
        return _built(where, LinearNetwork, entries, registry, tol)
    elements = data["elements"]
    if not isinstance(elements, list):
        raise SchemaError(f"{where}.elements must be a list")
    net = identity(registry)
    for k, element in enumerate(elements):
        kind = _one_of(element, f"{where}.elements[{k}]", ("bs", "ps"))
        at = f"{where}.elements[{k}].{kind}"
        if kind == "bs":
            spec = _fields(element[kind], at, _BS_FIELDS, ("theta", "i", "j"))
            make, args = beam_splitter, (
                _number(spec, "theta", at),
                _number(spec, "phi", at),
                _mode(spec["i"], f"{at}.i", registry),
                _mode(spec["j"], f"{at}.j", registry),
            )
        else:
            spec = _fields(element[kind], at, _PS_FIELDS, ("phi", "i"))
            make, args = phase_shifter, (
                _number(spec, "phi", at),
                _mode(spec["i"], f"{at}.i", registry),
            )
        net = _built(at, lambda: compose(net, make(*args, registry)))
    return net


def network_from_dict(
    data: Mapping, registry: ModeRegistry, tol: float = CONSTRUCTION_TOL
) -> LinearNetwork:
    """A network from its JSON form (see the module docstring); its errors
    are located from ``network``."""
    return _network(data, registry, tol, "network")


def _stage(data, registry: ModeRegistry, tol: float, where: str) -> CascadeStage:
    """One stage of :func:`strategy_from_dict`; ``where`` is its branch path
    from the root."""
    _fields(data, where, _STAGE_FIELDS, ("measure",), StrategyError, "strategy fields")
    measure = _mode(data["measure"], f"{where}.measure", registry, StrategyError)
    net = None
    if data.get("network") is not None:
        net = _network(data["network"], registry, tol, f"{where}.network")
    raw = data.get("branches", {})
    if not isinstance(raw, Mapping):
        raise StrategyError(f"{where}.branches must be an object")
    reduced = registry.without(measure)
    branches: dict[int, Branch] = {}
    for key, value in raw.items():
        # Canonical decimal only: "1" and "01" must not both name outcome 1.
        try:
            n = int(key)
            if n < 0 or str(n) != key:
                raise ValueError(key)
        except (TypeError, ValueError):
            raise StrategyError(f"{where}: branch key {key!r} is not a photon count") from None
        if isinstance(value, str):
            branches[n] = value
        elif isinstance(value, Mapping):
            branches[n] = _stage(value, reduced, tol, f"{where}.branches[{key}]")
        else:
            raise StrategyError(f"{where}.branches[{key}] must be a label or a stage object")
    return CascadeStage(measure=measure, network=net, branches=branches)


def strategy_from_dict(
    data: Mapping, registry: ModeRegistry, tol: float = CONSTRUCTION_TOL
) -> CascadeStage:
    """A cascade strategy from its JSON form (see the module docstring); its
    errors are located from ``strategy``."""
    return _stage(data, registry, tol, "strategy")


def parse_instance(
    data,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    unitarity_tol: float = CONSTRUCTION_TOL,
) -> Instance:
    """Validate a decoded instance object and build the typed pieces.

    Raises SchemaError or StrategyError on structural problems, and
    SchemaError on a tolerance that is negative or not finite.  A non-unitary
    matrix surfaces as UnitarityViolation from the network constructor, and
    an occupation over the cap as PhotonCapError; both are left to the caller
    to map onto an exit code.
    """
    _fields(data, "instance", _TOP_FIELDS, ("modes", "states"))
    _require(
        isinstance(data["modes"], list)
        and data["modes"]
        and all(isinstance(m, str) for m in data["modes"]),
        "'modes' must be a non-empty list of strings",
    )
    try:
        registry = ModeRegistry(tuple(data["modes"]), photon_cap=photon_cap)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    _require(
        math.isfinite(unitarity_tol) and unitarity_tol >= 0,
        f"--tolerance must be a finite number, at least 0, got {unitarity_tol}",
    )

    _require(
        isinstance(data["states"], list) and data["states"],
        "'states' must be a non-empty list",
    )
    states = [_poly(raw, registry, f"states[{k}]") for k, raw in enumerate(data["states"])]
    if "aux" in data:
        aux = _poly(data["aux"], registry, "aux")
    else:
        aux = CreationPolynomial.constant(registry, 1.0)

    roles = {}
    for field_name, polys in (("system_modes", states), ("aux_modes", [aux])):
        if field_name in data:
            value = data[field_name]
            _require(isinstance(value, list), f"'{field_name}' must be a list of mode labels")
            for k, label in enumerate(value):
                _mode(label, f"{field_name}[{k}]", registry)
            occupied = set().union(*(p.support() for p in polys))
            uncovered = sorted(occupied - set(value))
            _require(not uncovered, f"'{field_name}' leaves occupied modes {uncovered} out")
            roles[field_name] = set(value)
    if len(roles) == 2:
        clash = roles["system_modes"] & roles["aux_modes"]
        _require(not clash, f"modes {sorted(clash)} declared both system and aux")

    networks: dict[str, LinearNetwork] = {}
    if "network" in data:
        networks["main"] = _network(data["network"], registry, unitarity_tol, "network")
    if "networks" in data:
        _require(isinstance(data["networks"], Mapping), "'networks' must be an object")
        _require(
            "network" not in data or "main" not in data["networks"],
            "'network' and 'networks.main' both define the main network; keep one",
        )
        for name, raw in data["networks"].items():
            networks[str(name)] = _network(raw, registry, unitarity_tol, f"networks[{name}]")

    strategy = None
    if "strategy" in data:
        strategy = _stage(data["strategy"], registry, unitarity_tol, "strategy")

    measure = data.get("measure")
    if measure is not None:
        _mode(measure, "measure", registry)

    return Instance(
        registry=registry,
        states=tuple(states),
        aux=aux,
        networks=networks,
        strategy=strategy,
        measure=measure,
    )


def load_instance(
    path: str,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    unitarity_tol: float = CONSTRUCTION_TOL,
) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests too deeply to decode") from None
    return parse_instance(data, photon_cap=photon_cap, unitarity_tol=unitarity_tol)
