"""Loading and validation of problem-instance JSON files.

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
"im"}]}); their "modes" field may be omitted inside an instance file, in which
case the instance registry applies.  Unknown fields anywhere are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections.abc import Mapping

from .errors import PhotonCapError, SchemaError, UnitarityViolation
from .measurement import CascadeStage, strategy_from_dict
from .modes import DEFAULT_PHOTON_CAP, ModeRegistry
from .network import CONSTRUCTION_TOL, LinearNetwork, _is_real, identity, network_from_dict
from .poly import CreationPolynomial

_TOP_FIELDS = {
    "modes",
    "system_modes",
    "aux_modes",
    "states",
    "aux",
    "network",
    "networks",
    "strategy",
    "measure",
}
_POLY_FIELDS = {"modes", "terms"}
_TERM_FIELDS = {"exp", "re", "im"}


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


def _check_poly_dict(data, where: str) -> None:
    _require(isinstance(data, Mapping), f"{where} must be an object")
    unknown = set(data) - _POLY_FIELDS
    _require(not unknown, f"{where} has unknown fields {sorted(unknown)}")
    _require("terms" in data, f"{where} needs a 'terms' list")
    _require(isinstance(data["terms"], list), f"{where}.terms must be a list")
    for k, term in enumerate(data["terms"]):
        _require(isinstance(term, Mapping), f"{where}.terms[{k}] must be an object")
        unknown = set(term) - _TERM_FIELDS
        _require(not unknown, f"{where}.terms[{k}] has unknown fields {sorted(unknown)}")
        for key in _TERM_FIELDS:
            _require(key in term, f"{where}.terms[{k}] needs '{key}'")
        _require(
            isinstance(term["exp"], list)
            and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in term["exp"]),
            f"{where}.terms[{k}].exp must be nonnegative integers",
        )
        for key in ("re", "im"):
            _require(_is_real(term[key]), f"{where}.terms[{k}].{key} must be a number")


def _poly_from_dict(data, registry: ModeRegistry, where: str) -> CreationPolynomial:
    """One polynomial of the file: a SchemaError when it is malformed or zero,
    a PhotonCapError when it is over the cap, each starting with ``where``."""
    _check_poly_dict(data, where)
    try:
        poly = CreationPolynomial.from_dict(data, registry)
    except PhotonCapError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from None
    _require(not poly.is_zero(), f"{where} is the zero polynomial")
    return poly


def parse_instance(
    data,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    unitarity_tol: float = CONSTRUCTION_TOL,
) -> Instance:
    """Validate a decoded instance object and build the typed pieces.

    Raises SchemaError on structural problems and on a tolerance that is
    negative or not finite.  A non-unitary matrix surfaces as
    UnitarityViolation from the network constructor, and an occupation over
    the cap as PhotonCapError; both are left to the caller to map onto an
    exit code.
    """
    _require(isinstance(data, Mapping), "instance must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    _require(not unknown, f"instance has unknown fields {sorted(unknown)}")
    _require("modes" in data, "instance needs a 'modes' list")
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

    _require("states" in data, "instance needs a 'states' list")
    _require(
        isinstance(data["states"], list) and data["states"],
        "'states' must be a non-empty list",
    )
    states = [
        _poly_from_dict(raw, registry, f"states[{k}]") for k, raw in enumerate(data["states"])
    ]
    if "aux" in data:
        aux = _poly_from_dict(data["aux"], registry, "aux")
    else:
        aux = CreationPolynomial.constant(registry, 1.0)

    roles = {}
    for field_name, polys in (("system_modes", states), ("aux_modes", [aux])):
        if field_name in data:
            value = data[field_name]
            _require(
                isinstance(value, list) and all(isinstance(m, str) for m in value),
                f"'{field_name}' must be a list of mode labels",
            )
            for label in value:
                _require(label in registry, f"{field_name} entry {label!r} not in modes")
            occupied = set().union(*(p.support() for p in polys))
            uncovered = sorted(occupied - set(value))
            _require(not uncovered, f"'{field_name}' leaves occupied modes {uncovered} out")
            roles[field_name] = set(value)
    if len(roles) == 2:
        clash = roles["system_modes"] & roles["aux_modes"]
        _require(not clash, f"modes {sorted(clash)} declared both system and aux")

    networks: dict[str, LinearNetwork] = {}
    if "network" in data:
        networks["main"] = network_from_dict(data["network"], registry, unitarity_tol)
    if "networks" in data:
        _require(isinstance(data["networks"], Mapping), "'networks' must be an object")
        _require(
            "network" not in data or "main" not in data["networks"],
            "'network' and 'networks.main' both define the main network; keep one",
        )
        for name, raw in data["networks"].items():
            try:
                networks[str(name)] = network_from_dict(raw, registry, unitarity_tol)
            except (SchemaError, UnitarityViolation) as exc:
                exc.args = (f"networks[{name}]: {exc}",)
                raise

    strategy = None
    if "strategy" in data:
        strategy = strategy_from_dict(data["strategy"], registry, unitarity_tol)

    measure = data.get("measure")
    if measure is not None:
        _require(isinstance(measure, str), "'measure' must be a mode label")
        _require(measure in registry, f"measure mode {measure!r} not in modes")

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
