"""Seeded random states, networks, and no-go instances for batch checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .modes import ModeRegistry
from .network import LinearNetwork, random_network
from .poly import CreationPolynomial, Exponents


def homogeneous_exponents(
    registry: ModeRegistry, labels: Sequence[str], degree: int
) -> list[Exponents]:
    """Every exponent tuple of total ``degree`` on ``labels``, sorted, each once."""
    out = []
    for combo in combinations_with_replacement({registry.index(lab) for lab in labels}, degree):
        exps = [0] * registry.size
        for pos in combo:
            exps[pos] += 1
        out.append(tuple(exps))
    return sorted(out)


def _random_coeff(rng: np.random.Generator) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def random_homogeneous_state(
    rng: np.random.Generator,
    registry: ModeRegistry,
    labels: Sequence[str],
    degree: int,
) -> CreationPolynomial:
    """Random homogeneous polynomial of fixed total degree on some modes."""
    terms = {
        exps: _random_coeff(rng)
        for exps in homogeneous_exponents(registry, labels, degree)
    }
    return CreationPolynomial(registry, terms)


def random_aux_state(
    rng: np.random.Generator,
    registry: ModeRegistry,
    labels: Sequence[str],
    max_photons: int,
) -> CreationPolynomial:
    """Random auxiliary polynomial of degree up to ``max_photons``.

    Half the time the state is homogeneous at the top degree, otherwise it
    superposes every photon number up to the cap (including vacuum), so the
    batch exercises both photon-number-definite and indefinite auxiliaries.
    """
    if max_photons == 0:
        return CreationPolynomial.constant(registry, 1.0)
    if rng.random() < 0.5:
        degrees = [max_photons]
    else:
        degrees = list(range(max_photons + 1))
    terms: dict[Exponents, complex] = {}
    for degree in degrees:
        for exps in homogeneous_exponents(registry, labels, degree):  # degree 0: the vacuum
            terms[exps] = _random_coeff(rng)
    return CreationPolynomial(registry, terms)


@dataclass(frozen=True)
class NoGoInstance:
    """One randomized problem: states and aux on disjoint input modes,
    a Haar-random network over everything, and a measured output mode."""

    registry: ModeRegistry
    system_labels: tuple[str, ...]
    aux_labels: tuple[str, ...]
    states: tuple[CreationPolynomial, ...]
    aux: CreationPolynomial
    network: LinearNetwork
    measured: str
    description: str


def random_nogo_instance(
    rng: np.random.Generator,
    max_system_modes: int = 3,
    max_aux_modes: int = 2,
    max_photons: int = 3,
    max_aux_photons: int = 2,
    n_states: int = 2,
    force_aux_photons: bool = False,
) -> NoGoInstance:
    """Draw a random instance within the given size caps."""
    n_sys = int(rng.integers(1, max_system_modes + 1))
    n_aux = int(rng.integers(1, max_aux_modes + 1))
    degree = int(rng.integers(1, max_photons + 1))
    min_aux = 1 if force_aux_photons else 0
    aux_photons = int(rng.integers(min_aux, max_aux_photons + 1))

    system_labels = tuple(f"s{k}" for k in range(n_sys))
    aux_labels = tuple(f"b{k}" for k in range(n_aux))
    registry = ModeRegistry(system_labels + aux_labels)

    states = tuple(
        random_homogeneous_state(rng, registry, system_labels, degree)
        for _ in range(n_states)
    )
    aux = random_aux_state(rng, registry, aux_labels, aux_photons)
    network = random_network(registry, rng)
    measured = registry.labels[int(rng.integers(0, registry.size))]
    description = (
        f"system {n_sys} modes x {degree} photons ({n_states} states), "
        f"aux {n_aux} modes x <= {aux_photons} photons, measure {measured}"
    )
    return NoGoInstance(
        registry=registry,
        system_labels=system_labels,
        aux_labels=aux_labels,
        states=states,
        aux=aux,
        network=network,
        measured=measured,
        description=description,
    )
