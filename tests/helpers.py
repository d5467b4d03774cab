"""Shared test utilities: independent brute-force references and generators."""

from __future__ import annotations

import math

import numpy as np

from fockcascade import (
    CreationPolynomial,
    FockBasis,
    ModeRegistry,
    beam_splitter,
    compose,
    from_matrix,
    vacuum_inner_product,
    vacuum_norm_sq,
)
from fockcascade.sampling import homogeneous_exponents, random_aux_state


def bracket_int(powers: list[tuple[str, int]]) -> int:
    """Exact integer vacuum expectation of a single-mode ladder string.

    ``powers`` lists (kind, count) factors left to right, kind 'a' for
    annihilation and 'c' for creation.  The state is tracked as an exact
    integer-weighted combination of number states, using only
    a|n> = n |n-1> on the unnormalized vectors (a^dag)^n |0>:

        a   (a^dag)^n |0> = n (a^dag)^(n-1) |0>
        a^dag (a^dag)^n |0> = (a^dag)^(n+1) |0>

    and <0| (a^dag)^n |0> = [n == 0].  Completely independent of the package
    arithmetic (pure Python ints).
    """
    state: dict[int, int] = {0: 1}
    for kind, count in reversed(powers):
        for _ in range(count):
            new: dict[int, int] = {}
            for n, w in state.items():
                if kind == "c":
                    new[n + 1] = new.get(n + 1, 0) + w
                else:
                    if n > 0:
                        new[n - 1] = new.get(n - 1, 0) + w * n
            state = new
            if not state:
                return 0
    return state.get(0, 0)


def dense_lowering(mode: int, basis: FockBasis) -> np.ndarray:
    """Dense annihilation operator for one mode on a truncated Fock basis."""
    out = np.zeros((basis.dimension, basis.dimension))
    for col, occ in enumerate(basis.states):
        n = occ[mode]
        if n == 0:
            continue
        lowered = list(occ)
        lowered[mode] -= 1
        out[basis.index[tuple(lowered)], col] = math.sqrt(n)
    return out


def dense_annihilation_string(exps: tuple[int, ...], basis: FockBasis) -> np.ndarray:
    """Dense matrix for prod_i a_i^{e_i}."""
    out = np.eye(basis.dimension)
    for mode, e in enumerate(exps):
        low = dense_lowering(mode, basis)
        for _ in range(e):
            out = low @ out
    return out


def structured_nogo_instance(rng: np.random.Generator, family: str):
    """A no-go instance whose states are Fock monomials, so that U' = 0 occurs.

    2-3 system modes and 1-3 photons; 2-3 distinct monomials as the states;
    a ``random_aux_state`` of 1-2 photons on 1-2 aux modes; a random measured
    mode.  The network is a permutation (``family="permutation"``), which
    keeps distinct monomials orthogonal at every outcome, or 1-3 balanced
    splitters on random mode pairs followed by a permutation
    (``family="splitters"``).  Returns (aux, states, network, measured).
    """
    system = tuple(f"s{k}" for k in range(rng.integers(2, 4)))
    aux_modes = tuple(f"b{k}" for k in range(rng.integers(1, 3)))
    reg = ModeRegistry(system + aux_modes)
    monomials = homogeneous_exponents(reg, system, int(rng.integers(1, 4)))
    picks = rng.choice(len(monomials), size=min(len(monomials), int(rng.integers(2, 4))), replace=False)
    states = [CreationPolynomial(reg, {monomials[k]: 1.0}) for k in picks]
    aux = random_aux_state(rng, reg, aux_modes, int(rng.integers(1, 3)))
    net = from_matrix(np.eye(reg.size)[rng.permutation(reg.size)], reg)
    if family == "splitters":
        for _ in range(rng.integers(1, 4)):
            i, j = rng.choice(reg.labels, size=2, replace=False)
            net = compose(beam_splitter(math.pi / 4, 0.0, str(i), str(j), reg), net)
    elif family != "permutation":
        raise ValueError(f"unknown family {family!r}")
    return aux, states, net, reg.labels[int(rng.integers(reg.size))]


def random_poly(
    rng: np.random.Generator,
    registry: ModeRegistry,
    max_degree: int,
    homogeneous: bool = False,
) -> CreationPolynomial:
    """Random polynomial with standard-normal complex coefficients."""
    degrees = [max_degree] if homogeneous else range(max_degree + 1)
    terms = {}
    for degree in degrees:
        if degree == 0:
            terms[(0,) * registry.size] = complex(
                rng.standard_normal(), rng.standard_normal()
            )
            continue
        for exps in homogeneous_exponents(registry, registry.labels, degree):
            terms[exps] = complex(rng.standard_normal(), rng.standard_normal())
    return CreationPolynomial(registry, terms)


def orthogonal_states(
    rng: np.random.Generator,
    registry: ModeRegistry,
    labels: tuple[str, ...],
    degree: int,
    count: int,
) -> list[CreationPolynomial]:
    """Random homogeneous states made mutually orthogonal by Gram-Schmidt."""
    from fockcascade.sampling import random_homogeneous_state

    states: list[CreationPolynomial] = []
    attempts = 0
    while len(states) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("could not build an orthogonal set")
        cand = random_homogeneous_state(rng, registry, labels, degree)
        for prev in states:
            cand = cand - (
                vacuum_inner_product(prev, cand) / vacuum_norm_sq(prev)
            ) * prev
        if vacuum_norm_sq(cand) > 1e-6:
            states.append(cand.scale(1.0 / math.sqrt(vacuum_norm_sq(cand))))
    return states


def cap_below_the_product():
    """Modes a, b, d, c with cap 2, states a^2 - b^2 and (a - b)^2, aux d.

    Row c is (r, r, ., .) with r^2 = 1/3; a and b go to outputs a and b as
    (p, q) and (-p, q) with p^2 = 1/2, q^2 = 1/6, and d has no output-a part.
    On every physical output the product stays within the cap, but row 0 of
    the QR rows carries the states' e0^2 and the aux's e0 together.
    """
    r, p, q = math.sqrt(1 / 3), math.sqrt(1 / 2), math.sqrt(1 / 6)
    w = np.array([0, math.sqrt(2) * r, 0, -math.sqrt(2) * q])
    z = np.array([0, 0, 1.0, 0])
    theta = 0.6
    columns = [
        np.array([p, q, 0, r]),
        np.array([-p, q, 0, r]),
        math.cos(theta) * w + math.sin(theta) * z,
        -math.sin(theta) * w + math.cos(theta) * z,
    ]
    reg = ModeRegistry(("a", "b", "d", "c"), photon_cap=2)
    a, b, d = (CreationPolynomial.mode(reg, label, 1) for label in "abd")
    net = from_matrix(np.column_stack(columns), reg)
    return d, [a * a - b * b, (a - b) * (a - b)], net, "c"


def bell_instance() -> dict:
    """Instance file of the four polarization Bell states of photons a and b.

    Modes aH, aV, bH, bV.  The strategy mixes aH with bH and aV with bV on
    50:50 splitters, then measures all four modes in that order with a
    branch for every photon count that can remain, and labels each leaf by
    its outcome history.  There is no auxiliary state (it is the constant 1).
    """
    modes = ["aH", "aV", "bH", "bV"]
    r = 1.0 / math.sqrt(2.0)

    def pair(first, second, sign):
        return {"terms": [{"exp": first, "re": r, "im": 0.0},
                          {"exp": second, "re": sign * r, "im": 0.0}]}

    def stage(rest, remaining, history=()):
        branches = {}
        for n in range(remaining + 1):
            path = history + (n,)
            branches[str(n)] = (
                stage(rest[1:], remaining - n, path) if len(rest) > 1
                else "h" + "-".join(map(str, path))
            )
        return {"measure": rest[0], "branches": branches}

    strategy = stage(modes, 2)
    strategy["network"] = {"elements": [
        {"bs": {"theta": math.pi / 4, "phi": 0.0, "i": "aH", "j": "bH"}},
        {"bs": {"theta": math.pi / 4, "phi": 0.0, "i": "aV", "j": "bV"}},
    ]}
    return {
        "modes": modes,
        "states": [
            pair([1, 0, 1, 0], [0, 1, 0, 1], 1.0),   # Phi+
            pair([1, 0, 1, 0], [0, 1, 0, 1], -1.0),  # Phi-
            pair([1, 0, 0, 1], [0, 1, 1, 0], 1.0),   # Psi+
            pair([1, 0, 0, 1], [0, 1, 1, 0], -1.0),  # Psi-
        ],
        "strategy": strategy,
    }


def lift_generator_loop(h: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Reference for ``fockdense._lift_generator``: the second-quantized
    generator sum_ij h[i,j] a^dag_i a_j, built one state, mode and hop at a
    time from the ladder-operator matrix elements."""
    dim = basis.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        for j, nj in enumerate(occ):
            if nj == 0:
                continue
            for i in range(basis.mode_count):
                hij = h[i, j]
                if hij == 0:
                    continue
                if i == j:
                    out[col, col] += hij * nj
                else:
                    moved = list(occ)
                    moved[j] -= 1
                    moved[i] += 1
                    row = basis.index[tuple(moved)]
                    out[row, col] += hij * math.sqrt(nj * (occ[i] + 1))
    return out
