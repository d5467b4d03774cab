"""Dense truncated Fock-space reference simulation.

This module re-implements state evolution and photon-number projection with
dense linear algebra so the polynomial pipeline can be checked against an
independent computational path.  States are vectors over the occupation basis
(all vectors of per-mode photon counts with total at most ``photon_cap``,
enumerated in graded lexicographic order), and a mode unitary U acts through
the matrix exponential of its second-quantized generator:

    U = exp(h)   (h anti-Hermitian)   ->   exp( sum_ij h[i,j] a^dag_i a_j )

built directly from ladder-operator matrix elements.  The generator preserves
total photon number, so the lift is exact on the truncated space, and the
operator is exponentiated one photon-number sector at a time: each sector is
a contiguous block of the graded basis, and every entry between two sectors
is an exact zero.  No polynomial expansion or permanent appears anywhere in
this path.

Intended for small problems only (roughly up to 6 modes and 6 photons).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg

from .poly import CreationPolynomial


class FockBasis:
    """Occupation-number basis with a total-photon cap.

    ``states[k]`` is the k-th occupation tuple in graded lexicographic order;
    ``index[occ]`` inverts the enumeration; ``sectors[n]`` is the slice of
    indices holding the states with n photons in total.  The dimension is
    C(mode_count + photon_cap, mode_count).
    """

    __slots__ = ("mode_count", "photon_cap", "states", "index", "sectors")

    def __init__(self, mode_count: int, photon_cap: int):
        if mode_count < 1 or photon_cap < 0:
            raise ValueError("need at least one mode and a nonnegative cap")
        self.mode_count = mode_count
        self.photon_cap = photon_cap
        states: list[tuple[int, ...]] = []
        sectors = []
        for total in range(photon_cap + 1):
            level = set()
            for combo in combinations_with_replacement(range(mode_count), total):
                occ = [0] * mode_count
                for mode in combo:
                    occ[mode] += 1
                level.add(tuple(occ))
            start = len(states)
            states.extend(sorted(level))
            sectors.append(slice(start, len(states)))
        self.states = tuple(states)
        self.sectors = tuple(sectors)
        self.index = {occ: k for k, occ in enumerate(states)}

    @property
    def dimension(self) -> int:
        return len(self.states)


def embed(p: CreationPolynomial, basis: FockBasis) -> np.ndarray:
    """Amplitudes of ``p|0>`` over the normalized occupation basis.

    A monomial with exponents m contributes ``coeff * sqrt(prod_i m_i!)`` to
    the basis state |m>, since (a^dag)^m |0> = sqrt(m!) |m> per mode.
    """
    if p.registry.size != basis.mode_count:
        raise ValueError("polynomial and basis mode counts differ")
    if p.degree > basis.photon_cap:
        raise ValueError(
            f"polynomial degree {p.degree} exceeds basis cap {basis.photon_cap}"
        )
    vec = np.zeros(basis.dimension, dtype=complex)
    for exps, coeff in p.items():
        vec[basis.index[exps]] = coeff * math.sqrt(
            math.prod(math.factorial(e) for e in exps)
        )
    return vec


def _mode_generator(unitary: np.ndarray) -> np.ndarray:
    """Anti-Hermitian h with exp(h) = U, via a complex Schur form."""
    t, z = scipy.linalg.schur(np.asarray(unitary, dtype=complex), output="complex")
    eigs = np.diagonal(t)
    return z @ np.diag(np.log(eigs)) @ z.conj().T


def _lift_generator(h: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Second-quantized generator sum_ij h[i,j] a^dag_i a_j on the basis."""
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


def fock_unitary(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Dense Fock-space operator implementing a mode unitary, exponentiated
    one photon-number sector at a time (entries between sectors are exact
    zeros)."""
    gen = _lift_generator(_mode_generator(mode_unitary), basis)
    out = np.zeros_like(gen)
    for sector in basis.sectors:
        out[sector, sector] = scipy.linalg.expm(gen[sector, sector])
    return out


def apply_network_dense(vec: np.ndarray, mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Evolve a dense Fock vector through a mode unitary."""
    if vec.shape != (basis.dimension,):
        raise ValueError("vector does not match basis dimension")
    return fock_unitary(mode_unitary, basis) @ vec


def project_outcome_dense(
    vec: np.ndarray, mode_position: int, outcome: int, basis: FockBasis, reduced: FockBasis
) -> tuple[np.ndarray, float]:
    """Select the component with ``outcome`` photons on one mode.

    Returns the vector over ``reduced``, which must be
    ``FockBasis(mode_count - 1, photon_cap)`` (the measured coordinate
    dropped), together with the outcome probability ||selection||^2 / ||vec||^2.
    """
    if (reduced.mode_count, reduced.photon_cap) != (basis.mode_count - 1, basis.photon_cap):
        raise ValueError("reduced basis does not drop one mode of the basis")
    if outcome < 0 or outcome > basis.photon_cap:
        raise ValueError(f"outcome {outcome} outside basis cap {basis.photon_cap}")
    out = np.zeros(reduced.dimension, dtype=complex)
    selected = 0.0
    for k, occ in enumerate(basis.states):
        if occ[mode_position] != outcome:
            continue
        amp = vec[k]
        selected += abs(amp) ** 2
        rest = occ[:mode_position] + occ[mode_position + 1 :]
        out[reduced.index[rest]] = amp
    total = float(np.vdot(vec, vec).real)
    if total == 0:
        raise ValueError("cannot project the zero vector")
    return out, float(selected) / total
