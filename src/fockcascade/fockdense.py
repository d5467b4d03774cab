"""Dense truncated Fock-space reference simulation.

This module re-implements state evolution and photon-number projection with
dense linear algebra so the polynomial pipeline can be checked against an
independent computational path.  States are vectors over the occupation basis
(all vectors of per-mode photon counts with total at most ``photon_cap``,
enumerated in graded lexicographic order), and a mode unitary U acts through
the matrix exponential of its second-quantized generator:

    U = exp(h)   (h anti-Hermitian)   ->   exp( sum_ij h[i,j] a^dag_i a_j )

built directly from ladder-operator matrix elements.  The generator preserves
total photon number, so the lift is exact on the truncated space, and it is
exponentiated one photon-number sector at a time: each sector is a
contiguous block of the graded basis, and every entry between two sectors is
an exact zero.  No polynomial expansion or permanent appears anywhere in
this path.

``apply_network_dense`` evolves a vector by one of two routes, chosen from
the basis size.  Up to ``OPERATOR_MAX_DIMENSION`` states it forms the
operator with ``fock_unitary`` (a dense ``expm`` per sector) and multiplies.
Above it, it computes only the action of each sector's exponential on the
vector's part in that sector (``scipy.sparse.linalg.expm_multiply``, a few
dozen sparse products instead of an O(d^3) ``expm``) and skips the empty
sectors.  Both routes exponentiate the same lifted generator, so neither
leans on the polynomial pipeline.  Both stay because each is faster on its
side: the action pays about 2 ms of fixed cost per occupied sector, which
the small operator never does.  Per call, with one BLAS thread on a 2-core
Intel Xeon host (best of five, Haar network, a vector over one sector or
over all of them):

    states  modes x photons   operator, ms     action, ms
                              one / all        one / all sectors
      84      6 x 3            2.1 / 2.1        4.0 / 9.1
     126      5 x 4            2.8 / 3.1        2.8 / 9.1
     210      6 x 4            8.5 / 11.2       4.2 / 9.3
     252      5 x 5           13.2 / 12.1       6.1 / 10.8
     462      6 x 5             62 / 66         6.9 / 16.8
     924      6 x 6            289 / 300       14.1 / 27.5

``fock_unitary`` stays public for callers that need the operator itself.

Intended for small problems only (roughly up to 6 modes and 6 photons).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .poly import CreationPolynomial

# Largest basis evolved by forming the operator; see the module docstring.
OPERATOR_MAX_DIMENSION = 126


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
    import scipy.linalg  # here, as below: only the dense oracle loads scipy
    t, z = scipy.linalg.schur(np.asarray(unitary, dtype=complex), output="complex")
    eigs = np.diagonal(t)
    return z @ np.diag(np.log(eigs)) @ z.conj().T


def _lift_generator(h: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Second-quantized generator sum_ij h[i,j] a^dag_i a_j on the basis.

    Each occupation is keyed by one integer: its total photon number, then a
    digit per mode in base ``photon_cap + 1``.  These keys ascend in the
    graded lexicographic order of the basis, so a hop a^dag_i a_j, which adds
    ``stride[i] - stride[j]`` to the key, finds its row by binary search.
    Every off-diagonal entry is written once, and the diagonal is summed mode
    by mode, so the matrix equals the per-state loop's entry for entry.
    """
    dim, modes = basis.dimension, basis.mode_count
    occ = np.array(basis.states, dtype=np.int64)
    base = basis.photon_cap + 1
    # Keys stay below base**(modes + 1); past int64 (many modes, small cap) use Python ints.
    dtype = np.int64 if base ** (modes + 1) < 2**63 else object
    stride = np.array([base ** (modes - 1 - k) for k in range(modes)], dtype=dtype)
    keys = occ.sum(axis=1).astype(dtype) * base**modes + occ.astype(dtype) @ stride
    out = np.zeros((dim, dim), dtype=complex)
    diagonal = np.zeros(dim, dtype=complex)
    for j in range(modes):
        diagonal += h[j, j] * occ[:, j]
    out[np.arange(dim), np.arange(dim)] = diagonal
    col, j = np.nonzero(occ)
    col, j, i = np.repeat(col, modes), np.repeat(j, modes), np.tile(np.arange(modes), len(j))
    hop = i != j
    col, j, i = col[hop], j[hop], i[hop]
    row = np.searchsorted(keys, keys[col] + stride[i] - stride[j])
    out[row, col] += h[i, j] * np.sqrt(occ[col, j] * (occ[col, i] + 1))
    return out


def _fock_generator(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """The lifted generator of a mode unitary, which must act on every mode
    of the basis."""
    unitary = np.asarray(mode_unitary, dtype=complex)
    if unitary.shape != (basis.mode_count, basis.mode_count):
        raise ValueError(
            f"mode unitary of shape {unitary.shape} does not act on "
            f"{basis.mode_count} modes"
        )
    return _lift_generator(_mode_generator(unitary), basis)


def fock_unitary(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Dense Fock-space operator implementing a mode unitary, exponentiated
    one photon-number sector at a time (entries between sectors are exact
    zeros)."""
    import scipy.linalg
    gen = _fock_generator(mode_unitary, basis)
    out = np.zeros_like(gen)
    for sector in basis.sectors:
        out[sector, sector] = scipy.linalg.expm(gen[sector, sector])
    return out


def apply_network_dense(vec: np.ndarray, mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Evolve a dense Fock vector through a mode unitary: by the operator up
    to ``OPERATOR_MAX_DIMENSION`` states, by the exponential's action on each
    occupied sector above it."""
    if vec.shape != (basis.dimension,):
        raise ValueError("vector does not match basis dimension")
    if basis.dimension <= OPERATOR_MAX_DIMENSION:
        return fock_unitary(mode_unitary, basis) @ vec
    # Imported here, as scipy.linalg above: scipy is over half of `import fockcascade`.
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import expm_multiply

    gen = _fock_generator(mode_unitary, basis)
    out = np.zeros(basis.dimension, dtype=complex)
    for sector in basis.sectors:
        if vec[sector].any():
            out[sector] = expm_multiply(csr_array(gen[sector, sector]), vec[sector])
    return out


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
