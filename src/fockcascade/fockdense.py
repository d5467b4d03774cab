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

Order fact: in basis order and with that mode dropped, the states with n
photons on one mode are the first states of the basis on the other modes
(dropping a fixed coordinate keeps the lexicographic order within a photon
number).  ``project_outcome_dense`` and ``measurement._reduction`` rest on it.

``apply_network_dense`` exponentiates a block of at most
``OPERATOR_MAX_DIMENSION`` states as an operator (a dense ``expm``, then a
product) and a larger sector by its action on the vector's part there
(``scipy.sparse.linalg.expm_multiply``: a few dozen sparse products in place
of an O(d^3) ``expm``, after about 1.5-2.5 ms of norm estimates).  A basis
of at most that many states is one block: it forms ``fock_unitary`` and
multiplies.  Above it only the occupied sectors are lifted, each straight
into a dense block or a ``csr_array``, so no whole-space matrix is built.
Both routes exponentiate the same lifted generator, so neither leans on the
polynomial pipeline.  Per sector, lift included, with one BLAS thread on a
2-core Intel Xeon host (best of nine, Haar network):

    states  modes x photons   operator, ms   action, ms
      21        6 x 2             0.16           1.5
      56        6 x 3             0.91           1.6
      84        4 x 6             2.3            2.5
     126        6 x 4             6.6            2.2
     210        5 x 6            23.6            3.0
     252        6 x 5            36.6            3.3
     462        6 x 6           173              5.5

``fock_unitary`` stays public for callers that need the operator itself.

Intended for small problems only (roughly up to 6 modes and 6 photons).
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement

import numpy as np

from .modes import MAX_PHOTON_CAP
from .poly import _FACTORIAL, CreationPolynomial

# Largest block, whole basis or one sector, exponentiated as an operator;
# see the module docstring.
OPERATOR_MAX_DIMENSION = 84


class FockBasis:
    """Occupation-number basis with a total-photon cap.

    ``states[k]`` is the k-th occupation tuple in graded lexicographic order,
    and row k of the int64 array ``occ``; ``index[occ]`` inverts the
    enumeration; ``sectors[n]`` is the slice of indices holding the states
    with n photons in total; ``scale[k]`` is sqrt(prod_i n_i!) of state k
    (exact up to 22 photons).  The dimension is C(mode_count + photon_cap, mode_count).
    """

    __slots__ = ("mode_count", "photon_cap", "states", "index", "sectors", "occ", "scale")

    def __init__(self, mode_count: int, photon_cap: int):
        if mode_count < 1 or not 0 <= photon_cap <= MAX_PHOTON_CAP:
            raise ValueError(f"need at least one mode and a cap between 0 and {MAX_PHOTON_CAP}")
        self.mode_count, self.photon_cap = mode_count, photon_cap
        states: list[tuple[int, ...]] = []
        sectors = []
        for total in range(photon_cap + 1):
            level = []  # distinct, as the combinations are
            for combo in combinations_with_replacement(range(mode_count), total):
                occ = [0] * mode_count
                for mode in combo:
                    occ[mode] += 1
                level.append(tuple(occ))
            sectors.append(slice(len(states), len(states) + len(level)))
            states.extend(sorted(level))
        self.states, self.sectors = tuple(states), tuple(sectors)
        self.index = {occ: k for k, occ in enumerate(states)}
        self.occ = np.fromiter(chain.from_iterable(states), np.int64).reshape(-1, mode_count)
        self.scale = np.sqrt(np.prod(np.array(_FACTORIAL[: photon_cap + 1])[self.occ], axis=1))

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
        raise ValueError(f"polynomial degree {p.degree} exceeds basis cap {basis.photon_cap}")
    vec = np.zeros(basis.dimension, dtype=complex)
    for exps, coeff in p.items():
        k = basis.index[exps]
        vec[k] = coeff * basis.scale[k]
    return vec


def _mode_generator(unitary: np.ndarray) -> np.ndarray:
    """Anti-Hermitian h with exp(h) = U, via a complex Schur form."""
    import scipy.linalg  # here, as below: only the dense oracle loads scipy
    t, z = scipy.linalg.schur(np.asarray(unitary, dtype=complex), output="complex")
    eigs = np.diagonal(t)
    return z @ np.diag(np.log(eigs)) @ z.conj().T


def _lift_generator(
    h: np.ndarray, basis: FockBasis, sector: slice = slice(None), sparse: bool = False
):
    """Second-quantized generator sum_ij h[i,j] a^dag_i a_j on the states of
    ``sector`` (one photon-number sector, or by default the whole basis), as
    a dense array or, when ``sparse``, a ``csr_array`` built from its entries.

    Each occupation is keyed by one integer: its total photon number, then a
    digit per mode in base ``photon_cap + 1``.  These keys ascend in the
    graded lexicographic order of the basis, so a hop a^dag_i a_j, which adds
    ``stride[i] - stride[j]`` to the key, finds its row by binary search
    (it never leaves a sector).  Every off-diagonal entry is written once,
    and the diagonal is summed mode by mode, so the matrix equals the
    per-state loop's entry for entry.
    """
    occ = basis.occ[sector]
    dim, modes = occ.shape
    base = basis.photon_cap + 1
    # Keys stay below base**(modes + 1); past int64 (many modes, small cap) use Python ints.
    dtype = np.int64 if base ** (modes + 1) < 2**63 else object
    stride = np.array([base ** (modes - 1 - k) for k in range(modes)], dtype=dtype)
    keys = occ.sum(axis=1).astype(dtype) * base**modes + occ.astype(dtype) @ stride
    diagonal = np.zeros(dim, dtype=complex)
    for j in range(modes):
        diagonal += h[j, j] * occ[:, j]
    col, j = np.nonzero(occ)
    col, j, i = np.repeat(col, modes), np.repeat(j, modes), np.tile(np.arange(modes), len(j))
    hop = i != j
    col, j, i = col[hop], j[hop], i[hop]
    row = np.searchsorted(keys, keys[col] + stride[i] - stride[j])
    rows, cols = np.concatenate([np.arange(dim), row]), np.concatenate([np.arange(dim), col])
    values = np.concatenate([diagonal, h[i, j] * np.sqrt(occ[col, j] * (occ[col, i] + 1))])
    if sparse:
        from scipy.sparse import csr_array
        return csr_array((values, (rows, cols)), shape=(dim, dim))
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols] = values
    return out


def _checked_generator(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """The mode generator of a unitary, which must act on every mode of the
    basis."""
    unitary = np.asarray(mode_unitary, dtype=complex)
    if unitary.shape != (basis.mode_count, basis.mode_count):
        raise ValueError(
            f"mode unitary of shape {unitary.shape} does not act on "
            f"{basis.mode_count} modes"
        )
    return _mode_generator(unitary)


def fock_unitary(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Dense Fock-space operator implementing a mode unitary, exponentiated
    one photon-number sector at a time (entries between sectors are exact
    zeros)."""
    import scipy.linalg
    gen = _lift_generator(_checked_generator(mode_unitary, basis), basis)
    out = np.zeros_like(gen)
    for sector in basis.sectors:
        out[sector, sector] = scipy.linalg.expm(gen[sector, sector])
    return out


def apply_network_dense(vec: np.ndarray, mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Evolve a dense Fock vector through a mode unitary: by the operator up
    to ``OPERATOR_MAX_DIMENSION`` states, sector by occupied sector above it."""
    if vec.shape != (basis.dimension,):
        raise ValueError("vector does not match basis dimension")
    if basis.dimension <= OPERATOR_MAX_DIMENSION:
        return fock_unitary(mode_unitary, basis) @ vec
    import scipy.linalg
    from scipy.sparse.linalg import expm_multiply

    h = _checked_generator(mode_unitary, basis)
    out = np.zeros(basis.dimension, dtype=complex)
    for sector in basis.sectors:
        part = vec[sector]
        if part.any():
            sparse = part.size > OPERATOR_MAX_DIMENSION
            block = _lift_generator(h, basis, sector, sparse)
            out[sector] = expm_multiply(block, part) if sparse else scipy.linalg.expm(block) @ part
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
    amps = vec[basis.occ[:, mode_position] == outcome]
    out = np.zeros(reduced.dimension, dtype=complex)
    out[: amps.size] = amps  # the first states of ``reduced``, by the order fact
    selected = sum(abs(amp) ** 2 for amp in amps)  # one state at a time, in basis order
    total = float(np.vdot(vec, vec).real)
    if total == 0:
        raise ValueError("cannot project the zero vector")
    return out, float(selected) / total
