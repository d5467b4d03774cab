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

``apply_network_dense`` forms ``fock_unitary`` (public for callers that
need the operator; one ``eigh`` per sector block) for a basis of at most
``OPERATOR_MAX_DIMENSION`` states, and above it applies a Chebyshev
expansion to each occupied sector, so no whole-space matrix is built there.
Both exponentiate the same lifted generator, on numpy alone.  Per sector,
lift included, with one BLAS thread on a 2-core Intel Xeon host (best of
nine, Haar network):

    states  modes x photons   eigh, ms   Chebyshev, ms
      21        6 x 2           0.15         0.18
      56        6 x 3           0.53         0.30
      84        4 x 6           1.36         0.42
     126        6 x 4           3.37         0.58
     210        5 x 6          11.0          0.82
     252        6 x 5          18.0          1.01
     462        6 x 6         111            2.06

A basis also pays the action on its small sectors, so per basis the
crossover lies between 84 and 210 states (README gives the timings).

Intended for small problems only (roughly up to 6 modes and 6 photons).
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement

import numpy as np

from .modes import MAX_PHOTON_CAP
from .network import CONSTRUCTION_TOL
from .poly import _FACTORIAL, CreationPolynomial

# Largest basis evolved by its operator; see the module docstring.
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


def _mode_generator(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anti-Hermitian h with exp(h) = U, and its eigen-angles phi.  V = e^{i beta} U
    puts -1 mid-way in U's widest spectral gap, and ``eigh`` of the Hermitian
    Cayley transform i(I - V)(I + V)^-1 (eigenvalues tan(alpha/2)) gives an
    orthonormal eigenbasis even where eigenvalues repeat."""
    theta = sorted(np.angle(np.linalg.eigvals(unitary)).tolist())  # few modes: Python is faster
    gap, low = max((b - a, a) for a, b in zip(theta, theta[1:] + [theta[0] + 2 * np.pi]))
    beta = np.pi - low - gap / 2
    v, eye = np.exp(1j * beta) * unitary, np.eye(len(unitary))
    w, z = np.linalg.eigh(1j * np.linalg.solve(eye + v, eye - v))
    phases = 2 * np.arctan(w) - beta
    return (z * (1j * phases)) @ z.conj().T, phases


def _lift_entries(h: np.ndarray, basis: FockBasis, sector: slice = slice(None)) -> tuple:
    """Rows, columns and values of the second-quantized generator sum_ij
    h[i,j] a^dag_i a_j on the states of ``sector`` (one photon-number sector,
    or by default the whole basis): every state's diagonal, then each hop.

    Each occupation is keyed by one integer (its total photon number, then a
    digit per mode in base ``photon_cap + 1``) that ascends in basis order, so
    a hop a^dag_i a_j, which adds ``stride[i] - stride[j]``, finds its row in
    its sector by binary search.  Each off-diagonal entry is listed once and
    the diagonal is summed mode by mode: the per-state loop's entries, exactly.
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
    return rows, cols, np.concatenate([diagonal, h[i, j] * np.sqrt(occ[col, j] * (occ[col, i] + 1))])


def _lift_generator(h: np.ndarray, basis: FockBasis, sector: slice = slice(None)) -> np.ndarray:
    """The generator's entries on ``sector`` as a dense array."""
    rows, cols, values = _lift_entries(h, basis, sector)
    out = np.zeros((len(basis.occ[sector]),) * 2, dtype=complex)
    out[rows, cols] = values
    return out


def _checked_generator(mode_unitary: np.ndarray, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """``_mode_generator`` of a mode matrix, which must act on every mode of
    the basis and be unitary (both routes assume it)."""
    unitary = np.asarray(mode_unitary, dtype=complex)
    if unitary.shape != (basis.mode_count, basis.mode_count):
        raise ValueError(
            f"mode unitary of shape {unitary.shape} does not act on "
            f"{basis.mode_count} modes"
        )
    deviation = np.abs(unitary.conj().T @ unitary - np.eye(basis.mode_count)).max()
    if not deviation <= CONSTRUCTION_TOL:  # NaN entries fail too
        raise ValueError(f"mode matrix is not unitary: max |U^dag U - I| = {deviation:.3g}")
    return _mode_generator(unitary)


def _chebyshev_coefficients(rho: float) -> np.ndarray:
    """c_0 = J_0(rho), c_k = 2 i^k J_k(rho): exp(i rho x) = sum_k c_k T_k(x) on
    [-1, 1].  |J_k| <= (rho/2)^k / k!, which halves per k past rho, bounds the
    omitted tail by 2^-53.  The J_k come from Miller's backward recurrence,
    started 16 orders higher and normalized by J_0 + 2 sum_k J_2k = 1."""
    count, bound = 2, rho * rho / 8  # terms kept, and the bound on the first omitted J_k
    while count <= rho or bound > 2.0**-55:
        count += 1
        bound *= rho / (2 * count)
    j = np.zeros(count + 18)
    j[-2] = 1.0
    for k in range(count + 16, 0, -1):
        j[k - 1] = 2 * k / rho * j[k] - j[k + 1]
    coeffs = 2 * 1j ** np.arange(count) * j[:count] / (j[0] + 2 * j[2::2].sum())
    coeffs[0] /= 2
    return coeffs


def _sector_action(
    h: np.ndarray, phases: np.ndarray, basis: FockBasis, n: int, part: np.ndarray
) -> np.ndarray:
    """The lifted exponential on ``part``, a vector over sector n >= 1: the
    Chebyshev expansion of exp(iH), H = -i dGamma(h) (Tal-Ezer and Kosloff),
    whose terms the spectrum [n min phi, n max phi] fixes in advance.  Each
    product sums the sector's entries row by row with ``np.add.reduceat``."""
    lo, hi = phases.min(), phases.max()
    rho = max(n * (hi - lo) / 2, 1e-8)  # > 0; widening costs terms, not accuracy
    # X = (H - mid) / rho, spectrum in [-1, 1], is the lift of (-i h - (hi + lo)/2) / rho.
    x = (-1j * h - (hi + lo) / 2 * np.eye(len(h))) / rho
    rows, cols, values = _lift_entries(x, basis, basis.sectors[n])
    order = np.argsort(rows, kind="stable")
    starts = np.searchsorted(rows[order], np.arange(part.size))
    cols, values = cols[order], values[order]
    coeffs = _chebyshev_coefficients(rho)
    prev, cur = part, np.add.reduceat(values * part[cols], starts)
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, 2 * np.add.reduceat(values * cur[cols], starts) - prev
        out += c * cur
    return np.exp(0.5j * n * (hi + lo)) * out


def fock_unitary(mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Dense Fock-space operator implementing a mode unitary: -i times the
    generator lifted once (Hermitian), then z diag(e^{iw}) z^dag from ``eigh``
    of each sector block (entries between sectors are exact zeros)."""
    gen = _lift_generator(-1j * _checked_generator(mode_unitary, basis)[0], basis)
    out = np.zeros_like(gen)
    for sector in basis.sectors:
        w, z = np.linalg.eigh(gen[sector, sector])
        out[sector, sector] = (z * np.exp(1j * w)) @ z.conj().T
    return out


def apply_network_dense(vec: np.ndarray, mode_unitary: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Evolve a dense Fock vector through a mode unitary: by the operator up
    to ``OPERATOR_MAX_DIMENSION`` states, by the Chebyshev action on each
    occupied sector above it."""
    if vec.shape != (basis.dimension,):
        raise ValueError("vector does not match basis dimension")
    if basis.dimension <= OPERATOR_MAX_DIMENSION:
        return fock_unitary(mode_unitary, basis) @ vec
    h, phases = _checked_generator(mode_unitary, basis)
    out = vec.astype(complex)  # the vacuum (sector 0) is left as it is
    for n, sector in enumerate(basis.sectors[1:], 1):
        if vec[sector].any():
            out[sector] = _sector_action(h, phases, basis, n, vec[sector])
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
