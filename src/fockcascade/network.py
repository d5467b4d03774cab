"""Linear-optical networks as unitary maps on mode operators.

A :class:`LinearNetwork` holds a unitary matrix U over an ordered mode
registry (input order equals output order).  Sending a state through the
network substitutes every input creation operator by the matching linear
combination of output creation operators,

    a^dag_i  ->  sum_j U[j, i] * c^dag_j,

which preserves total photon number and vacuum norms.  Builders are provided
for the elementary devices (beam splitter, phase shifter), plus composition
and Haar-random sampling for tests.  The JSON form is read by ``instancefile``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import UnitarityViolation
from .modes import ModeRegistry
from .poly import CreationPolynomial, Exponents

CONSTRUCTION_TOL = 1e-10
COMPOSITION_TOL = 1e-8


class LinearNetwork:
    """Unitary mode map over a registry; validated at construction.

    ``deviation`` is max |U^dag U - I|, measured at construction.
    """

    __slots__ = ("matrix", "registry", "deviation")

    def __init__(self, matrix, registry: ModeRegistry, tol: float = CONSTRUCTION_TOL):
        m = np.asarray(matrix, dtype=complex)
        n = registry.size
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} modes")
        if not np.isfinite(m).all():
            raise ValueError("network matrix has non-finite entries")
        deviation = np.abs(m.conj().T @ m - np.eye(n)).max()
        if deviation > tol:
            raise UnitarityViolation(deviation, tol)
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.registry = registry
        self.deviation = deviation

    def __repr__(self) -> str:
        return f"LinearNetwork({self.registry.size} modes)"


def from_matrix(entries, registry: ModeRegistry) -> LinearNetwork:
    """Validated network from an explicit complex matrix."""
    return LinearNetwork(entries, registry)


def identity(registry: ModeRegistry) -> LinearNetwork:
    return LinearNetwork(np.eye(registry.size), registry)


def beam_splitter(
    theta: float, phi: float, i: str, j: str, registry: ModeRegistry
) -> LinearNetwork:
    """Two-mode mixer: identity except the block

        [[cos(theta),            e^{i phi} sin(theta)],
         [-e^{-i phi} sin(theta), cos(theta)          ]]

    on modes ``i`` and ``j``.  ``theta = pi/4, phi = 0`` is a 50/50 splitter.
    """
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    a, b = registry.index(i), registry.index(j)
    m = np.eye(registry.size, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    m[a, a] = c
    m[a, b] = np.exp(1j * phi) * s
    m[b, a] = -np.exp(-1j * phi) * s
    m[b, b] = c
    return LinearNetwork(m, registry)


def phase_shifter(phi: float, i: str, registry: ModeRegistry) -> LinearNetwork:
    """Identity with e^{i phi} on one diagonal entry."""
    m = np.eye(registry.size, dtype=complex)
    m[registry.index(i), registry.index(i)] = np.exp(1j * phi)
    return LinearNetwork(m, registry)


def compose(a: LinearNetwork, b: LinearNetwork) -> LinearNetwork:
    """Network applying ``a`` first, then ``b`` (matrix product b a)."""
    a.registry.require_same(b.registry)
    return LinearNetwork(b.matrix @ a.matrix, a.registry, COMPOSITION_TOL)


def haar_random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar rather
    than QR-convention dependent.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_network(registry: ModeRegistry, rng: np.random.Generator) -> LinearNetwork:
    return LinearNetwork(haar_random_unitary(registry.size, rng), registry)


def measured_row_network(
    net: LinearNetwork, measured: str, first_columns: Sequence[str]
) -> LinearNetwork:
    """``net`` followed by a unitary on every output but ``measured``.

    Row c of ``measured`` is kept.  The other rows become the R of a QR
    factorization of ``U[rest][:, order]``, with the input modes
    ``first_columns`` first and the others after them in registry order.  R
    has exact zeros below the diagonal, so input column k of the order
    reaches c and at most k + 1 other outputs.  The other output labels no
    longer name physical modes: the result serves only outcome weights of
    mode c and vacuum overlaps of its coefficients.  It is validated against
    the input's deviation from unitarity plus CONSTRUCTION_TOL, since W U
    inherits U's.
    """
    registry = net.registry
    c = registry.index(measured)
    first = [registry.index(label) for label in first_columns]
    order = first + [k for k in range(registry.size) if k not in first]
    rest = [j for j in range(registry.size) if j != c]
    u = net.matrix
    r = np.linalg.qr(u[rest][:, order], mode="r")
    reduced = np.empty_like(u)
    reduced[c] = u[c]
    reduced[rest] = r[:, np.argsort(order)]
    return LinearNetwork(reduced, registry, CONSTRUCTION_TOL + net.deviation)


def substitute(state: CreationPolynomial, net: LinearNetwork) -> CreationPolynomial:
    """Rewrite a state polynomial in terms of the network's output operators.

    Every input operator a^dag_i is replaced by its image
    sum_j U[j,i] c^dag_j and the result re-expanded.  The state is evaluated
    in nested (Horner) form, one input mode at a time, so every multiply is by
    one image and raises a single exponent per output term: with an exponent
    tuple packed into one int, a digit per mode in base degree + 1 (no digit
    carries), that is one added stride.  The sums stay plain dicts, pruned once
    relative to the result's peak and unpacked once.  A state of degree 0 is
    returned as it is.  Total degree is preserved term by term; the vacuum
    norm is preserved up to roundoff because U is unitary.  The image of
    input mode i is read from column i of U, nonzero entries only.  A state
    of degree above the photon cap raises PhotonCapError when some output
    occupation that survives pruning exceeds the cap.
    """
    state.registry.require_same(net.registry)
    registry = state.registry
    degree = state.degree
    if degree == 0:
        return state
    size = registry.size
    base = degree + 1
    strides = [base**j for j in range(size)]
    columns = net.matrix.T.tolist()
    images = [[(s, u) for s, u in zip(strides, column) if u != 0] for column in columns]

    def nested(terms: list[tuple[Exponents, complex]], k: int) -> dict[int, complex]:
        """Image of ``terms`` over modes k.. in Horner form in mode k:
        out = out * image_k + (terms with a_k^n), from the top power n down."""
        if k == size:
            return {0: terms[0][1]}
        by_power: dict[int, list[tuple[Exponents, complex]]] = {}
        for exps, coeff in terms:
            by_power.setdefault(exps[k], []).append((exps, coeff))
        top = max(by_power)
        out = nested(by_power[top], k + 1)
        for n in range(top - 1, -1, -1):
            out = _times_image(out, images[k])
            if n in by_power:
                for key, coeff in nested(by_power[n], k + 1).items():
                    out[key] = out.get(key, 0.0) + coeff
        return out

    packed = nested(list(state.items()), 0)
    terms = {tuple([key // s % base for s in strides]): c for key, c in packed.items()}
    return CreationPolynomial._capped(registry, terms, degree)


def _times_image(
    terms: dict[int, complex], image: list[tuple[int, complex]]
) -> dict[int, complex]:
    """``terms`` times the linear form sum_j u_j c^dag_j, given as its
    ``(stride_j, u_j)`` pairs: each pair raises one exponent of one term."""
    out: dict[int, complex] = {}
    for key, coeff in terms.items():
        for stride, u in image:
            raised = key + stride
            out[raised] = out.get(raised, 0.0) + coeff * u
    return out
