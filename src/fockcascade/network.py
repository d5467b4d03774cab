"""Linear-optical networks as unitary maps on mode operators.

A :class:`LinearNetwork` holds a unitary matrix U over an ordered mode
registry (input order equals output order).  Sending a state through the
network substitutes every input creation operator by the matching linear
combination of output creation operators,

    a^dag_i  ->  sum_j U[j, i] * c^dag_j,

which preserves total photon number and vacuum norms.  Builders are provided
for the elementary devices (beam splitter, phase shifter), plus composition
and Haar-random sampling for tests.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .errors import SchemaError, UnitarityViolation
from .modes import ModeRegistry
from .poly import CreationPolynomial, Exponents

CONSTRUCTION_TOL = 1e-10
COMPOSITION_TOL = 1e-8
_NETWORK_FIELDS = {"matrix", "elements"}


class LinearNetwork:
    """Unitary mode map over a registry; validated at construction.

    ``images[i]`` is the linear image of input mode i as the
    ``(j, U[j, i])`` pairs with a nonzero entry, built once for
    :func:`substitute`.  ``deviation`` is max |U^dag U - I|, measured at
    construction.
    """

    __slots__ = ("matrix", "registry", "images", "deviation")

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
        self.images = tuple(
            tuple((j, complex(m[j, i])) for j in range(n) if m[j, i] != 0)
            for i in range(n)
        )

    def __repr__(self) -> str:
        return f"LinearNetwork({self.registry.size} modes)"

    def to_dict(self) -> dict:
        return {
            "matrix": [
                [{"re": z.real, "im": z.imag} for z in row] for row in self.matrix
            ]
        }


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
    norm is preserved up to roundoff because U is unitary.  A state of degree
    above the photon cap goes through the validating constructor, which
    raises PhotonCapError when some output occupation exceeds the cap.
    """
    state.registry.require_same(net.registry)
    registry = state.registry
    degree = state.degree
    if degree == 0:
        return state
    size = registry.size
    base = degree + 1
    strides = [base**j for j in range(size)]
    images = [tuple((strides[j], u) for j, u in image) for image in net.images]

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
    if degree <= registry.photon_cap:
        return CreationPolynomial._trusted(registry, terms)
    return CreationPolynomial(registry, terms)


def _times_image(
    terms: dict[int, complex], image: tuple[tuple[int, complex], ...]
) -> dict[int, complex]:
    """``terms`` times the linear form sum_j u_j c^dag_j, given as its
    ``(stride_j, u_j)`` pairs: each pair raises one exponent of one term."""
    out: dict[int, complex] = {}
    for key, coeff in terms.items():
        for stride, u in image:
            raised = key + stride
            out[raised] = out.get(raised, 0.0) + coeff * u
    return out


def network_from_dict(data: Mapping, registry: ModeRegistry, tol: float = CONSTRUCTION_TOL) -> LinearNetwork:
    """Build a network from its JSON form.

    Two shapes are accepted: ``{"matrix": [[{re, im}, ...], ...]}`` or
    ``{"elements": [...]}`` where each element is ``{"bs": {"theta", "phi",
    "i", "j"}}`` or ``{"ps": {"phi", "i"}}``, composed left to right.  An object
    with both shapes, neither, or any other field raises SchemaError, for the
    networks of an instance and of a strategy stage alike.
    """
    if not isinstance(data, Mapping):
        raise SchemaError(f"network must be an object, got {data!r}")
    unknown = set(data) - _NETWORK_FIELDS
    if unknown:
        raise SchemaError(f"network has unknown fields {sorted(unknown)}")
    if ("matrix" in data) == ("elements" in data):
        raise SchemaError("network needs exactly one of 'matrix' or 'elements'")
    if "matrix" in data:
        rows = data["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SchemaError("network 'matrix' must be a list of rows")
        m = np.array([[_matrix_entry(cell) for cell in row] for row in rows])
        return LinearNetwork(m, registry, tol)
    if not isinstance(data["elements"], list):
        raise SchemaError("network 'elements' must be a list")
    net = identity(registry)
    for element in data["elements"]:
        kind, spec = _element_spec(element)
        if kind == "bs":
            stage = beam_splitter(
                _element_angle(spec, "theta"),
                _element_angle(spec, "phi", 0.0),
                _element_mode(spec, "i", registry),
                _element_mode(spec, "j", registry),
                registry,
            )
        else:
            stage = phase_shifter(
                _element_angle(spec, "phi"), _element_mode(spec, "i", registry), registry
            )
        net = compose(net, stage)
    return net


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_entry(cell) -> complex:
    if not (isinstance(cell, Mapping) and _is_real(cell.get("re")) and _is_real(cell.get("im"))):
        raise SchemaError(f"network matrix entry must be {{\"re\": x, \"im\": y}}, got {cell!r}")
    return complex(cell["re"], cell["im"])


def _element_spec(element) -> tuple[str, Mapping]:
    """The kind (``bs`` or ``ps``) of a one-key network element and its fields."""
    if isinstance(element, Mapping) and len(element) == 1:
        ((kind, spec),) = element.items()
        if kind in ("bs", "ps") and isinstance(spec, Mapping):
            return kind, spec
    raise SchemaError(f"unknown network element {element!r}: expected {{\"bs\": {{...}}}} or {{\"ps\": {{...}}}}")


def _element_angle(spec: Mapping, key: str, default: float | None = None) -> float:
    value = spec.get(key, default)
    if not _is_real(value):
        raise SchemaError(f"network element field {key!r} must be a real number, got {value!r}")
    return float(value)


def _element_mode(spec: Mapping, key: str, registry: ModeRegistry) -> str:
    label = spec.get(key)
    if not isinstance(label, str) or label not in registry:
        raise SchemaError(
            f"network element field {key!r} names {label!r}, not one of the modes {registry.labels}"
        )
    return label
