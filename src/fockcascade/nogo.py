"""Auxiliary-photon no-go machinery for conditional measurements.

Setting: K homogeneous L-photon "system" states and one auxiliary state, on
disjoint input modes, are mixed in a linear network and the photon number of
one output mode c is measured.  For a state pair (i, j), collect

* ``V[s]``, the overlaps of the conditional states after observing
  N = n_a + n_s - s photons (s = 0..n_s) with the auxiliary state present,
* ``U'[p]``, the vacuum overlaps of the expansion coefficients of the bare
  system states in powers of c (top degree n_s down to 0),

where n_a and n_s are the highest powers of c in the transformed auxiliary
and system polynomials.  The two vectors are connected by a lower-triangular
transfer matrix whose entries depend only on the auxiliary state,

    V = M' U',     diag(M') = D = || top aux coefficient |0> ||^2 > 0,

so det(M') = D^(n_s + 1) never vanishes: the with-aux overlaps vanish exactly
when the no-aux ones do, and auxiliary photons cannot create or destroy
complete distinguishability.

Two independent computational routes are implemented.  ``V`` comes from raw
conditioning of the product state; ``M' U'`` comes from coefficient tables
built by the reordering recursion below.  ``verify_no_go`` runs both and
reports the residual, the triangular structure, and the determinant identity.
It substitutes and expands the auxiliary state and each state once, the
states through ``system_expansions``.  Since
substitution is a ring homomorphism, the product state ``sub(aux * psi)`` is
``sub(aux) * sub(psi)``, and V reads only its coefficients
N = n_a .. n_a + n_s.  Each is the Cauchy sum ``sum_a Qa(a) Qs(N - a)`` of
the two expansions, so the product itself is never formed.

Every number ``verify_no_go`` reads is an outcome weight or a vacuum overlap
of coefficients of the measured mode c, and none of them changes when a
unitary W acts after the network on the other outputs.  So only the measured
row U[c, :] matters, and ``verify_no_go`` substitutes through
:func:`reduced_network`: row c unchanged, the other rows the R of a
QR factorization of the unmeasured rows, with the system or the aux columns
first, whichever the term-count estimate in its docstring finds cheaper.
Input column k of that order reaches c and at most k + 1 other outputs, so a
state on the first m columns lands on m + 1 outputs instead of all n.  When
the aux and state degrees add up past the photon cap, the full network is
kept, so that the cap is checked on physical outputs.  The reduction is
deliberately not used where output states are shown or acted on later:
``simulate``, ``condition``, the cascade stages and ``stage_orthogonality``,
which reads a cascade's root outcomes, and the dense oracle.  The test
references in ``tests/reference.py`` (V by conditioning the full product
state, U' of one pair) keep the full network too, so that the tests compare
the reduced pipeline with the unreduced one.

Component conventions used throughout (all indices nonnegative):

    direct:     C[s, n, m] = <0| Qs_i(ns-n)^dag Qa(na-s+n)^dag
                                 Qa(na-s+m) Qs_j(ns-m) |0>
    recursion:  C[s, n, m] = delta_{n,m} * <Qs_i(ns-n), Qs_j(ns-n)>
                                         * <Qa(na-s+n), Qa(na-s+n)>
                  - sum_{k=1}^{min(n, s-m)} k! C(na-s+m+k, k) C(ns-n+k, k)
                                          * C[s-k, n-k, m]     (for n >= m)

with C symmetric under n <-> m.  Expanding the recursion gives auxiliary-only
coefficients A[s, p, n, m] (real, symmetric in n, m) with

    C[s, n, m] = sum_p A[s, p, n, m] * U'[p],

and, since V[s] = sum_{n,m} C[s, n, m], the transfer matrix is

    M'[s, p] = sum_{n,m} A[s, p, n, m].

One table of A serves both the transfer matrix and the recursive component
that ``tests/reference.py`` checks against the direct one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measurement import ModeExpansion, expand_by_mode, product_coefficients
from .network import LinearNetwork, measured_row_network, substitute
from .poly import (
    CreationPolynomial,
    _ordering_weight,
    vacuum_inner_product,
    vacuum_norm_sq,
)

RESIDUAL_TOL = 1e-8
DET_TOL = 1e-8
DIAG_TOL = 1e-10
ZERO_VECTOR_TOL = 1e-9


# -- input validation --------------------------------------------------------


def _check_states(states: Sequence[CreationPolynomial]) -> int:
    if len(states) < 2:
        raise ValueError("need at least two system states")
    degrees = set()
    for k, psi in enumerate(states):
        if psi.is_zero():
            raise ValueError(f"system state {k} is the zero polynomial")
        if not psi.is_homogeneous():
            raise ValueError(f"system state {k} is not homogeneous")
        degrees.add(psi.degree)
    if len(degrees) != 1:
        raise ValueError(f"system states carry different photon numbers {sorted(degrees)}")
    return degrees.pop()


def _check_aux(
    aux: CreationPolynomial, states: Sequence[CreationPolynomial]
) -> tuple[set[str], list[set[str]]]:
    """The aux's modes and each state's, once they are checked disjoint."""
    if aux.is_zero():
        raise ValueError("auxiliary state is the zero polynomial")
    supports = aux.support(), [psi.support() for psi in states]
    for k, support in enumerate(supports[1]):
        overlap = supports[0] & support
        if overlap:
            raise ValueError(
                f"auxiliary state shares input modes {sorted(overlap)} with "
                f"system state {k}; supports must be disjoint"
            )
    return supports


def system_expansions(
    states: Sequence[CreationPolynomial], net: LinearNetwork, measured: str
) -> tuple[list[ModeExpansion], int]:
    """Expansions of the transformed states, plus the set-level top power.

    The top power ``n_s`` is the maximum over the whole state set; individual
    expansion coefficients above a state's own degree read as zero.
    """
    expansions = [expand_by_mode(substitute(psi, net), measured) for psi in states]
    return expansions, max(e.order for e in expansions)


def reduced_network(
    aux: CreationPolynomial,
    states: Sequence[CreationPolynomial],
    net: LinearNetwork,
    measured: str,
    supports: tuple[set[str], list[set[str]]],
) -> LinearNetwork:
    """The network ``verify_no_go`` substitutes through:
    :func:`measured_row_network` with the cheaper column order.
    ``supports`` are the ones ``_check_aux`` returns for ``aux`` and
    ``states``.

    Two orders compete: the modes of the system states first, then the aux
    modes, or the aux modes first, then the system modes.  The first k
    columns of an order reach ``min(k, n - 1) + 1`` of the n outputs, so a
    block reaches as many as the columns up to its end do.  Each order is
    costed at the output terms of the K + 1 substitutions: C(reach + d - 1,
    d) monomials per degree d, K times at the states' L photons and once per
    degree the aux carries.  The order with the lower total wins; on a tie
    the system modes go first.  On nogo-max slot (2, 4, 2, 3, 3, superposed)
    the aux-first order emits 91 terms per item against 150 and runs about
    20% faster; elsewhere the two orders cost about the same.

    The rows of R name no physical output, so the photon cap is not
    checked on them: when the aux and state degrees add up past the cap,
    some output of the product might exceed it, and ``net`` itself is
    returned, so that ``PhotonCapError`` is raised exactly as through the
    full network.  Up to that sum no output can exceed the cap on either
    network.
    """
    if aux.degree + max(psi.degree for psi in states) > net.registry.photon_cap:
        return net
    labels = net.registry.labels
    aux_modes, state_supports = supports
    system = set().union(*state_supports)
    system_cols = [lab for lab in labels if lab in system]
    aux_cols = [lab for lab in labels if lab in aux_modes]
    photons = states[0].degree
    aux_degrees = {sum(e) for e, _ in aux.items()}

    def reach(columns: int) -> int:
        return min(columns, len(labels) - 1) + 1

    def cost(system_reach: int, aux_reach: int) -> int:
        return len(states) * math.comb(system_reach + photons - 1, photons) + sum(
            math.comb(aux_reach + d - 1, d) for d in aux_degrees
        )

    both = reach(len(system_cols) + len(aux_cols))
    if cost(both, reach(len(aux_cols))) < cost(reach(len(system_cols)), both):
        return measured_row_network(net, measured, aux_cols + system_cols)
    return measured_row_network(net, measured, system_cols + aux_cols)


# -- coefficient overlaps ----------------------------------------------------


def _top_overlaps(
    exp_i: ModeExpansion, exp_j: ModeExpansion, top: int, length: int
) -> np.ndarray:
    """Entry s (s = 0..length-1) is ``<0| Q_i(top-s)^dag Q_j(top-s) |0>``."""
    out = np.zeros(length, dtype=complex)
    for s in range(length):
        out[s] = vacuum_inner_product(exp_i.coefficient(top - s), exp_j.coefficient(top - s))
    return out


# -- auxiliary-only tables and the transfer matrix ----------------------------


@dataclass(frozen=True)
class OverlapTransfer:
    """Auxiliary-only coefficient tables.

    ``aux_norms[r]`` is ``||Qa(r)|0>||^2`` for r = 0..n_a;
    ``leading_aux_norm`` (the diagonal value D) is its last entry.
    ``coeff[(s, p, n, m)]`` are the expansion coefficients A, stored for
    n >= m and mirrored on access.
    """

    aux_order: int
    system_order: int
    aux_norms: tuple[float, ...]
    coeff: dict[tuple[int, int, int, int], float]

    @property
    def leading_aux_norm(self) -> float:
        return self.aux_norms[-1]

    def coefficient(self, s: int, p: int, n: int, m: int) -> float:
        if n < m:
            n, m = m, n
        return self.coeff.get((s, p, n, m), 0.0)


def _reordering_table(
    aux_exp: ModeExpansion, system_order: int, last_stage: int
) -> OverlapTransfer:
    """Fill A[s, p, n, m] for s = 0..last_stage and n = max(0, s-n_a)..min(s, n_s).

    The diagonal seed is A[s, n, n, n] = ||Qa(n_a - s + n)|0>||^2; all other
    entries follow from the reordering recursion

        A[s, p, n, m] = - sum_{k=1}^{min(n-p, s-m)}
            k! C(n_a-s+m+k, k) C(n_s-n+k, k) * A[s-k, p, n-k, m]   (n >= m),

    mirrored to n < m.  Entries outside the index window
    max(0, n+m-s) <= p <= min(n, m) vanish identically.
    """
    n_a = aux_exp.order
    n_s = int(system_order)
    if n_s < 0:
        raise ValueError("system order must be nonnegative")
    aux_norms = tuple(
        vacuum_norm_sq(aux_exp.coefficient(r)) for r in range(n_a + 1)
    )
    if aux_norms[-1] <= 0:
        raise ValueError("leading auxiliary coefficient has zero norm")

    tables = OverlapTransfer(aux_order=n_a, system_order=n_s, aux_norms=aux_norms, coeff={})
    for s in range(last_stage + 1):
        lo = max(0, s - n_a)
        for n in range(lo, min(s, n_s) + 1):
            for m in range(lo, n + 1):
                for p in range(max(0, n + m - s), m + 1):
                    value = aux_norms[n_a - s + n] if p == n == m else 0.0
                    for k in range(1, min(n - p, s - m) + 1):
                        weight = _ordering_weight(k, n_a - s + m + k, n_s - n + k)
                        value -= weight * tables.coefficient(s - k, p, n - k, m)
                    tables.coeff[(s, p, n, m)] = value
    return tables


def aux_transfer_tables(aux_exp: ModeExpansion, system_order: int) -> OverlapTransfer:
    """The A table of the auxiliary expansion over the verification window
    s = 0..n_s."""
    return _reordering_table(aux_exp, system_order, system_order)


def transfer_matrix(tables: OverlapTransfer) -> np.ndarray:
    """Lower-triangular matrix sending the coefficient overlaps to the
    conditional ones: M'[s, p] = sum_{n,m} A[s, p, n, m], where an entry
    stored for n > m also stands for its mirror.  The diagonal is the seed
    A[s, s, s, s] = D, the only entry at p = s."""
    n_s = tables.system_order
    out = np.zeros((n_s + 1, n_s + 1))
    for (s, p, n, m), value in tables.coeff.items():
        out[s, p] += value if n == m else 2.0 * value
    return out


# -- end-to-end verification ---------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    """Residual check for one state pair."""

    i: int
    j: int
    with_aux: tuple[complex, ...]       # conditional overlaps, aux present
    coefficient: tuple[complex, ...]    # expansion-coefficient overlaps
    predicted: tuple[complex, ...]      # transfer matrix applied to the above
    residual: float
    residual_bound: float
    with_aux_zero: bool
    coefficient_zero: bool
    zero_equivalent: bool
    passed: bool


@dataclass(frozen=True)
class NoGoReport:
    """Full verification record for one instance."""

    description: str
    aux_order: int
    system_order: int
    leading_aux_norm: float = field(metadata={"json": "diagonal_value"})
    transfer: tuple[tuple[float, ...], ...] = field(metadata={"json": "transfer_matrix"})
    determinant: float
    determinant_expected: float
    determinant_ok: bool
    diagonal_ok: bool
    triangular_ok: bool
    pairs: tuple[PairCheck, ...]
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(p.residual for p in self.pairs)


def verify_no_go(
    aux: CreationPolynomial,
    states: Sequence[CreationPolynomial],
    net: LinearNetwork,
    measured: str,
    description: str = "",
) -> NoGoReport:
    """Run both computational routes on every state pair and compare.

    For each unordered pair the conditioning route produces the with-aux
    overlap vector; the table route predicts it from the coefficient overlaps.
    The instance passes when every pair residual satisfies

        max|V - M'U'| <= RESIDUAL_TOL * max(1, max|V|),

    the transfer matrix is lower-triangular with constant diagonal D (within
    DIAG_TOL relative), its determinant (the product of the diagonal, which
    ``triangular_ok`` licenses) matches D^(n_s+1) within DET_TOL relative,
    and the zero-vector conditions agree pairwise.
    """
    _check_states(states)
    supports = _check_aux(aux, states)
    net = reduced_network(aux, states, net, measured, supports)
    state_exps, n_s = system_expansions(states, net, measured)
    aux_exp = expand_by_mode(substitute(aux, net), measured)
    n_a = aux_exp.order

    tables = aux_transfer_tables(aux_exp, n_s)
    m_prime = transfer_matrix(tables)
    d = tables.leading_aux_norm

    determinant = float(np.prod(np.diag(m_prime)))
    determinant_expected = d ** (n_s + 1)
    determinant_ok = (
        abs(determinant - determinant_expected) <= DET_TOL * determinant_expected
    )
    diagonal_ok = all(
        abs(m_prime[s, s] - d) <= DIAG_TOL * abs(d) for s in range(n_s + 1)
    )
    triangular_ok = bool(np.all(np.triu(m_prime, 1) == 0.0))

    norm_scale = [
        [math.sqrt(vacuum_norm_sq(exp.coefficient(n_s - p))) for p in range(n_s + 1)]
        for exp in state_exps
    ]

    # Conditioning a product state on N photons keeps its coefficient N, so
    # V[s] overlaps the window coefficients at N = n_a + n_s - s.
    windows = [product_coefficients(aux_exp, e, n_a, n_a + n_s)[::-1] for e in state_exps]
    pairs = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            v_vec = np.array(
                [vacuum_inner_product(a, b) for a, b in zip(windows[i], windows[j])]
            )
            u_prime = _top_overlaps(state_exps[i], state_exps[j], n_s, n_s + 1)
            predicted = m_prime @ u_prime
            residual = float(np.abs(v_vec - predicted).max())
            bound = RESIDUAL_TOL * max(1.0, float(np.abs(v_vec).max()))

            u_scale = max(
                max(a * b for a, b in zip(norm_scale[i], norm_scale[j])), 1.0
            )
            coefficient_zero = bool(np.abs(u_prime).max() <= ZERO_VECTOR_TOL * u_scale)
            with_aux_zero = bool(
                np.abs(v_vec).max() <= ZERO_VECTOR_TOL * u_scale * max(d, 1.0)
            )
            zero_equivalent = coefficient_zero == with_aux_zero
            pair_ok = residual <= bound and zero_equivalent
            pairs.append(
                PairCheck(
                    i=i,
                    j=j,
                    with_aux=tuple(v_vec),
                    coefficient=tuple(u_prime),
                    predicted=tuple(predicted),
                    residual=residual,
                    residual_bound=bound,
                    with_aux_zero=with_aux_zero,
                    coefficient_zero=coefficient_zero,
                    zero_equivalent=zero_equivalent,
                    passed=pair_ok,
                )
            )

    passed = (
        determinant_ok
        and diagonal_ok
        and triangular_ok
        and all(p.passed for p in pairs)
    )
    return NoGoReport(
        description=description,
        aux_order=n_a,
        system_order=n_s,
        leading_aux_norm=d,
        transfer=tuple(tuple(float(x) for x in row) for row in m_prime),
        determinant=determinant,
        determinant_expected=determinant_expected,
        determinant_ok=determinant_ok,
        diagonal_ok=diagonal_ok,
        triangular_ok=triangular_ok,
        pairs=tuple(pairs),
        passed=passed,
    )
