"""Reference routes the tests check the package against.

None of these runs in a command or a report.  Each is an independent
evaluation of something the package computes another way, so that the tests
compare two routes rather than one route with itself:

* ``normal_order_pair`` and ``contract_annihilators``: the normal-ordering
  identity behind the reordering recursion, and annihilation operators
  applied to a polynomial state;
* ``conditional_overlap_vector``: V by conditioning the full product
  ``sub(aux * psi)`` through the full network, against ``verify_no_go``'s
  window product through the reduced one; ``coefficient_overlap_vector``:
  U' of one pair;
* ``overlap_component`` (the direct formula for C[s, n, m]) and
  ``overlap_component_recursive`` (the same component read from the
  reordering table that the transfer matrix is summed from);
* ``reassemble``: the polynomial an expansion split;
* ``necessity_probe``: acceptance criterion 6, the bound
  ||V|| >= sigma_min(M') ||U'|| on one instance.

The component conventions are those of the ``fockcascade.nogo`` docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fockcascade import nogo
from fockcascade.discriminate import ORTHOGONALITY_TOL, DiscriminationInstance
from fockcascade.measurement import ModeExpansion, expand_by_mode
from fockcascade.network import LinearNetwork, substitute
from fockcascade.nogo import _check_aux, _check_states, _top_overlaps, system_expansions, verify_no_go
from fockcascade.poly import CreationPolynomial, Exponents, _ordering_weight, vacuum_inner_product

PROBE_SLACK = 1e-8


# -- creation-operator algebra -------------------------------------------------


def normal_order_pair(m: int, n: int) -> list[tuple[int, int]]:
    """Expansion of ``c^m c^dag^n`` into normally ordered terms.

    Returns ``[(k, w_k)]`` with exact integer weights such that

        c^m c^dag^n  =  sum_k  w_k * c^dag^(n-k) c^(m-k),
        w_k = k! * C(m, k) * C(n, k),   0 <= k <= min(m, n).
    """
    if m < 0 or n < 0:
        raise ValueError("operator powers must be nonnegative")
    return [(k, _ordering_weight(k, m, n)) for k in range(min(m, n) + 1)]


def contract_annihilators(
    ops: CreationPolynomial, state: CreationPolynomial
) -> CreationPolynomial:
    """Apply ``ops`` read as annihilation operators to ``state|0>``.

    Each monomial of ``ops`` with exponents ``e`` acts as ``prod_i a_i^{e_i}``
    on a state monomial with exponents ``f``, yielding
    ``prod_i f_i!/(f_i-e_i)!`` times the monomial ``f - e`` (zero whenever some
    ``e_i > f_i``).  Coefficients of ``ops`` are used as given; conjugate first
    to realize the adjoint of a creation polynomial.

    The returned polynomial r satisfies ``r|0> = ops_annih * state|0>`` and may
    be zero.
    """
    ops.registry.require_same(state.registry)
    out: dict[Exponents, complex] = {}
    for ea, ca in ops._terms.items():
        for eb, cb in state._terms.items():
            weight = 1
            key = []
            for e, f in zip(ea, eb):
                if e > f:
                    weight = 0
                    break
                weight *= math.perm(f, e)
                key.append(f - e)
            if weight:
                k = tuple(key)
                out[k] = out.get(k, 0.0) + ca * cb * weight
    return CreationPolynomial._trusted(ops.registry, out)


def reassemble(expansion: ModeExpansion) -> CreationPolynomial:
    """The polynomial :func:`expand_by_mode` split (exact; drops no term)."""
    pos = expansion.source_registry.index(expansion.measured)
    terms: dict[Exponents, complex] = {}
    for n, part in enumerate(expansion.coefficients):
        for exps, coeff in part.items():
            full = exps[:pos] + (n,) + exps[pos:]
            terms[full] = coeff
    return CreationPolynomial._trusted(expansion.source_registry, terms, pruned=True)


# -- overlap vectors (conditioning route) ------------------------------------


def conditional_overlap_vector(
    aux: CreationPolynomial,
    psi_i: CreationPolynomial,
    psi_j: CreationPolynomial,
    net: LinearNetwork,
    measured: str,
    system_order: int | None = None,
) -> np.ndarray:
    """Overlaps of with-aux conditional states over the top outcome window.

    Entry s (s = 0..n_s) is ``<psi_i^N | psi_j^N>`` at N = n_a + n_s - s,
    computed by conditioning the full product state of each input.
    """
    _check_states([psi_i, psi_j])
    _check_aux(aux, [psi_i, psi_j])
    _, pair_order = system_expansions([psi_i, psi_j], net, measured)
    n_s = pair_order if system_order is None else int(system_order)
    n_a = expand_by_mode(substitute(aux, net), measured).order
    exp_i, exp_j = (expand_by_mode(substitute(aux * psi, net), measured) for psi in (psi_i, psi_j))
    out = np.zeros(n_s + 1, dtype=complex)
    for s in range(n_s + 1):
        n = n_a + n_s - s
        out[s] = vacuum_inner_product(exp_i.coefficient(n), exp_j.coefficient(n))
    return out


def coefficient_overlap_vector(
    psi_i: CreationPolynomial,
    psi_j: CreationPolynomial,
    net: LinearNetwork,
    measured: str,
    system_order: int | None = None,
) -> np.ndarray:
    """Vacuum overlaps of the expansion coefficients, top power first.

    Entry p (p = 0..n_s) is ``<0| Qs_i(ns-p)^dag Qs_j(ns-p) |0>``.
    """
    _check_states([psi_i, psi_j])
    (exp_i, exp_j), pair_order = system_expansions([psi_i, psi_j], net, measured)
    n_s = pair_order if system_order is None else int(system_order)
    return _top_overlaps(exp_i, exp_j, n_s, n_s + 1)


# -- overlap components (direct and recursive) -------------------------------


def _check_component_indices(s: int, n: int, m: int, n_a: int, n_s: int) -> None:
    if not 0 <= s <= n_a + n_s:
        raise IndexError(f"s={s} outside [0, {n_a + n_s}]")
    lo, hi = max(0, s - n_a), min(s, n_s)
    for name, value in (("n", n), ("m", m)):
        if not lo <= value <= hi:
            raise IndexError(f"{name}={value} outside [{lo}, {hi}] for s={s}")


def overlap_component(
    aux_exp: ModeExpansion,
    exp_i: ModeExpansion,
    exp_j: ModeExpansion,
    system_order: int,
    s: int,
    n: int,
    m: int,
) -> complex:
    """Direct evaluation of the component C[s, n, m] from the expansions."""
    n_a = aux_exp.order
    _check_component_indices(s, n, m, n_a, system_order)
    bra = aux_exp.coefficient(n_a - s + n) * exp_i.coefficient(system_order - n)
    ket = aux_exp.coefficient(n_a - s + m) * exp_j.coefficient(system_order - m)
    return vacuum_inner_product(bra, ket)


def overlap_component_recursive(
    aux_exp: ModeExpansion,
    exp_i: ModeExpansion,
    exp_j: ModeExpansion,
    system_order: int,
    s: int,
    n: int,
    m: int,
) -> complex:
    """Component C[s, n, m] read from the reordering table as
    ``sum_p A[s, p, n, m] * U'[p]``.

    Valid on the domain n >= m; use the n <-> m symmetry to reach the other
    half.  The table is the one :func:`aux_transfer_tables` builds, so
    agreement with :func:`overlap_component` is a correctness check on the
    tables the transfer matrix is summed from.
    """
    if n < m:
        raise ValueError("recursion domain is n >= m; swap indices by symmetry")
    _check_component_indices(s, n, m, aux_exp.order, system_order)
    tables = nogo._reordering_table(aux_exp, system_order, s)
    u_prime = _top_overlaps(exp_i, exp_j, system_order, m + 1)
    return complex(
        sum(tables.coeff[(s, p, n, m)] * u_prime[p] for p in range(max(0, n + m - s), m + 1))
    )


# -- the quantitative no-go bound (acceptance criterion 6) --------------------


@dataclass(frozen=True)
class PairProbe:
    i: int
    j: int
    no_aux_norm: float      # ||U'||_2
    with_aux_norm: float    # ||V||_2
    lower_bound: float      # sigma_min * ||U'||_2 - slack
    bound_holds: bool
    implication_holds: bool  # U' nonzero  =>  V nonzero


@dataclass(frozen=True)
class ProbeReport:
    sigma_min: float
    diagonal_value: float
    pairs: tuple[PairProbe, ...]
    all_hold: bool


def necessity_probe(
    instance: DiscriminationInstance, net: LinearNetwork, measured: str
) -> ProbeReport:
    """Check the quantitative no-go bound on one instance.

    For each pair, compares ||V||_2 against sigma_min(M') * ||U'||_2 minus a
    small numerical slack, and asserts the implication "no-aux overlaps
    nonzero implies with-aux overlaps nonzero".
    """
    report = verify_no_go(instance.aux, instance.states, net, measured)
    sigma_min = float(np.linalg.svd(np.array(report.transfer), compute_uv=False).min())

    pairs = []
    for pair in report.pairs:
        u_norm = float(np.linalg.norm(np.array(pair.coefficient)))
        v_norm = float(np.linalg.norm(np.array(pair.with_aux)))
        lower = sigma_min * u_norm - PROBE_SLACK
        bound_holds = v_norm >= lower
        # Only a nonzero U' with a positive bound can falsify the implication;
        # a bound at or below zero is too weak to test at this scale.
        implication = not (u_norm > ORTHOGONALITY_TOL and lower > 0.0 and v_norm < lower)
        pairs.append(
            PairProbe(
                i=pair.i,
                j=pair.j,
                no_aux_norm=u_norm,
                with_aux_norm=v_norm,
                lower_bound=lower,
                bound_holds=bound_holds,
                implication_holds=implication,
            )
        )
    return ProbeReport(
        sigma_min=sigma_min,
        diagonal_value=report.leading_aux_norm,
        pairs=tuple(pairs),
        all_hold=all(p.bound_holds and p.implication_holds for p in pairs),
    )
