"""Photon-number measurement on one mode, and conditional cascades.

Measuring mode c of a state polynomial starts from the expansion in powers of
that mode's creation operator,

    p = sum_n (c^dag)^n * q_n(other modes),

collected by :func:`expand_by_mode`.  Observing N photons on c leaves the
remaining modes in the unnormalized conditional state ``q_N|0>`` (the raw
expansion coefficient; no N! factor folded in), while the physical outcome
probability is

    weight(N) = N! * ||q_N|0>||^2 / ||p|0>||^2.

Weights over all N sum to one.  :func:`run_cascade` iterates the procedure on
a whole set of input states at once: mix the surviving modes in a network,
measure one mode, and pick the next stage (or a decision label) based on the
outcome, keeping zero-probability branches in the tree but flagged.  The JSON
form of a strategy is read by ``instancefile``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Union

from .errors import PhotonCapError, StrategyError, ZeroStateError
from .modes import ModeRegistry
from .network import LinearNetwork, substitute
from .poly import _FACTORIAL, CreationPolynomial, Exponents, _mul_into, vacuum_norm_sq


@dataclass(frozen=True)
class ModeExpansion:
    """Polynomial split by the power of one measured mode.

    ``coefficients[n]`` lives on the registry with the measured mode removed;
    ``order`` is the highest power present.  ``coefficient(n)`` zero-extends
    past the stored range so callers can work with a set-level order larger
    than this polynomial's own.
    """

    measured: str
    source_registry: ModeRegistry
    reduced_registry: ModeRegistry
    coefficients: tuple[CreationPolynomial, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> CreationPolynomial:
        if n < 0:
            raise ValueError("expansion index must be nonnegative")
        if n >= len(self.coefficients):
            return CreationPolynomial.zero(self.reduced_registry)
        return self.coefficients[n]

    def weights(self) -> list[float]:
        """Outcome probabilities ``N! ||q_N|0>||^2 / ||p|0>||^2`` for
        N = 0..order.  The buckets hold exactly the source's terms, so the
        normalizer ``sum_n n! ||q_n|0>||^2`` is ``||p|0>||^2``."""
        raw = [_FACTORIAL[n] * vacuum_norm_sq(q) for n, q in enumerate(self.coefficients)]
        total = sum(raw)
        if total == 0:
            raise ZeroStateError("cannot measure the zero state")
        return [w / total for w in raw]

    def reassemble(self) -> CreationPolynomial:
        """Reconstruct the original polynomial (exact, term permutation only)."""
        pos = self.source_registry.index(self.measured)
        terms: dict[Exponents, complex] = {}
        for n, part in enumerate(self.coefficients):
            for exps, coeff in part.items():
                full = exps[:pos] + (n,) + exps[pos:]
                terms[full] = coeff
        return CreationPolynomial(self.source_registry, terms)


def expand_by_mode(p: CreationPolynomial, measured: str) -> ModeExpansion:
    """Collect terms of ``p`` by their power on one mode.

    Each term with exponent n on the measured mode lands in coefficient n with
    that factor removed; the coefficients live on the reduced registry.
    """
    registry = p.registry
    pos = registry.index(measured)
    reduced = registry.without(measured)
    order = p.degree_in(measured)
    buckets: list[dict[Exponents, complex]] = [dict() for _ in range(order + 1)]
    for exps, coeff in p.items():
        n = exps[pos]
        buckets[n][exps[:pos] + exps[pos + 1 :]] = coeff
    return ModeExpansion(
        measured=measured,
        source_registry=registry,
        reduced_registry=reduced,
        coefficients=tuple(CreationPolynomial._trusted(reduced, b) for b in buckets),
    )


def product_coefficients(
    left: ModeExpansion, right: ModeExpansion, lo: int, hi: int
) -> tuple[CreationPolynomial, ...]:
    """Coefficients N = lo..hi of the product of two expanded polynomials.

    Coefficient N of ``p * q`` is the Cauchy sum ``sum_a p_a * q_(N-a)``, so
    the product itself is never formed: each N is summed into one dict and
    pruned once, relative to its own peak.  ``PhotonCapError`` is raised
    exactly when ``p * q`` would raise it, which is when the highest powers
    of some mode in ``p`` and in ``q`` add up past the cap; the measured mode
    counts too, although the reduced registry of the result cannot hold it.
    """
    if left.measured != right.measured:
        raise ValueError(f"expansions measure {left.measured!r} and {right.measured!r}")
    left.source_registry.require_same(right.source_registry)
    cap = left.source_registry.photon_cap
    for a, b in zip(_peak_powers(left), _peak_powers(right)):
        if a + b > cap:
            raise PhotonCapError(f"occupation {a + b} exceeds photon cap {cap}")
    out = []
    for n in range(lo, hi + 1):
        terms: dict[Exponents, complex] = {}
        for a in range(max(0, n - right.order), min(n, left.order) + 1):
            _mul_into(terms, left.coefficients[a], right.coefficients[n - a])
        out.append(CreationPolynomial._trusted(left.reduced_registry, terms))
    return tuple(out)


def _peak_powers(expansion: ModeExpansion) -> list[int]:
    """Highest power of each mode over the expanded polynomial's terms, the
    measured mode first; empty for the zero polynomial."""
    keys = [
        (n,) + exps for n, part in enumerate(expansion.coefficients) for exps, _ in part.items()
    ]
    return [max(column) for column in zip(*keys)]


@dataclass(frozen=True)
class ConditionalState:
    """Result of observing ``outcome`` photons on the measured mode.

    ``state`` is the unnormalized residual polynomial on the remaining modes;
    ``weight`` is the probability of this outcome.
    """

    outcome: int
    state: CreationPolynomial
    weight: float


def condition(total_state: CreationPolynomial, measured: str, outcome: int) -> ConditionalState:
    """Conditional state and outcome probability for one photon count.

    Outcomes above the mode's maximal degree give the zero state with weight
    zero (not an error); a zero total state is rejected.
    """
    if outcome < 0:
        raise ValueError("photon count must be nonnegative")
    if total_state.is_zero():
        raise ZeroStateError("cannot condition the zero state")
    expansion = expand_by_mode(total_state, measured)
    weight = expansion.weights()[outcome] if outcome <= expansion.order else 0.0
    return ConditionalState(
        outcome=outcome, state=expansion.coefficient(outcome), weight=weight
    )


def outcome_distribution(
    total_state: CreationPolynomial, measured: str
) -> list[tuple[int, float]]:
    """All outcome probabilities for measuring one mode; they sum to one."""
    return list(enumerate(expand_by_mode(total_state, measured).weights()))


# -- cascades ---------------------------------------------------------------

Branch = Union["CascadeStage", str]


@dataclass(frozen=True)
class CascadeStage:
    """One stage of a conditional cascade.

    The stage optionally mixes the surviving modes in ``network`` (None means
    no mixing), then measures ``measure``.  ``branches`` maps each photon
    count either to the next stage or to a leaf decision label.  Outcomes
    without an entry become uncovered leaves (label None).
    """

    measure: str
    network: LinearNetwork | None = None
    branches: Mapping[int, Branch] = field(default_factory=dict)


@dataclass
class OutcomeNode:
    """Node of the outcome tree of one strategy on a set of inputs.

    Per input: ``weights`` is the outcome probability given the parent,
    ``probabilities`` is cumulative from the root, and ``states`` holds the
    conditional state of every input that reached the parent, None for the
    others; only those weighing at least ZERO_WEIGHT_TOL here go further.
    Leaves carry a decision ``label`` (None when the strategy left the outcome
    uncovered).  A node no input reaches is kept, flagged, and not expanded.
    """

    history: tuple[int, ...]
    weights: tuple[float, ...]
    probabilities: tuple[float, ...]
    states: tuple[CreationPolynomial | None, ...] = field(metadata={"json": None})
    zero_weight: bool
    covered: bool
    label: str | None = None
    children: list["OutcomeNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["OutcomeNode"]:
        if self.is_leaf():
            return [self]
        out: list[OutcomeNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


ZERO_WEIGHT_TOL = 1e-12


def run_cascade(
    input_states: Sequence[CreationPolynomial],
    stage: CascadeStage,
    aux: CreationPolynomial | None = None,
) -> OutcomeNode:
    """Evaluate a cascade strategy on nonzero input states of one registry.

    Returns the root of the one outcome tree, whose leaves are the strategy's
    outcome histories.  Every possible photon count at each stage gets a node
    (zero-weight ones flagged); per input, cumulative probabilities over any
    frontier of the tree sum to one.  The tree is that of ``aux * psi_k``
    (None: the constant 1), but the root sums its children's coefficients
    from sub(aux) and each sub(psi_k) with :func:`product_coefficients`, so
    no product is formed.  The root node keeps the ``psi_k``.
    """
    states = tuple(input_states)
    if not states or any(s.is_zero() for s in states) or (aux is not None and aux.is_zero()):
        raise ZeroStateError("cannot run a cascade on the zero state or on no state")
    for s in states + (() if aux is None else (aux,)):
        states[0].registry.require_same(s.registry)
    root = OutcomeNode(
        history=(),
        weights=(1.0,) * len(states),
        probabilities=(1.0,) * len(states),
        states=states,
        zero_weight=False,
        covered=True,
    )
    _expand_stage(root, stage, aux)
    return root


def _expand_stage(node: OutcomeNode, stage: CascadeStage, aux: CreationPolynomial | None) -> None:
    registry = next(s for s in node.states if s is not None).registry
    if stage.measure not in registry:
        raise StrategyError(
            f"strategy measures mode {stage.measure!r} which is not available "
            f"(already measured or unknown)"
        )
    net = stage.network
    if net is not None:
        net.registry.require_same(registry)

    def split(state: CreationPolynomial) -> ModeExpansion:
        return expand_by_mode(state if net is None else substitute(state, net), stage.measure)

    expansions = [split(s) if w >= ZERO_WEIGHT_TOL else None for s, w in zip(node.states, node.weights)]
    if aux is not None:
        aux_exp = split(aux)
        expansions = [
            replace(aux_exp, coefficients=product_coefficients(aux_exp, e, 0, aux_exp.order + e.order))
            for e in expansions
        ]
    weights = [() if e is None else e.weights() for e in expansions]
    for n in range(max(map(len, weights))):
        row = tuple(w[n] if n < len(w) else 0.0 for w in weights)
        child = OutcomeNode(
            history=node.history + (n,),
            weights=row,
            probabilities=tuple(p * w for p, w in zip(node.probabilities, row)),
            states=tuple(e if e is None else e.coefficient(n) for e in expansions),
            zero_weight=max(row) < ZERO_WEIGHT_TOL,
            covered=True,
        )
        node.children.append(child)
        branch = stage.branches.get(n)
        if isinstance(branch, CascadeStage) and not child.zero_weight:
            _expand_stage(child, branch, None)
        elif isinstance(branch, str):
            child.label = branch
        elif branch is None:
            child.covered = False


def validate_strategy(
    stage: CascadeStage, registry: ModeRegistry, max_photons: int
) -> None:
    """Static hygiene pass over a strategy tree.

    Checks that every stage measures a still-available mode, that stage
    networks match the surviving registry, and that no branch key references
    an impossible photon count (more photons than can remain at that point).
    Every error starts with the failing stage's branch path from the root.
    """
    _validate_stage(stage, registry, max_photons, "strategy")


def _validate_stage(
    stage: CascadeStage, registry: ModeRegistry, max_photons: int, where: str
) -> None:
    if stage.measure not in registry:
        raise StrategyError(f"{where}: stage measures unavailable mode {stage.measure!r}")
    if stage.network is not None and stage.network.registry != registry:
        raise StrategyError(
            f"{where}: stage network modes {stage.network.registry.labels} do not match "
            f"surviving modes {registry.labels}"
        )
    for n, branch in stage.branches.items():
        if not isinstance(n, int) or n < 0:
            raise StrategyError(f"{where}: branch key {n!r} is not a photon count")
        if n > max_photons:
            raise StrategyError(
                f"{where}: branch for outcome {n} is unreachable (at most {max_photons} "
                f"photons can arrive here)"
            )
        if isinstance(branch, CascadeStage):
            _validate_stage(
                branch, registry.without(stage.measure), max_photons - n, f"{where}.branches[{n}]"
            )
        elif not isinstance(branch, str):
            raise StrategyError(f"{where}: branch must be a stage or a label, got {branch!r}")
