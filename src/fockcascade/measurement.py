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
form of a strategy is read by ``instancefile``; :func:`run_cascade` checks its
structure once, up front, and ``cascade_discrimination`` adds the photon bound.

The tree is evaluated a level at a time from the root down: the nodes of a
level that measure one mode of one registry share one numpy pass.  Each
input is a vector over the graded monomial basis, and the network's image of
degree block d is a matrix built from that of block d - 1.  Per node and
input the pass prunes where ``substitute`` does, at PRUNE_TOL relative to the
input's peak after the network; no bucket's peak is above that, so the
buckets drop nothing, as in ``expand_by_mode``.  One scatter through a cached
position table turns the kept entries into the children's rows over the
graded basis of the other modes; the next level reads those rows, and
``node.states[k]`` builds its polynomial only when it is read.  Past the
photon cap the pass checks the entries it keeps, as ``substitute`` does.
Only a node whose image blocks would exceed IMAGE_BLOCK_BUDGET (4 MiB; 5
modes and 8 photons need 6.4) is split on its own, through ``substitute``.
A pass node's children never are (one mode fewer, no more photons), so only
the top of a tree is: the root, and the children of such nodes until they fit.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Union

import numpy as np

from .errors import PhotonCapError, StrategyError, ZeroStateError
from .modes import ModeRegistry
from .network import LinearNetwork, substitute
from .poly import _FACTORIAL, PRUNE_TOL, CreationPolynomial, Exponents, _mul_into, vacuum_norm_sq


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
        """The polynomial :func:`expand_by_mode` split (exact; drops no term)."""
        pos = self.source_registry.index(self.measured)
        terms: dict[Exponents, complex] = {}
        for n, part in enumerate(self.coefficients):
            for exps, coeff in part.items():
                full = exps[:pos] + (n,) + exps[pos:]
                terms[full] = coeff
        return CreationPolynomial._trusted(self.source_registry, terms, pruned=True)


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
        coefficients=tuple(CreationPolynomial._trusted(reduced, b, pruned=True) for b in buckets),
    )


def product_coefficients(
    left: ModeExpansion, right: ModeExpansion, lo: int, hi: int
) -> tuple[CreationPolynomial, ...]:
    """Coefficients N = lo..hi of the product of two expanded polynomials.

    Coefficient N of ``p * q`` is the Cauchy sum ``sum_a p_a * q_(N-a)``, so
    the product itself is never formed: each N is summed into one dict and
    pruned once, relative to its own peak.  ``PhotonCapError`` is raised
    when the highest powers of some mode in ``p`` and in ``q`` add up past
    the cap, so that ``p * q`` has a term past it before pruning; the
    measured mode counts too, although the reduced registry of the result
    cannot hold it.
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
    others (at the root, the inputs themselves), each built when first read;
    only those weighing at least ZERO_WEIGHT_TOL here go further.
    Leaves carry a decision ``label`` (None when the strategy left the outcome
    uncovered).  A node no input reaches is kept, flagged, and not expanded.
    """

    history: tuple[int, ...]
    weights: tuple[float, ...]
    probabilities: tuple[float, ...]
    states: NodeStates = field(metadata={"json": None})
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


class NodeStates(Sequence):
    """The states of a node's inputs on ``registry``, None for the inputs that
    did not reach its parent.  The level pass hands a node its states as
    ``rows`` of one block over the graded basis (monomial q is ``keys[q]``),
    ``...`` until read: each becomes a polynomial when first read."""

    def __init__(self, registry: ModeRegistry, states, rows: np.ndarray | None = None, keys=()):
        self.registry, self.rows, self._keys, self._states = registry, rows, keys, list(states)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, k: int) -> CreationPolynomial | None:
        if self._states[operator.index(k)] is ...:
            at = np.flatnonzero(self.rows[k])
            terms = dict(zip([self._keys[q] for q in at.tolist()], self.rows[k, at].tolist()))
            self._states[k] = CreationPolynomial._trusted(self.registry, terms, pruned=True)
        return self._states[k]

    def degree(self, live: list[bool]) -> int:
        """The highest degree over the states of the ``live`` inputs."""
        if self.rows is None:
            return max(s.degree for s, reached in zip(self._states, live) if reached)
        return sum(self._keys[np.flatnonzero(self.rows[live].any(axis=0))[-1]])

    def fill(self, block: np.ndarray, live: list[bool], tables: list) -> None:
        """Write the states of the ``live`` inputs into the rows of ``block``."""
        if self.rows is None:
            for k in np.flatnonzero(live):
                _level_input(self[k], tables, block[k])
        else:
            block[live, : self.rows.shape[-1]] = self.rows[live, : block.shape[-1]]  # the rest is 0


ZERO_WEIGHT_TOL = 1e-12
IMAGE_BLOCK_BUDGET = 1 << 22  # bytes of one node's image blocks, 16 per complex entry (4 MiB)


def run_cascade(
    input_states: Sequence[CreationPolynomial],
    stage: CascadeStage,
    aux: CreationPolynomial | None = None,
) -> OutcomeNode:
    """Evaluate a cascade strategy on nonzero input states of one registry.

    Returns the root of the one outcome tree, whose leaves are the strategy's
    outcome histories.  Every possible photon count at each stage gets a node
    (zero-weight ones flagged); per input, cumulative probabilities over any
    frontier of the tree sum to one.  With an ``aux`` the inputs are the
    products ``aux * psi_k``, which the root node holds.
    """
    states = tuple(input_states)
    if aux is not None:
        states = tuple(aux * psi for psi in states)
    if not states or any(s.is_zero() for s in states):
        raise ZeroStateError("cannot run a cascade on the zero state or on no state")
    for s in states:
        states[0].registry.require_same(s.registry)
    validate_strategy(stage, states[0].registry, math.inf)
    root = OutcomeNode(
        history=(),
        weights=(1.0,) * len(states),
        probabilities=(1.0,) * len(states),
        states=NodeStates(states[0].registry, states),
        zero_weight=False,
        covered=True,
    )
    level = [(root, stage)]
    while level:
        groups: dict[tuple[ModeRegistry, str], list] = {}
        for node, branch in level:
            groups.setdefault((node.states.registry, branch.measure), []).append((node, branch))
        splits = [split for key, group in groups.items() for split in _split_level(*key, group)]
        level = [pair for node, branch, split in splits for pair in _attach(node, branch, *split)]
    return root


def _split_node(node: OutcomeNode, stage: CascadeStage):
    """The per-node route: the states of each child, and the outcome weights
    of each input (() for the inputs not reaching ``node``)."""
    net = stage.network
    expansions = [
        expand_by_mode(s if net is None else substitute(s, net), stage.measure)
        if w >= ZERO_WEIGHT_TOL else None
        for s, w in zip(node.states, node.weights)
    ]
    weights = [() if e is None else e.weights() for e in expansions]
    reduced, count = node.states.registry.without(stage.measure), max(map(len, weights))
    children = [NodeStates(reduced, [e if e is None else e.coefficient(n) for e in expansions]) for n in range(count)]
    return children, weights


def _attach(node: OutcomeNode, stage: CascadeStage, children, weights) -> list:
    """Give ``node`` a child per outcome; return the (child, stage) pairs to go on."""
    going_on = []
    for n, states in enumerate(children):
        row = tuple(w[n] if n < len(w) else 0.0 for w in weights)
        branch = stage.branches.get(n)
        child = OutcomeNode(
            history=node.history + (n,),
            weights=row,
            probabilities=tuple(p * w for p, w in zip(node.probabilities, row)),
            states=states,
            zero_weight=max(row) < ZERO_WEIGHT_TOL,
            covered=branch is not None,
            label=branch if isinstance(branch, str) else None,
        )
        node.children.append(child)
        if isinstance(branch, CascadeStage) and not child.zero_weight:
            going_on.append((child, branch))
    return going_on


def _split_level(registry: ModeRegistry, measure: str, group: list) -> list:
    """(node, stage, what :func:`_split_node` gives) for the nodes of ``group``,
    in one pass or, past its limits, per node.  Every sum runs over one degree
    block of one node and input, so no number depends on the rest of the batch."""
    m, out, batch = registry.size, [], []
    for node, stage in group:
        live = [w >= ZERO_WEIGHT_TOL for w in node.weights]
        top = node.states.degree(live)
        entries = sum(math.comb(m + d - 1, d) ** 2 for d in range(top + 1))
        if 16 * entries > IMAGE_BLOCK_BUDGET:
            out.append((node, stage, _split_node(node, stage)))
        else:
            batch.append((top, node, stage, live))
    if not batch:
        return out
    batch.sort(key=lambda item: -item[0])
    c, tops = registry.index(measure), [item[0] for item in batch]
    alive = np.array([live for *_, live in batch])
    tables = [_Monomials(m, d) for d in range(tops[0] + 1)]
    amp = np.zeros(alive.shape + (tables[-1].span.stop,), complex)
    for i, (_, node, _, live) in enumerate(batch):
        node.states.fill(amp[i], live, tables)
    unitary = np.stack([np.eye(m) if s.network is None else s.network.matrix for _, _, s, _ in batch])
    block = np.ones((len(batch), 1, 1), complex)
    for d, t in enumerate(tables[1:], 1):
        active = sum(top >= d for top in tops)
        prev, coef = block[:active][:, :, t.parent], unitary[:active][:, :, t.last]
        block = np.zeros((active, len(t.monos), len(t.monos)), complex)
        for j in range(m):
            block[:, t.raised[:, j]] += prev * coef[:, j, None, :]
        for k in range(alive.shape[1]):
            amp[:active, k, t.span] = (block * amp[:active, k, None, t.span]).sum(axis=-1)
    mag = np.abs(amp)
    keep = mag > PRUNE_TOL * mag.max(axis=-1, keepdims=True)
    if tops[0] > registry.photon_cap:  # as CreationPolynomial._capped: kept entries count
        peak = np.where(keep, np.concatenate([t.exps for t in tables]).max(axis=-1), 0).max()
        if peak > registry.photon_cap:
            raise PhotonCapError(f"occupation {peak} exceeds photon cap {registry.photon_cap}")
    power, at, keys = _reduction(m, c, tops[0])
    norms = np.where(keep, mag * mag, 0.0) * np.concatenate([t.fact for t in tables])
    raw = np.zeros(alive.shape + (len(tables),))
    for d, t in enumerate(tables):
        for n in range(d + 1):
            raw[..., n] += norms[..., t.span][..., t.exps[:, c] == n].sum(axis=-1)
    total = np.cumsum(raw, axis=-1)[..., -1]
    if (total[alive] == 0).any():
        raise ZeroStateError("cannot measure the zero state")
    rows = np.zeros(alive.shape + (len(tables), len(keys)), complex)
    rows[..., power, at] = np.where(keep, amp, 0)
    orders = np.where(keep, power, -1).max(axis=-1).tolist()
    for i, (_, node, stage, live) in enumerate(batch):
        weights = [(raw[i, k, : n + 1] / total[i, k]).tolist() if n >= 0 else () for k, n in enumerate(orders[i])]
        unread = [... if reached else None for reached in live]
        children = [NodeStates(registry.without(measure), unread, rows[i, :, n], keys) for n in range(max(orders[i]) + 1)]
        out.append((node, stage, (children, weights)))
    return out


def _level_input(state: CreationPolynomial, tables: list, row: np.ndarray) -> None:
    """Write the coefficients of ``state`` into ``row`` by graded-basis position."""
    for exps, coeff in state.items():
        t = tables[sum(exps)]
        row[t.span.start + t.index[exps]] = coeff


@functools.cache
class _Monomials:
    """The monomials of degree d on m modes in ``combinations_with_replacement``
    order, at positions ``span`` after those of lower degree.  Monomial e is
    monomial ``parent[e]`` of degree d - 1 times mode ``last[e]`` (its first
    occupied mode), and ``raised[g, j]`` is monomial g of degree d - 1 times
    mode j.  ``fact`` is the product of the factorials of the occupations,
    which IMAGE_BLOCK_BUDGET keeps within the table (at most 90 photons on
    two or more modes; one mode holds no more than the photon cap)."""

    def __init__(self, m: int, d: int):
        combos = combinations_with_replacement(range(m), d)
        self.monos = [tuple(c.count(j) for j in range(m)) for c in combos]
        self.index = {e: k for k, e in enumerate(self.monos)}
        self.span = slice(math.comb(m + d - 1, m), math.comb(m + d, m))
        self.exps = np.array(self.monos, dtype=np.intp)
        self.fact = np.prod(np.array(_FACTORIAL)[self.exps], axis=1)
        if d:
            lower, unit = _Monomials(m, d - 1), np.eye(m, dtype=np.intp)
            self.last = (self.exps > 0).argmax(axis=1)
            self.parent = [lower.index[tuple(e)] for e in (self.exps - unit[self.last]).tolist()]
            raised = (lower.exps[:, None, :] + unit).tolist()
            self.raised = np.array([[self.index[tuple(e)] for e in row] for row in raised])


@functools.cache
def _reduction(m: int, c: int, top: int):
    """Each graded position on m modes up to degree ``top``: its power on mode
    c and its position on m - 1 modes without c; and the monomials there.  The
    positions with n photons on c land, in order, on the first reduced
    positions (the order fact of ``fockdense``, in descending order here)."""
    monos = [e for d in range(top + 1) for e in _Monomials(m, d).monos]
    power = np.array([e[c] for e in monos])
    rank = np.cumsum(power[:, None] == np.arange(top + 1), axis=0)[np.arange(power.size), power] - 1
    return power, rank, tuple(e[:c] + e[c + 1 :] for e in monos if e[c] == 0)


def validate_strategy(
    stage: CascadeStage, registry: ModeRegistry, max_photons: float
) -> None:
    """Static hygiene pass over a strategy tree.

    Checks that every stage measures a still-available mode, that stage
    networks match the surviving registry, and that no branch key references
    an impossible photon count (more photons than can remain at that point;
    ``math.inf`` checks the structure alone).  Every error starts with the
    failing stage's branch path from the root.
    """
    _validate_stage(stage, registry, max_photons, "strategy")


def _validate_stage(
    stage: CascadeStage, registry: ModeRegistry, max_photons: float, where: str
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
