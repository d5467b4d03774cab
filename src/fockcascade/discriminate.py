"""Distinguishability verdicts for sets of orthogonal photon-number states.

A :class:`DiscriminationInstance` bundles K mutually orthogonal homogeneous
L-photon states (the candidates to identify), an auxiliary state on disjoint
modes, and optionally a measurement cascade strategy.  Three checks are
provided:

* :func:`stage_orthogonality`: after one network and one photon-number
  measurement, are the conditional states of every pair orthogonal at every
  outcome?  Perfect single-stage identification requires exactly this.
* :func:`cascade_discrimination`: does a full strategy end with every
  nonzero-probability leaf reachable by exactly one input state?
* :func:`necessity_probe`: quantitative form of the no-go bound; whenever the
  no-aux overlap vector is nonzero, the with-aux one is bounded away from
  zero by the smallest singular value of the transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StrategyError
from .measurement import ZERO_WEIGHT_TOL, CascadeStage, OutcomeNode, run_cascade, validate_strategy
from .network import LinearNetwork
from .nogo import verify_no_go, _check_aux, _check_states
from .poly import CreationPolynomial, vacuum_inner_product, vacuum_norm_sq

INPUT_ORTHOGONALITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-9
PROBE_SLACK = 1e-8


@dataclass(frozen=True)
class DiscriminationInstance:
    """Candidate state set, auxiliary state, and optional strategy."""

    states: tuple[CreationPolynomial, ...]
    aux: CreationPolynomial
    strategy: CascadeStage | None = None

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        _check_states(states)
        _check_aux(self.aux, states)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                overlap = abs(vacuum_inner_product(states[i], states[j]))
                scale = math.sqrt(
                    vacuum_norm_sq(states[i]) * vacuum_norm_sq(states[j])
                )
                if overlap > INPUT_ORTHOGONALITY_TOL * max(scale, 1.0):
                    raise ValueError(
                        f"candidate states {i} and {j} are not orthogonal "
                        f"(|<i|j>| = {overlap:.3e})"
                    )


@dataclass(frozen=True)
class PairOutcomeRecord:
    """Orthogonality bookkeeping for one pair at one outcome."""

    i: int
    j: int
    outcome: int
    inner_product: complex
    weight_i: float
    weight_j: float
    orthogonal: bool     # inner-product test at scaled tolerance
    vacuous: bool        # some weight below ZERO_WEIGHT_TOL
    distinguished: bool  # vacuous or orthogonal


@dataclass(frozen=True)
class StageReport:
    measured: str
    max_outcome: int
    records: tuple[PairOutcomeRecord, ...]
    verdict: bool


def stage_orthogonality(
    instance: DiscriminationInstance, net: LinearNetwork, measured: str
) -> StageReport:
    """Pairwise conditional-state orthogonality after one measurement.

    Every unordered pair is checked at every outcome from 0 up to the largest
    possible photon count on the measured mode.  A pair counts as
    distinguished at an outcome when the scaled inner-product test passes or
    when at least one conditional weight is vacuously small; both conditions
    are reported separately.  The outcomes are the root children of the
    one-stage cascade ``CascadeStage(measured, net)`` on the instance, whose
    conditional state of input k at outcome N is coefficient N of
    ``sub(aux * psi_k)`` through the full network.
    """
    root = run_cascade(instance.states, CascadeStage(measured, net), instance.aux)
    return _stage_report(root, measured)


def _stage_report(root: OutcomeNode, measured: str) -> StageReport:
    """One record per pair per root child of an outcome tree."""
    records, norms = [], [[vacuum_norm_sq(s) for s in child.states] for child in root.children]
    for i in range(len(root.states)):
        for j in range(i + 1, len(root.states)):
            for outcome, child in enumerate(root.children):
                weight_i, weight_j = child.weights[i], child.weights[j]
                inner = vacuum_inner_product(child.states[i], child.states[j])
                scale = math.sqrt(norms[outcome][i] * norms[outcome][j])
                orthogonal = abs(inner) <= ORTHOGONALITY_TOL * max(scale, 1.0)
                vacuous = min(weight_i, weight_j) < ZERO_WEIGHT_TOL
                records.append(
                    PairOutcomeRecord(
                        i=i,
                        j=j,
                        outcome=outcome,
                        inner_product=inner,
                        weight_i=weight_i,
                        weight_j=weight_j,
                        orthogonal=orthogonal,
                        vacuous=vacuous,
                        distinguished=vacuous or orthogonal,
                    )
                )
    return StageReport(
        measured=measured,
        max_outcome=len(root.children) - 1,
        records=tuple(records),
        verdict=all(r.distinguished for r in records),
    )


@dataclass(frozen=True)
class LeafRecord:
    history: tuple[int, ...]
    label: str | None
    probabilities: tuple[float, ...]   # one per input state
    reachable_states: tuple[int, ...]  # states arriving with nonzero probability
    ambiguous: bool


@dataclass(frozen=True)
class CascadeReport:
    verdict: bool
    leaves: tuple[LeafRecord, ...]
    root_stage: StageReport = field(metadata={"json": None})

    @property
    def ambiguous_leaves(self) -> tuple[LeafRecord, ...]:
        return tuple(leaf for leaf in self.leaves if leaf.ambiguous)


def cascade_discrimination(instance: DiscriminationInstance) -> CascadeReport:
    """Run the strategy once on the candidate set and judge its leaves.

    Passes when every outcome history reached with nonzero probability is
    reached by exactly one input state.  ``root_stage`` is the
    :func:`stage_orthogonality` report of the root stage, read off the same
    tree.  Raises StrategyError when the strategy leaves a reachable outcome
    without a branch or label, or when it references impossible outcomes or
    consumed modes.
    """
    if instance.strategy is None:
        raise StrategyError("instance has no strategy to check")
    aux, states = instance.aux, instance.states
    validate_strategy(instance.strategy, aux.registry, aux.degree + max(psi.degree for psi in states))

    root = run_cascade(states, instance.strategy, aux)
    leaves = []
    for leaf in root.leaves():
        reachable = tuple(k for k, p in enumerate(leaf.probabilities) if p >= ZERO_WEIGHT_TOL)
        if reachable and not leaf.covered:
            raise StrategyError(
                f"strategy leaves reachable outcome history {leaf.history} uncovered"
            )
        leaves.append(
            LeafRecord(leaf.history, leaf.label, leaf.probabilities, reachable, len(reachable) > 1)
        )
    return CascadeReport(
        verdict=all(not leaf.ambiguous for leaf in leaves),
        leaves=tuple(leaves),
        root_stage=_stage_report(root, instance.strategy.measure),
    )


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
