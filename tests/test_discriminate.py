"""Distinguishability verdicts and the necessity probe."""

import math
from itertools import combinations

import numpy as np
import pytest

from fockcascade import (
    CascadeStage,
    CreationPolynomial,
    DiscriminationInstance,
    ModeRegistry,
    StrategyError,
    beam_splitter,
    cascade_discrimination,
    condition,
    identity,
    necessity_probe,
    random_network,
    random_nogo_instance,
    run_cascade,
    stage_orthogonality,
    substitute,
    vacuum_inner_product,
    vacuum_norm_sq,
    verify_no_go,
)
from fockcascade import discriminate, measurement, nogo
from fockcascade.instancefile import parse_instance
from fockcascade.sampling import random_aux_state
from helpers import bell_instance, orthogonal_states, random_full_strategy

REG2 = ModeRegistry(("m1", "m2"))


def plus_minus_pair(reg=REG2):
    r = 1.0 / math.sqrt(2.0)
    plus = r * (CreationPolynomial.mode(reg, "m1") + CreationPolynomial.mode(reg, "m2"))
    minus = r * (CreationPolynomial.mode(reg, "m1") - CreationPolynomial.mode(reg, "m2"))
    return plus, minus


def constant_aux(reg):
    return CreationPolynomial.constant(reg, 1.0)


class TestInstanceValidation:
    def test_orthogonality_required(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = p + 0.5 * CreationPolynomial.mode(REG2, "m2")
        with pytest.raises(ValueError):
            DiscriminationInstance(states=(p, q), aux=constant_aux(REG2))

    def test_valid_instance(self):
        plus, minus = plus_minus_pair()
        DiscriminationInstance(states=(plus, minus), aux=constant_aux(REG2))

    def test_aux_support_must_be_disjoint(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        with pytest.raises(ValueError):
            DiscriminationInstance(states=(p, q), aux=CreationPolynomial.mode(REG2, "m1"))


class TestStageOrthogonality:
    def test_disjoint_support_is_vacuous(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        inst = DiscriminationInstance(states=(p, q), aux=constant_aux(REG2))
        report = stage_orthogonality(inst, identity(REG2), "m1")
        assert report.verdict
        # every outcome has at least one vanishing weight
        assert all(r.vacuous for r in report.records)

    def test_superposed_pair_fails_identity(self):
        plus, minus = plus_minus_pair()
        inst = DiscriminationInstance(states=(plus, minus), aux=constant_aux(REG2))
        report = stage_orthogonality(inst, identity(REG2), "m1")
        assert not report.verdict
        failing = [r for r in report.records if not r.distinguished]
        assert failing
        for r in failing:
            assert abs(abs(r.inner_product) - 0.5) < 1e-12

    def test_superposed_pair_passes_after_splitter(self):
        plus, minus = plus_minus_pair()
        inst = DiscriminationInstance(states=(plus, minus), aux=constant_aux(REG2))
        splitter = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        report = stage_orthogonality(inst, splitter, "m1")
        assert report.verdict

    def test_records_carry_both_weights(self):
        plus, minus = plus_minus_pair()
        inst = DiscriminationInstance(states=(plus, minus), aux=constant_aux(REG2))
        report = stage_orthogonality(inst, identity(REG2), "m1")
        for r in report.records:
            assert 0.0 <= r.weight_i <= 1.0
            assert 0.0 <= r.weight_j <= 1.0

    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_one_substitution_per_state(self, monkeypatch, n_states):
        # One split of the cascade's root in the level pass, with the K
        # products aux*psi as its inputs, and no substitution, expansion or
        # conditioning; the records still match conditioning sub(aux*psi)
        # once per outcome.
        rng = np.random.default_rng(70 + n_states)
        reg = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        states = orthogonal_states(rng, reg, ("s0", "s1", "s2"), 2, n_states)
        aux = random_aux_state(rng, reg, ("b0", "b1"), 2)
        net = random_network(reg, rng)
        inst = DiscriminationInstance(states=tuple(states), aux=aux)
        calls = {"substitute": 0, "expand_by_mode": 0, "condition": 0}
        splits = []
        split_level = measurement._split_level

        def recording(registry, measure, group):
            splits.append([(node.history, len(node.states)) for node, _ in group])
            return split_level(registry, measure, group)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for module in (nogo, discriminate, measurement):
                for name in calls:
                    if hasattr(module, name):
                        patch.setattr(module, name, counted(name, getattr(module, name)))
            patch.setattr(measurement, "_split_level", recording)
            report = stage_orthogonality(inst, net, "s0")
        assert calls == {"substitute": 0, "expand_by_mode": 0, "condition": 0}
        assert splits == [[((), n_states)]]
        totals = [substitute(aux * psi, net) for psi in states]
        for r in report.records:
            cond_i = condition(totals[r.i], "s0", r.outcome)
            cond_j = condition(totals[r.j], "s0", r.outcome)
            assert abs(r.weight_i - cond_i.weight) <= 1e-12
            assert abs(r.weight_j - cond_j.weight) <= 1e-12
            want = vacuum_inner_product(cond_i.state, cond_j.state)
            assert abs(r.inner_product - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("n_states", [2, 3])
    def test_agrees_with_verify_no_go_across_the_networks(self, n_states):
        # V[s] is the stage record at outcome n_a + n_s - s.  verify_no_go
        # substitutes through the reduced network and the stage check through
        # the full one, so the two agree to rounding, not bit for bit.
        rng = np.random.default_rng(90 + n_states)
        reg = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        states = orthogonal_states(rng, reg, ("s0", "s1", "s2"), 2, n_states)
        aux = random_aux_state(rng, reg, ("b0", "b1"), 2)
        net = random_network(reg, rng)
        stage = stage_orthogonality(DiscriminationInstance(states=tuple(states), aux=aux), net, "s0")
        report = verify_no_go(aux, states, net, "s0")
        top = report.aux_order + report.system_order
        assert stage.max_outcome == top
        inner = {(r.i, r.j, r.outcome): r.inner_product for r in stage.records}
        assert len(report.pairs) == n_states * (n_states - 1) // 2
        for pair in report.pairs:
            assert any(v != 0 for v in pair.with_aux)
            scale = max(1.0, max(abs(v) for v in pair.with_aux))
            for s, v in enumerate(pair.with_aux):
                assert abs(inner[(pair.i, pair.j, top - s)] - v) <= 1e-12 * scale


class TestRootStage:
    """``cascade_discrimination`` reads the root-stage report off its own
    tree; it is the report ``stage_orthogonality`` gives for the root stage,
    with the identity standing in for a root without a network."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stage_orthogonality(self, seed):
        rng = np.random.default_rng(110 + seed)
        reg = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        states = orthogonal_states(rng, reg, ("s0", "s1", "s2"), 2, 2 + seed % 3)
        aux = random_aux_state(rng, reg, ("b0", "b1"), 1 + seed % 2)
        net = random_network(reg, rng) if seed % 2 else None
        measure = reg.labels[seed % reg.size]
        top = 2 + aux.degree
        strategy = CascadeStage(measure, net, {n: f"n{n}" for n in range(top + 1)})
        inst = DiscriminationInstance(states=tuple(states), aux=aux, strategy=strategy)
        got = cascade_discrimination(inst).root_stage
        want = stage_orthogonality(inst, net or identity(reg), measure)
        assert (got.measured, got.max_outcome, got.verdict) == (
            want.measured, want.max_outcome, want.verdict
        )
        assert len(got.records) == len(want.records) > 0
        for r, q in zip(got.records, want.records):
            assert (r.i, r.j, r.outcome, r.orthogonal, r.vacuous, r.distinguished) == (
                q.i, q.j, q.outcome, q.orthogonal, q.vacuous, q.distinguished
            )
            for name in ("inner_product", "weight_i", "weight_j"):
                assert abs(getattr(r, name) - getattr(q, name)) <= 1e-12


def full_measurement_strategy(reg, total_photons=1, network=None, depth_labels=("m1", "m2")):
    """Measure every mode in order, labelling leaves by their history."""
    first, second = depth_labels

    def leaf(n1, n2):
        return f"saw-{n1}{n2}"

    branches = {
        n1: CascadeStage(
            measure=second,
            branches={n2: leaf(n1, n2) for n2 in range(total_photons - n1 + 1)},
        )
        for n1 in range(total_photons + 1)
    }
    return CascadeStage(measure=first, network=network, branches=branches)


class TestCascadeDiscrimination:
    def test_disjoint_states_pass(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        inst = DiscriminationInstance(
            states=(p, q),
            aux=constant_aux(REG2),
            strategy=full_measurement_strategy(REG2),
        )
        report = cascade_discrimination(inst)
        assert report.verdict
        assert not report.ambiguous_leaves

    def test_superposed_pair_fails_identity_boxes(self):
        plus, minus = plus_minus_pair()
        inst = DiscriminationInstance(
            states=(plus, minus),
            aux=constant_aux(REG2),
            strategy=full_measurement_strategy(REG2),
        )
        report = cascade_discrimination(inst)
        assert not report.verdict
        histories = {leaf.history for leaf in report.ambiguous_leaves}
        assert (1, 0) in histories and (0, 1) in histories

    def test_superposed_pair_passes_with_splitter(self):
        plus, minus = plus_minus_pair()
        splitter = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        inst = DiscriminationInstance(
            states=(plus, minus),
            aux=constant_aux(REG2),
            strategy=full_measurement_strategy(REG2, network=splitter),
        )
        report = cascade_discrimination(inst)
        assert report.verdict

    def test_verdict_stable_under_reordering(self):
        plus, minus = plus_minus_pair()
        for states in [(plus, minus), (minus, plus)]:
            inst = DiscriminationInstance(
                states=states,
                aux=constant_aux(REG2),
                strategy=full_measurement_strategy(REG2),
            )
            assert not cascade_discrimination(inst).verdict
        splitter = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        for states in [(plus, minus), (minus, plus)]:
            inst = DiscriminationInstance(
                states=states,
                aux=constant_aux(REG2),
                strategy=full_measurement_strategy(REG2, network=splitter),
            )
            assert cascade_discrimination(inst).verdict

    def test_verdict_stable_under_relabeling(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        relabelled = CascadeStage(
            measure="m1",
            branches={
                n1: CascadeStage(
                    measure="m2",
                    branches={n2: f"alt-{n1}-{n2}" for n2 in range(2 - n1)},
                )
                for n1 in range(2)
            },
        )
        inst = DiscriminationInstance(
            states=(p, q), aux=constant_aux(REG2), strategy=relabelled
        )
        assert cascade_discrimination(inst).verdict

    def test_uncovered_reachable_outcome_raises(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        sparse = CascadeStage(measure="m1", branches={1: "first"})  # misses N=0
        inst = DiscriminationInstance(
            states=(p, q), aux=constant_aux(REG2), strategy=sparse
        )
        with pytest.raises(StrategyError):
            cascade_discrimination(inst)

    def test_missing_strategy_raises(self):
        p = CreationPolynomial.mode(REG2, "m1")
        q = CreationPolynomial.mode(REG2, "m2")
        inst = DiscriminationInstance(states=(p, q), aux=constant_aux(REG2))
        with pytest.raises(StrategyError):
            cascade_discrimination(inst)


def worst_reachable_overlap(node) -> float:
    """The largest |<q_i|q_j>| / (||q_i|| ||q_j||) over the nodes of the tree
    below ``node`` and the pairs of inputs that reach each node with
    cumulative probability at least ZERO_WEIGHT_TOL."""
    reach = [k for k, p in enumerate(node.probabilities) if p >= measurement.ZERO_WEIGHT_TOL]
    worst = 0.0
    for i, j in combinations(reach, 2):
        qi, qj = node.states[i], node.states[j]
        norms = math.sqrt(vacuum_norm_sq(qi) * vacuum_norm_sq(qj))
        worst = max(worst, abs(vacuum_inner_product(qi, qj)) / norms)
    return max([worst] + [worst_reachable_overlap(child) for child in node.children])


class TestCascadeClaim:
    """The paper's claim through a whole cascade.  At every node the
    children's overlaps sum back to the parent's, so two inputs that reach a
    node with a nonzero overlap both reach some leaf below it: the verdict
    is False.  A root stage that fails the no-go makes such a node."""

    def test_reachable_overlap_forces_a_false_verdict(self):
        reg = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        overlapping = root_failed = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            photons = int(rng.integers(1, 3))
            states = orthogonal_states(rng, reg, ("s0", "s1", "s2"), photons, 3)
            aux = random_aux_state(rng, reg, ("b0", "b1"), int(rng.integers(0, 3)))
            strategy = random_full_strategy(rng, reg, photons + aux.degree)
            report = cascade_discrimination(DiscriminationInstance(states, aux, strategy))
            if worst_reachable_overlap(run_cascade(states, strategy, aux)) > 1e-6:
                overlapping += 1
                assert report.verdict is False, seed
            if not report.root_stage.verdict:
                root_failed += 1
                assert report.verdict is False, seed
        assert overlapping and root_failed

    @pytest.mark.parametrize("splitter", [True, False])
    def test_plus_minus_with_and_without_a_splitter(self, splitter):
        # Random full strategies never pass, so the True side is pinned here:
        # a 50:50 splitter sends |+> and |-> to orthogonal single-mode states.
        states, aux = plus_minus_pair(), constant_aux(REG2)
        net = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2) if splitter else None
        strategy = full_measurement_strategy(REG2, network=net)
        report = cascade_discrimination(DiscriminationInstance(states, aux, strategy))
        worst = worst_reachable_overlap(run_cascade(states, strategy, aux))
        assert report.verdict is splitter
        if splitter:
            assert worst <= 1e-12
        else:
            assert worst == pytest.approx(1.0)


class TestBellStates:
    """The four polarization Bell states, two 50:50 splitters, all four
    modes measured, no aux photons: two of the four states are identified,
    a mean success probability of 1/2, the known maximum for linear optics
    without ancillas (Calsamiglia & Lütkenhaus, Appl. Phys. B 72, 67 (2001))."""

    def test_half_of_the_bell_states_identified(self):
        data = parse_instance(bell_instance())
        inst = DiscriminationInstance(states=data.states, aux=data.aux, strategy=data.strategy)
        report = cascade_discrimination(inst)
        assert report.verdict is False
        identified = sum(sum(leaf.probabilities) for leaf in report.leaves if not leaf.ambiguous)
        assert abs(identified / len(inst.states) - 0.5) <= 1e-12


class TestTheoremEndToEnd:
    def test_stage_verdicts_agree_with_and_without_aux(self):
        # Whenever the single-stage check fails with auxiliary photons it
        # also fails with the auxiliary removed, and vice versa.
        rng = np.random.default_rng(61)
        hits = {True: 0, False: 0}
        for _ in range(20):
            n_sys = int(rng.integers(2, 4))
            degree = int(rng.integers(1, 3))
            labels = tuple(f"s{k}" for k in range(n_sys)) + ("b0",)
            reg = ModeRegistry(labels)
            states = orthogonal_states(rng, reg, labels[:-1], degree, 2)
            aux = random_aux_state(rng, reg, ("b0",), int(rng.integers(1, 3)))
            from fockcascade.network import random_network

            net = random_network(reg, rng)
            measured = labels[int(rng.integers(0, len(labels)))]
            with_aux = stage_orthogonality(
                DiscriminationInstance(states=tuple(states), aux=aux), net, measured
            )
            without = stage_orthogonality(
                DiscriminationInstance(states=tuple(states), aux=constant_aux(reg)),
                net,
                measured,
            )
            hits[with_aux.verdict] += 1
            if not with_aux.verdict:
                assert not without.verdict
            if not without.verdict:
                assert not with_aux.verdict
        # the sample should include failing stages (passing ones are rare)
        assert hits[False] > 0


class TestNecessityProbe:
    def test_constant_aux_gives_identity_transfer(self):
        plus, minus = plus_minus_pair()
        inst = DiscriminationInstance(states=(plus, minus), aux=constant_aux(REG2))
        report = necessity_probe(inst, identity(REG2), "m1")
        assert abs(report.sigma_min - 1.0) < 1e-12
        for pair in report.pairs:
            assert abs(pair.with_aux_norm - pair.no_aux_norm) < 1e-12
        assert report.all_hold

    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(62)
        checked = 0
        while checked < 15:
            inst = random_nogo_instance(rng, force_aux_photons=True)
            if len(inst.system_labels) < 2:
                continue  # a 1-mode homogeneous space has no orthogonal pair
            states = orthogonal_states(
                rng,
                inst.registry,
                inst.system_labels,
                inst.states[0].degree,
                2,
            )
            disc = DiscriminationInstance(states=tuple(states), aux=inst.aux)
            report = necessity_probe(disc, inst.network, inst.measured)
            assert report.all_hold
            if any(p.no_aux_norm > 1e-6 for p in report.pairs):
                checked += 1

    def test_distinguishable_pair_keeps_implication(self):
        reg = ModeRegistry(("s0", "s1", "b0"))
        psi1 = CreationPolynomial.mode(reg, "s0")
        psi2 = CreationPolynomial.mode(reg, "s1")
        aux = CreationPolynomial.mode(reg, "b0")
        inst = DiscriminationInstance(states=(psi1, psi2), aux=aux)
        net = beam_splitter(0.6, 0.1, "s0", "b0", reg)
        report = necessity_probe(inst, net, "s0")
        assert report.all_hold
