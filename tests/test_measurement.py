"""Mode expansion, conditioning, outcome statistics, and cascades."""

import math
import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcascade import (
    CascadeStage,
    CreationPolynomial,
    FockBasis,
    ModeRegistry,
    PhotonCapError,
    RegistryMismatchError,
    StrategyError,
    ZeroStateError,
    apply_network_dense,
    condition,
    embed,
    expand_by_mode,
    from_matrix,
    outcome_distribution,
    project_outcome_dense,
    random_network,
    random_nogo_instance,
    run_cascade,
    strategy_from_dict,
    substitute,
    validate_strategy,
    vacuum_inner_product,
    vacuum_norm_sq,
)
from fockcascade import measurement
from fockcascade.measurement import ZERO_WEIGHT_TOL, product_coefficients
from fockcascade.poly import report_value
from fockcascade.sampling import random_aux_state, random_homogeneous_state
from helpers import mixed_level, random_full_strategy, random_poly
from reference import reassemble

REG2 = ModeRegistry(("c", "d"))
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def hom_state(reg=REG2):
    """Two-photon interference output ((c^dag)^2 - (d^dag)^2) / 2."""
    pair = CreationPolynomial.mode(reg, "c") * CreationPolynomial.mode(reg, "d")
    return substitute(pair, from_matrix(HADAMARD, reg))


class TestExpansion:
    def test_pure_power(self):
        p = CreationPolynomial.mode(REG2, "c", 2)
        exp = expand_by_mode(p, "c")
        assert exp.order == 2
        assert exp.coefficient(2).coefficient((0,)) == 1.0
        assert exp.coefficient(1).is_zero()
        assert exp.coefficient(0).is_zero()

    def test_direct_collection(self):
        p = (
            CreationPolynomial.mode(REG2, "c") * CreationPolynomial.mode(REG2, "d")
            + CreationPolynomial.mode(REG2, "d", 2)
        )
        exp = expand_by_mode(p, "c")
        assert exp.coefficient(1).coefficient((1,)) == 1.0
        assert exp.coefficient(0).coefficient((2,)) == 1.0

    def test_interference_output(self):
        exp = expand_by_mode(hom_state(), "c")
        assert exp.order == 2
        assert abs(exp.coefficient(2).coefficient((0,)) - 0.5) < 1e-12
        assert exp.coefficient(1).is_zero()
        assert abs(exp.coefficient(0).coefficient((2,)) + 0.5) < 1e-12

    def test_zero_extension(self):
        exp = expand_by_mode(CreationPolynomial.mode(REG2, "d"), "c")
        assert exp.order == 0
        assert exp.coefficient(5).is_zero()

    def test_reassembly_exact(self):
        rng = np.random.default_rng(21)
        reg = ModeRegistry(("c", "d", "e"))
        for _ in range(10):
            p = random_poly(rng, reg, 4)
            exp = expand_by_mode(p, "d")
            assert dict(reassemble(exp).items()) == dict(p.items())


class TestProductCoefficients:
    """Coefficients of a product read from the two expansions (Cauchy sum)."""

    def test_window_matches_the_expanded_product(self):
        rng = np.random.default_rng(23)
        for k in range(16):
            inst = random_nogo_instance(
                rng, max_system_modes=3, max_aux_modes=2, max_photons=3,
                max_aux_photons=2, force_aux_photons=k % 4 != 0,
            )
            aux_out = substitute(inst.aux, inst.network)
            psi_out = substitute(inst.states[0], inst.network)
            aux_exp = expand_by_mode(aux_out, inst.measured)
            psi_exp = expand_by_mode(psi_out, inst.measured)
            full = expand_by_mode(aux_out * psi_out, inst.measured)
            peak = max(q.max_abs_coeff() for q in full.coefficients)
            top = aux_exp.order + psi_exp.order
            window = product_coefficients(aux_exp, psi_exp, 0, top)
            assert len(window) == top + 1
            for n, got in enumerate(window):
                want = full.coefficient(n)
                keys = {e for e, _ in got.items()} | {e for e, _ in want.items()}
                for e in keys:
                    assert abs(got.coefficient(e) - want.coefficient(e)) <= 1e-12 * peak
            # A sub-window is the matching slice of the whole range.
            lo = aux_exp.order
            assert all(
                a.isclose(b, tol=0.0)
                for a, b in zip(product_coefficients(aux_exp, psi_exp, lo, top), window[lo:])
            )

    @pytest.mark.parametrize(
        "left, right, raises",
        [
            ({"c": 3}, {"c": 2}, True),     # the measured mode passes the cap
            ({"d": 3}, {"d": 2}, True),     # a kept mode passes the cap
            ({"d": 3}, {"c": 2}, False),    # degree 5 > 4, but no mode over 4
            ({"c": 2, "d": 1}, {"c": 2, "d": 1}, False),
        ],
    )
    def test_photon_cap_error_as_the_product_raises_it(self, left, right, raises):
        reg = ModeRegistry(("c", "d", "e"), photon_cap=4)
        p = CreationPolynomial.monomial(reg, left) + CreationPolynomial.monomial(reg, {"e": 1})
        q = CreationPolynomial.monomial(reg, right)
        exp_p, exp_q = expand_by_mode(p, "c"), expand_by_mode(q, "c")

        def outcome(call):
            try:
                call()
            except PhotonCapError:
                return True
            return False

        assert outcome(lambda: p * q) is raises
        # The window leaves out the offending coefficient; the error stays.
        assert outcome(lambda: product_coefficients(exp_p, exp_q, 0, 0)) is raises


class TestCondition:
    def test_interference_dip(self):
        cond = condition(hom_state(), "c", 1)
        assert cond.state.is_zero()
        assert cond.weight == 0.0

    def test_bunched_outcome(self):
        cond = condition(hom_state(), "c", 2)
        assert abs(cond.state.coefficient((0,)) - 0.5) < 1e-12
        assert abs(cond.weight - 0.5) < 1e-12

    def test_zero_photon_projection(self):
        state = hom_state()
        cond = condition(state, "c", 0)
        expected = vacuum_norm_sq(expand_by_mode(state, "c").coefficient(0))
        assert abs(cond.weight - expected / vacuum_norm_sq(state)) < 1e-12

    def test_outcome_above_degree(self):
        cond = condition(hom_state(), "c", 7)
        assert cond.state.is_zero() and cond.weight == 0.0

    def test_outcome_above_photon_cap_is_not_an_error(self):
        cond = condition(hom_state(), "c", 25)
        assert cond.state.is_zero() and cond.weight == 0.0

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroStateError):
            condition(CreationPolynomial.zero(REG2), "c", 0)

    def test_matches_dense_projection(self):
        rng = np.random.default_rng(22)
        reg = ModeRegistry(("c", "d", "e"))
        basis = FockBasis(3, 3)
        reduced = FockBasis(2, 3)
        for _ in range(10):
            p = random_poly(rng, reg, 3)
            vec = embed(p, basis)
            for outcome in range(4):
                cond = condition(p, "c", outcome)
                dense_vec, dense_weight = project_outcome_dense(vec, 0, outcome, basis, reduced)
                assert abs(cond.weight - dense_weight) < 1e-9
                u = embed(cond.state, reduced)
                nu, nv = np.linalg.norm(u), np.linalg.norm(dense_vec)
                if nu > 1e-9 and nv > 1e-9:
                    overlap = abs(np.vdot(u, dense_vec)) / (nu * nv)
                    assert abs(1.0 - overlap) < 1e-9


class TestOutcomeDistribution:
    def test_split_single_photon(self):
        out = substitute(
            CreationPolynomial.mode(REG2, "c"), from_matrix(HADAMARD, REG2)
        )
        dist = dict(outcome_distribution(out, "c"))
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[1] - 0.5) < 1e-12

    def test_interference_distribution(self):
        dist = dict(outcome_distribution(hom_state(), "c"))
        assert abs(dist[0] - 0.5) < 1e-12
        assert dist[1] == 0.0
        assert abs(dist[2] - 0.5) < 1e-12

    def test_vacuum_input(self):
        dist = outcome_distribution(CreationPolynomial.constant(REG2, 2.0), "c")
        assert dist == [(0, 1.0)]

    def test_total_probability_random(self):
        rng = np.random.default_rng(23)
        reg = ModeRegistry(("c", "d", "e", "f"))
        for _ in range(15):
            p = random_poly(rng, reg, 4)
            total = sum(w for _, w in outcome_distribution(p, "d"))
            assert abs(total - 1.0) < 1e-9

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroStateError):
            outcome_distribution(CreationPolynomial.zero(REG2), "c")


class TestScaledDown:
    """A state is a ray, so scaling it leaves its outcome weights as they are.
    Below about 1e-154, |c|^2 underflows; both routes divide by the peak
    before they square."""

    @pytest.mark.parametrize("scale", [1e-155, 1e-158, 1e-160, 1e-162])
    def test_weights_match_the_unscaled_state_on_both_routes(self, scale):
        rng = np.random.default_rng(1)
        reg = ModeRegistry(("m0", "m1", "m2"))
        psi = random_homogeneous_state(rng, reg, reg.labels, 2)
        psi = psi.scale(1 / math.sqrt(vacuum_norm_sq(psi)))
        net = random_network(reg, rng)
        expected = [w for _, w in outcome_distribution(substitute(psi, net), "m0")]
        tiny = psi.scale(scale)
        routes = {
            "outcome_distribution": [w for _, w in outcome_distribution(substitute(tiny, net), "m0")],
            "level pass": [
                child.weights[0] for child in run_cascade([tiny], CascadeStage("m0", net)).children
            ],
        }
        for route, got in routes.items():
            assert len(got) == 3 and np.allclose(got, expected, rtol=1e-12, atol=0), (route, got)


class TestCascade:
    def test_depth_one_equals_condition(self):
        state = hom_state()
        tree = run_cascade([state], CascadeStage(measure="c"))
        by_outcome = {node.history[-1]: node for node in tree.children}
        for n, weight in outcome_distribution(state, "c"):
            assert abs(by_outcome[n].weights[0] - weight) < 1e-12

    def test_two_mode_single_photon_identity(self):
        state = 0.6 * CreationPolynomial.mode(REG2, "c") + 0.8 * CreationPolynomial.mode(REG2, "d")
        stage = CascadeStage(
            measure="c",
            branches={
                0: CascadeStage(measure="d", branches={0: "none", 1: "second"}),
                1: CascadeStage(measure="d", branches={0: "first", 1: "both"}),
            },
        )
        tree = run_cascade([state], stage)
        leaf = {node.history: node for node in tree.leaves()}
        assert abs(leaf[(1, 0)].probabilities[0] - 0.36) < 1e-12
        assert abs(leaf[(0, 1)].probabilities[0] - 0.64) < 1e-12
        assert leaf[(1, 0)].label == "first"
        assert leaf[(0, 1)].label == "second"

    def test_interference_then_second_mode(self):
        pair = CreationPolynomial.mode(REG2, "c") * CreationPolynomial.mode(REG2, "d")
        stage = CascadeStage(
            measure="c",
            network=from_matrix(HADAMARD, REG2),
            branches={n: CascadeStage(measure="d") for n in range(3)},
        )
        tree = run_cascade([pair], stage)
        probs = {node.history: node.probabilities[0] for node in tree.leaves()}
        assert abs(probs[(2, 0)] - 0.5) < 1e-12
        assert abs(probs[(0, 2)] - 0.5) < 1e-12
        # the one-photon branch is kept but flagged as impossible
        middle = [n for n in tree.children if n.history == (1,)][0]
        assert middle.zero_weight and middle.is_leaf()

    def test_leaf_probabilities_sum_to_one(self):
        rng = np.random.default_rng(24)
        reg = ModeRegistry(("c", "d", "e"))
        stage = CascadeStage(
            measure="c",
            branches={n: CascadeStage(measure="e") for n in range(5)},
        )
        for _ in range(10):
            state = random_poly(rng, reg, 4)
            tree = run_cascade([state], stage)
            total = sum(node.probabilities[0] for node in tree.leaves())
            assert abs(total - 1.0) < 1e-8

    def test_photon_bookkeeping_exact(self):
        rng = np.random.default_rng(25)
        reg = ModeRegistry(("c", "d", "e"))
        state = random_poly(rng, reg, 3, homogeneous=True)
        stage = CascadeStage(
            measure="c", branches={n: CascadeStage(measure="d") for n in range(4)}
        )
        def walk(node):
            if not node.zero_weight:
                assert sum(node.history) + node.states[0].degree == 3
            for child in node.children:
                walk(child)
        walk(run_cascade([state], stage))

    def test_consumed_mode_rejected(self):
        state = CreationPolynomial.mode(REG2, "c") + CreationPolynomial.mode(REG2, "d")
        stage = CascadeStage(
            measure="c", branches={n: CascadeStage(measure="c") for n in range(2)}
        )
        with pytest.raises(StrategyError):
            run_cascade([state], stage)

    @pytest.mark.parametrize(
        "branches, where",
        [({0: 5}, "branch must be a stage or a label, got 5"), ({"0": "zero"}, "branch key '0'")],
        ids=["branch-neither-stage-nor-label", "string-key"],
    )
    def test_malformed_branch_raises_with_its_path(self, branches, where):
        # Outcome 2 on c is reached, so the stage below it runs: without the
        # check, (2, 0) would be a covered leaf labelled None, or an uncovered one.
        stage = CascadeStage(measure="c", branches={2: CascadeStage(measure="d", branches=branches)})
        with pytest.raises(StrategyError, match=re.escape(f"strategy.branches[2]: {where}")):
            run_cascade([hom_state()], stage)

    @pytest.mark.parametrize(
        "branch, where",
        [
            (CascadeStage(measure="d", network=from_matrix(HADAMARD, REG2)), "stage network modes"),
            (CascadeStage(measure="c"), "stage measures unavailable mode 'c'"),
        ],
        ids=["network-on-other-modes", "consumed-mode"],
    )
    def test_bad_stage_raises_before_any_level(self, monkeypatch, branch, where):
        levels, split_level = [], measurement._split_level

        def recording(*args):
            levels.append(args)
            return split_level(*args)

        monkeypatch.setattr(measurement, "_split_level", recording)
        stage = CascadeStage(measure="c", branches={0: "zero", 1: "one", 2: branch})
        with pytest.raises(StrategyError, match=re.escape(f"strategy.branches[2]: {where}")):
            run_cascade([hom_state()], stage)
        assert levels == []

    def test_tree_serialization(self):
        state = hom_state()
        stage = CascadeStage(measure="c", branches={0: "low", 2: "high"})
        tree = report_value(run_cascade([state], stage))
        assert "children" in tree
        by_history = {tuple(c["history"]): c for c in tree["children"]}
        assert by_history[(0,)]["label"] == "low"
        assert by_history[(2,)]["label"] == "high"
        assert by_history[(1,)]["zero_weight"] is True
        assert by_history[(1,)]["covered"] is False
        # weights are rounded to 12 significant digits and JSON-clean
        import json

        json.dumps(tree)
        assert by_history[(2,)]["weights"][0] == 0.5

    def test_tree_nodes_share_one_key_set(self):
        # Inner nodes and leaves carry the same keys; the state is left out.
        stage = CascadeStage(measure="c", branches={0: "low", 2: "high"})
        tree = report_value(run_cascade([hom_state()], stage))
        keys = {"history", "weights", "probabilities", "zero_weight", "covered", "label", "children"}
        assert set(tree) == keys and all(set(c) == keys for c in tree["children"])
        assert tree["children"][0]["children"] == [] and tree["label"] is None


def orthogonal_candidates(rng, registry, count):
    """One- or two-photon states on random sets of modes, made orthogonal;
    their outcome orders differ, and some branches are closed to some."""
    states = []
    while len(states) < count:
        size = rng.integers(1, registry.size + 1)
        labels = tuple(rng.choice(registry.labels, size=size, replace=False))
        cand = random_homogeneous_state(rng, registry, labels, int(rng.integers(1, 3)))
        for prev in states:
            cand = cand - (vacuum_inner_product(prev, cand) / vacuum_norm_sq(prev)) * prev
        if vacuum_norm_sq(cand) > 1e-6:
            states.append(cand)
    return states


class TestOneTree:
    @pytest.mark.parametrize("seed", range(8))
    def test_inputs_do_not_interact(self, seed):
        # Each input's probability at a leaf of the joint tree is exactly the
        # one it gets alone, where it arrives alone, and 0.0 elsewhere; the
        # leaves it alone has and the joint tree lacks are zero-weight ones.
        rng = np.random.default_rng(seed)
        reg = ModeRegistry(("c", "d", "e"))
        states = orthogonal_candidates(rng, reg, 3)
        stage = random_full_strategy(rng, reg, 2)
        joint = {leaf.history: leaf for leaf in run_cascade(states, stage).leaves()}
        for k, state in enumerate(states):
            alone = {leaf.history: leaf for leaf in run_cascade([state], stage).leaves()}
            for history, leaf in joint.items():
                want = alone[history].probabilities[0] if history in alone else 0.0
                assert leaf.probabilities[k] == want, (k, history)
            assert all(leaf.zero_weight for h, leaf in alone.items() if h not in joint)

    def test_single_state_argument_is_a_type_error(self):
        with pytest.raises(TypeError):
            run_cascade(hom_state(), CascadeStage(measure="c"))

    def test_inputs_on_different_registries_rejected(self):
        other = ModeRegistry(("c", "d"), photon_cap=5)
        with pytest.raises(RegistryMismatchError):
            run_cascade([hom_state(), hom_state(other)], CascadeStage(measure="c"))

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroStateError):
            run_cascade([hom_state(), CreationPolynomial.zero(REG2)], CascadeStage(measure="c"))

    def test_input_below_the_weight_floor_keeps_its_state_but_stops(self, monkeypatch):
        # psi_1 reaches outcome 0 on c only with weight ~1e-14: the child
        # keeps its conditional state, but psi_1's row in the next level's
        # pass is zero and it reaches none of its outcomes.
        reg = ModeRegistry(("c", "d", "e"))
        psi_0 = CreationPolynomial.mode(reg, "d")
        psi_1 = CreationPolynomial.mode(reg, "c") + 1e-7 * CreationPolynomial.mode(reg, "e")
        second = CascadeStage(
            measure="d",
            network=from_matrix(HADAMARD, reg.without("c")),
            branches={0: "d0", 1: "d1"},
        )
        stage = CascadeStage(measure="c", branches={0: second, 1: "c1"})
        filled = []
        original = measurement.NodeStates.fill

        def recording(states, block, live, tables):
            original(states, block, live, tables)
            filled.append(block.copy())

        monkeypatch.setattr(measurement.NodeStates, "fill", recording)
        child = run_cascade([psi_0, psi_1], stage).children[0]
        assert 0.0 < child.weights[1] < ZERO_WEIGHT_TOL
        assert abs(vacuum_norm_sq(child.states[1]) - 1e-14) <= 1e-26
        assert len(filled) == 2 and filled[1].shape[0] == 2
        assert filled[1][0].any() and not filled[1][1].any()
        assert [leaf.states[1] for leaf in child.children] == [None, None]


def same_tree(factored, product):
    """Walk two outcome trees in step: equal histories, labels, flags and
    per-input reachability, weights and probabilities within 1e-12."""
    assert factored.history == product.history
    assert (factored.label, factored.covered, factored.zero_weight) == (
        product.label, product.covered, product.zero_weight
    )
    assert [s is None for s in factored.states] == [s is None for s in product.states]
    for a, b in zip(factored.weights + factored.probabilities, product.weights + product.probabilities):
        assert abs(a - b) <= 1e-12
    assert len(factored.children) == len(product.children)
    for a, b in zip(factored.children, product.children):
        same_tree(a, b)


class TestFactoredRoot:
    """``run_cascade(states, stage, aux)`` runs the tree of the products
    ``aux * psi_k``."""

    REG = ModeRegistry(("c", "d", "b0", "b1"))

    def draw(self, seed):
        rng = np.random.default_rng(seed)
        states = [random_homogeneous_state(rng, self.REG, ("c", "d"), 2) for _ in range(3)]
        aux = random_aux_state(rng, self.REG, ("b0", "b1"), 2)
        return states, aux, random_full_strategy(rng, self.REG, 2 + aux.degree)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_tree_of_the_products(self, seed):
        states, aux, stage = self.draw(seed)
        same_tree(run_cascade(states, stage, aux), run_cascade([aux * psi for psi in states], stage))

    @pytest.mark.parametrize("cap, raises", [(3, True), (4, False)])
    def test_photon_cap_raised_as_through_the_product(self, cap, raises):
        # a^2 b^2 through a 50/50 splitter puts up to 4 photons on c.
        reg = ModeRegistry(("c", "b"), photon_cap=cap)
        psi = CreationPolynomial.mode(reg, "c", 2)
        aux = CreationPolynomial.mode(reg, "b", 2)
        stage = CascadeStage(measure="c", network=from_matrix(HADAMARD, reg))
        for run in (lambda: run_cascade([psi], stage, aux), lambda: run_cascade([aux * psi], stage)):
            if raises:
                with pytest.raises(PhotonCapError):
                    run()
            else:
                run()

    def test_zero_aux_rejected(self):
        with pytest.raises(ZeroStateError):
            run_cascade([hom_state()], CascadeStage(measure="c"), CreationPolynomial.zero(REG2))


def assert_chained(node, stage, references, probabilities):
    """Walk an outcome tree beside an independent reference: every child's
    probability for input k is its parent's times the ``condition`` weight of
    the reference state, substituted through the stage network, within
    1e-12.  A reference that stops weighing anything stops."""
    for child in node.children:
        n = child.history[-1]
        states, probs = [], []
        for k, (state, p) in enumerate(zip(references, probabilities)):
            weight = 0.0
            if state is not None:
                if stage.network is not None:
                    state = substitute(state, stage.network)
                cond = condition(state, stage.measure, n)
                state, weight = (cond.state if cond.weight > 0.0 else None), cond.weight
            probs.append(p * weight)
            states.append(state)
            assert abs(child.probabilities[k] - probs[k]) <= 1e-12, (child.history, k)
        if child.children:
            assert_chained(child, stage.branches[n], states, probs)


def recorded_split_nodes(monkeypatch) -> list:
    """Record the history of every node that ``_split_node`` receives, and
    check that it is the root or a child of a node it split itself."""
    per_node, split_node = [], measurement._split_node

    def recording(node, branch):
        assert node.history == () or node.history[:-1] in per_node, node.history
        per_node.append(node.history)
        return split_node(node, branch)

    monkeypatch.setattr(measurement, "_split_node", recording)
    return per_node


class TestChainedReference:
    """The level-by-level cascade against chained ``condition`` calls on the
    formed products ``aux * psi_k`` and, on one fixed case, against the dense
    Fock reference."""

    SYSTEM = ("s0", "s1", "s2")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), photons=st.integers(1, 3), aux_photons=st.integers(0, 2))
    def test_every_node_matches_chained_conditioning(self, seed, photons, aux_photons):
        rng = np.random.default_rng(seed)
        reg = ModeRegistry(self.SYSTEM + (("b0", "b1") if aux_photons else ()))
        states = [random_homogeneous_state(rng, reg, self.SYSTEM, photons) for _ in range(3)]
        aux = random_aux_state(rng, reg, ("b0", "b1"), aux_photons) if aux_photons else None
        stage = random_full_strategy(rng, reg, photons + aux_photons)
        products = states if aux is None else [aux * psi for psi in states]
        assert_chained(run_cascade(states, stage, aux), stage, products, [1.0] * 3)

    def test_leaves_match_the_dense_chain(self):
        rng = np.random.default_rng(3)
        reg = ModeRegistry(self.SYSTEM + ("b0",))
        states = [random_homogeneous_state(rng, reg, self.SYSTEM, 2) for _ in range(2)]
        aux = random_aux_state(rng, reg, ("b0",), 1)
        stage = random_full_strategy(rng, reg, 3)
        tree = run_cascade(states, stage, aux)
        for k, psi in enumerate(states):
            for leaf in tree.leaves():
                basis, labels, branch = FockBasis(4, 3), reg.labels, stage
                vec, prob = embed(aux * psi, basis), 1.0
                for n in leaf.history:
                    if branch.network is not None:
                        vec = apply_network_dense(vec, branch.network.matrix, basis)
                    if basis.mode_count == 1:  # the last mode: nothing is left to project on
                        prob *= abs(vec[basis.index[(n,)]]) ** 2 / np.vdot(vec, vec).real
                        break
                    reduced = FockBasis(basis.mode_count - 1, 3)
                    at = labels.index(branch.measure)
                    vec, weight = project_outcome_dense(vec, at, n, basis, reduced)
                    prob *= weight
                    if weight == 0.0:
                        break
                    labels = labels[:at] + labels[at + 1 :]
                    basis, branch = reduced, branch.branches[n]
                assert abs(leaf.probabilities[k] - prob) <= 1e-10, (k, leaf.history)


class TestLargeBasisFallback:
    def test_node_over_the_budget_takes_the_per_node_route(self, monkeypatch):
        # Root children on 5 modes: outcome 0 keeps 8 photons, whose image
        # blocks (6.7 MB) exceed the budget; outcome 1 keeps 7 (2.8 MB), so
        # one level holds a per-node and a batched node.
        reg = ModeRegistry(tuple(f"m{j}" for j in range(6)))
        term = CreationPolynomial.monomial
        psi_0 = term(reg, {"m1": 4, "m2": 4}) + term(reg, {"m0": 1, "m3": 7})
        psi_1 = term(reg, {"m2": 8}) + term(reg, {"m0": 1, "m4": 7}, 0.5j)
        second = CascadeStage(
            measure="m1",
            network=random_network(reg.without("m0"), np.random.default_rng(9)),
            branches={n: f"n{n}" for n in range(9)},
        )
        stage = CascadeStage(measure="m0", branches={0: second, 1: second})
        seen = {"substitute": [], "_level_input": []}

        def recording(name):
            original = getattr(measurement, name)

            def wrapper(state, *args):
                seen[name].append(state)
                return original(state, *args)

            return wrapper

        for name in seen:
            monkeypatch.setattr(measurement, name, recording(name))
        tree = run_cascade([psi_0, psi_1], stage)
        per_node, batched = seen["substitute"], seen["_level_input"]
        assert [id(s) for s in per_node] == [id(s) for s in tree.children[0].states]
        assert [id(s) for s in batched] == [id(s) for s in tree.children[1].states]
        monkeypatch.undo()
        assert_chained(tree, stage, [psi_0, psi_1], [1.0, 1.0])

    def test_root_over_the_budget_with_an_aux_takes_the_per_node_route(self, monkeypatch):
        # The products aux * psi_k hold 6 photons on 6 modes, whose image
        # blocks (4.7 MB) exceed the budget: the root substitutes the
        # products on its own, and its children share the level pass.
        reg = ModeRegistry(tuple(f"m{j}" for j in range(6)))
        term = CreationPolynomial.monomial
        states = [
            term(reg, {"m1": 3, "m2": 2}) + term(reg, {"m0": 1, "m3": 4}),
            term(reg, {"m2": 5}) + term(reg, {"m0": 2, "m4": 3}, 0.5j),
        ]
        aux = CreationPolynomial.mode(reg, "m5")
        second = CascadeStage(
            measure="m1",
            network=random_network(reg.without("m0"), np.random.default_rng(9)),
            branches={n: f"n{n}" for n in range(7)},
        )
        stage = CascadeStage(
            measure="m0",
            network=random_network(reg, np.random.default_rng(8)),
            branches={n: second for n in range(7)},
        )
        seen = {"substitute": [], "_level_input": []}

        def recording(name):
            original = getattr(measurement, name)

            def wrapper(state, *args):
                seen[name].append(state)
                return original(state, *args)

            return wrapper

        for name in seen:
            monkeypatch.setattr(measurement, name, recording(name))
        tree = run_cascade(states, stage, aux)
        children = {id(s) for child in tree.children for s in child.states}
        assert [id(s) for s in seen["substitute"]] == [id(s) for s in tree.states]
        assert seen["_level_input"] and {id(s) for s in seen["_level_input"]} <= children
        monkeypatch.undo()
        products = [aux * psi for psi in states]
        same_tree(tree, run_cascade(products, stage))
        assert_chained(tree, stage, products, [1.0, 1.0])

    @pytest.mark.parametrize("cap, raises", [(3, True), (4, False)])
    def test_node_above_the_photon_cap_raises_as_substitute_does(self, cap, raises, monkeypatch):
        # d^2 e^2 keeps 4 photons below the root; the splitter puts up to 4 on
        # d.  The level pass checks the cap itself: no node is split on its own.
        reg = ModeRegistry(("c", "d", "e"), photon_cap=cap)
        psi = CreationPolynomial.monomial(reg, {"d": 2, "e": 2})
        second = CascadeStage(measure="d", network=from_matrix(HADAMARD, reg.without("c")))
        stage = CascadeStage(measure="c", branches={0: second})
        per_node = recorded_split_nodes(monkeypatch)
        if raises:
            with pytest.raises(PhotonCapError, match="occupation 4 exceeds photon cap 3"):
                run_cascade([psi], stage)
        else:
            assert_chained(run_cascade([psi], stage), stage, [psi], [1.0])
        assert per_node == []

    def test_node_above_the_photon_cap_without_a_network_takes_the_pass(self, monkeypatch):
        # Every node has up to 6 photons against a cap of 3, but no stage
        # mixes: every kept occupation is one of the inputs', within the cap.
        reg = ModeRegistry(("c", "d", "e"), photon_cap=3)
        term = CreationPolynomial.monomial
        states = [
            term(reg, {"c": 3, "d": 3}) + term(reg, {"c": 1, "d": 2, "e": 3}, 0.5j),
            term(reg, {"d": 3, "e": 3}) + term(reg, {"c": 2, "e": 2}),
        ]
        second = CascadeStage(measure="d", branches={n: CascadeStage(measure="e") for n in range(4)})
        stage = CascadeStage(measure="c", branches={n: second for n in range(4)})
        per_node = recorded_split_nodes(monkeypatch)
        tree = run_cascade(states, stage)
        assert per_node == []
        assert_chained(tree, stage, states, [1.0, 1.0])

    @pytest.mark.parametrize("budget", [1 << 22, 0])
    def test_photon_cap_error_names_the_largest_kept_occupation(self, budget, monkeypatch):
        # Below the root, d^2 e^3 + d^3 e through the splitter keeps terms with
        # 4 and 5 photons on one mode; the error names 5 on either route.
        reg = ModeRegistry(("c", "d", "e"), photon_cap=3)
        term = CreationPolynomial.monomial
        psi = term(reg, {"c": 1, "d": 2, "e": 3}) + term(reg, {"c": 1, "d": 3, "e": 1})
        second = CascadeStage(measure="d", network=from_matrix(HADAMARD, reg.without("c")))
        monkeypatch.setattr(measurement, "IMAGE_BLOCK_BUDGET", budget)
        with pytest.raises(PhotonCapError, match="occupation 5 exceeds photon cap 3"):
            run_cascade([psi], CascadeStage(measure="c", branches={1: second}))

    def test_a_level_splits_its_per_node_nodes_before_the_pass(self, monkeypatch):
        # Below the root, outcome 0 leaves d^2 e^2 (55 image entries, in the
        # pass; the splitter keeps 4 photons on one mode) and outcome 1 leaves
        # d^2 e^3 + d^3 e (91 entries, on its own; 5 photons).  Both overflow
        # a cap of 3 in one level: the node split on its own raises first.
        reg = ModeRegistry(("c", "d", "e"), photon_cap=3)
        term = CreationPolynomial.monomial
        psi = term(reg, {"d": 2, "e": 2}) + term(reg, {"c": 1, "d": 2, "e": 3}) + term(reg, {"c": 1, "d": 3, "e": 1})
        second = CascadeStage(measure="d", network=from_matrix(HADAMARD, reg.without("c")))
        monkeypatch.setattr(measurement, "IMAGE_BLOCK_BUDGET", 16 * 60)
        per_node = recorded_split_nodes(monkeypatch)
        with pytest.raises(PhotonCapError, match="occupation 5 exceeds photon cap 3"):
            run_cascade([psi], CascadeStage(measure="c", branches={0: second, 1: second}))
        assert per_node == [(), (1,)]

    def test_sparse_inputs_past_any_dense_basis(self, monkeypatch):
        # 16 photons on 16 modes: a graded vector up to 16 photons would need
        # C(32, 16) ~ 6.0e8 positions per input, so only the per-node route
        # can split these nodes.
        reg = ModeRegistry(tuple(f"m{j}" for j in range(16)))
        ones = {f"m{j}": 1 for j in range(1, 16)}
        a = CreationPolynomial.monomial(reg, {"m0": 1, **ones})
        b = CreationPolynomial.monomial(reg, {"m0": 2, **ones, "m15": 0})

        def stage(k, remaining):
            branches = {n: stage(k + 1, remaining - n) if k < 2 else f"n{n}" for n in range(remaining + 1)}
            return CascadeStage(measure=f"m{k}", branches=branches)

        per_node = recorded_split_nodes(monkeypatch)
        tree = run_cascade([a, b], stage(0, 16))
        leaves = {leaf.history: leaf for leaf in tree.leaves() if max(leaf.probabilities) > 0.0}
        assert {h: leaf.probabilities for h, leaf in leaves.items()} == {
            (1, 1, 1): (1.0, 0.0),
            (2, 1, 1): (0.0, 1.0),
        }
        assert per_node == [(), (1,), (2,), (1, 1), (2, 1)]
        rest = reg.without("m0").without("m1").without("m2")
        for (history, k), last in (((1, 1, 1), 0), 16), (((2, 1, 1), 1), 15):
            want = CreationPolynomial.monomial(rest, {f"m{j}": 1 for j in range(3, last)})
            got = leaves[history].states[k]
            assert (got.registry, list(got.items())) == (rest, list(want.items()))


def chained_cap_errors(states, stage) -> list[str]:
    """The tree of ``run_cascade(states, stage)`` walked a level at a time
    through chained ``substitute`` and ``condition``: the PhotonCapError
    message of every input that overflows at the first level where one
    does, or [] when none does."""
    level = [(list(states), stage)]
    while level:
        errors, below = [], []
        for refs, branch in level:
            totals = []
            for s in refs:
                try:
                    totals.append(s if s is None or branch.network is None else substitute(s, branch.network))
                except PhotonCapError as exc:
                    errors.append(str(exc))
            if len(totals) < len(refs):
                continue
            for n, nxt in branch.branches.items():
                conds = [None if s is None else condition(s, branch.measure, n) for s in totals]
                kept = [c.state if c is not None and c.weight >= ZERO_WEIGHT_TOL else None for c in conds]
                if isinstance(nxt, CascadeStage) and any(s is not None for s in kept):
                    below.append((kept, nxt))
        if errors:
            return errors
        level = below
    return []


class TestPhotonCap:
    """Past the photon cap, ``run_cascade`` raises where chained
    ``substitute`` and ``condition`` do, on either route, and names the
    largest occupation that survives pruning."""

    SYSTEM = ("s0", "s1", "s2")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cap=st.integers(1, 3), photons=st.integers(2, 4))
    def test_raises_where_the_chained_reference_does(self, seed, cap, photons):
        # Budgets: every node in the pass; the root on its own and its
        # children (two modes, at most 55 entries) in the pass; every node
        # on its own.
        rng = np.random.default_rng(seed)
        reg = ModeRegistry(self.SYSTEM, photon_cap=cap)
        photons = min(photons, 3 * cap)
        states = []
        for _ in range(2):
            draw = random_homogeneous_state(rng, ModeRegistry(self.SYSTEM), self.SYSTEM, photons)
            states.append(CreationPolynomial(reg, {e: c for e, c in draw.items() if max(e) <= cap}))
        stage = random_full_strategy(rng, reg, photons)
        expected = chained_cap_errors(states, stage)
        for budget in (1 << 22, 16 * 100, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measurement, "IMAGE_BLOCK_BUDGET", budget)
                recorded_split_nodes(mp)
                if expected:
                    with pytest.raises(PhotonCapError) as info:
                        run_cascade(states, stage)
                    assert str(info.value) in expected, budget
                else:
                    assert_chained(run_cascade(states, stage), stage, states, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_roundoff_above_the_cap_is_pruned_before_the_check(self, seed, monkeypatch):
        # psi, 3 photons within a cap of 2 on each of 3 modes, lies in the null
        # space of the network's a^3, b^3 and c^3 output coefficients, so the
        # pass leaves only roundoff (about 1e-16 of the peak) on occupation 3.
        rng = np.random.default_rng(seed)
        wide, reg = ModeRegistry(("a", "b", "c"), photon_cap=3), ModeRegistry(("a", "b", "c"), photon_cap=2)
        matrix = random_network(wide, rng).matrix
        combos = combinations_with_replacement(range(3), 3)
        monos = [e for e in (tuple(c.count(j) for j in range(3)) for c in combos) if max(e) <= 2]
        images = [substitute(CreationPolynomial(wide, {e: 1.0}), from_matrix(matrix, wide)) for e in monos]
        bunched = np.array([[p.coefficient(e) for p in images] for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))])
        psi = CreationPolynomial(reg, dict(zip(monos, np.linalg.svd(bunched)[2][-1].conj())))
        stage = CascadeStage(measure="a", network=from_matrix(matrix, reg))
        per_node = recorded_split_nodes(monkeypatch)
        assert_chained(run_cascade([psi], stage), stage, [psi], [1.0])
        assert per_node == []


class TestStatesBuiltOnRead:
    """The level pass hands its children rows; ``node.states[k]`` turns a row
    into a polynomial when it is read, as the per-node route would have."""

    def test_a_state_read_twice_is_one_object(self):
        states, stage = mixed_level()
        tree = run_cascade(states, stage)
        for node in (tree, tree.children[0].children[2], tree.children[1].children[2]):
            assert node.states[0] is node.states[0] and node.states[1] is node.states[-1]
            assert node.states[1] is not None

    def test_every_state_reads_as_chained_substitute_and_condition(self, monkeypatch):
        # Keys and their order as chained substitute + condition give them at
        # every node.  The children of nodes split on their own are those
        # calls' results, so their values are equal too; the level pass sums
        # in another order, so its values agree to rounding.
        states, stage = mixed_level()
        per_node = recorded_split_nodes(monkeypatch)
        tree = run_cascade(states, stage)
        assert per_node == [(), (0,)]
        checked = 0

        def walk(node, branch):
            nonlocal checked
            for child in node.children:
                n = child.history[-1]
                for parent, weight, state in zip(node.states, node.weights, child.states):
                    if weight < ZERO_WEIGHT_TOL:
                        continue
                    ref = parent if branch.network is None else substitute(parent, branch.network)
                    got, want = list(state.items()), list(condition(ref, branch.measure, n).state.items())
                    assert [e for e, _ in got] == [e for e, _ in want], child.history
                    if node.history in per_node:
                        assert got == want, child.history
                    peak = max((abs(c) for _, c in want), default=0.0)
                    assert all(abs(a - b) <= 1e-12 * peak for (_, a), (_, b) in zip(got, want))
                    checked += 1
                if child.children:
                    walk(child, branch.branches[n])

        walk(tree, stage)
        assert checked > 100

    def test_inputs_that_did_not_reach_the_parent_read_none(self):
        # Each input is one photon: measuring c sends psi_0 = c to outcome 1
        # and psi_1 = d to outcome 0, so below each root child one input is None.
        reg = ModeRegistry(("c", "d", "e"))
        psi_0 = CreationPolynomial.mode(reg, "c")
        psi_1 = CreationPolynomial.mode(reg, "d")
        second = CascadeStage(
            measure="d",
            network=from_matrix(HADAMARD, reg.without("c")),
            branches={n: CascadeStage(measure="e") for n in range(2)},
        )
        tree = run_cascade([psi_0, psi_1], CascadeStage(measure="c", branches={0: second, 1: second}))
        for outcome, gone in ((0, 0), (1, 1)):
            child = tree.children[outcome]
            assert child.weights[gone] == 0.0 and child.states[gone] is not None
            for node in [child, *child.children]:
                for grandchild in node.children:
                    reached = [w >= ZERO_WEIGHT_TOL for w in node.weights]
                    assert [s is not None for s in grandchild.states] == reached
                    assert grandchild.states[gone] is None


def conserved_overlap_checks(node) -> int:
    """Check, at every node below ``node`` and for every pair of inputs that
    both reach it with weight at least ZERO_WEIGHT_TOL, that the children's
    overlaps sum back to the parent's: sum_N N! <q_N^i|q_N^j> = <p_i|p_j>
    within 1e-10 |p_i| |p_j| (the stage network is unitary).  Returns the
    number of (node, pair) checks."""
    checks = 0
    if node.children:
        live = [k for k, w in enumerate(node.weights) if w >= ZERO_WEIGHT_TOL]
        for i, j in combinations_with_replacement(live, 2):
            parent = vacuum_inner_product(node.states[i], node.states[j])
            summed = sum(
                math.factorial(child.history[-1])
                * vacuum_inner_product(child.states[i], child.states[j])
                for child in node.children
            )
            scale = math.sqrt(vacuum_norm_sq(node.states[i]) * vacuum_norm_sq(node.states[j]))
            assert abs(summed - parent) <= 1e-10 * scale, (node.history, i, j)
            checks += 1
    return checks + sum(conserved_overlap_checks(child) for child in node.children)


class TestOverlapConservation:
    """The pairwise overlaps of the inputs are carried down the tree: the
    invariant that takes a stage's no-go down a cascade."""

    SYSTEM = ("s0", "s1", "s2")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), aux_photons=st.integers(0, 2))
    def test_every_node_conserves_the_overlaps(self, seed, aux_photons):
        rng = np.random.default_rng(seed)
        reg = ModeRegistry(self.SYSTEM + (("b0", "b1") if aux_photons else ()))
        states = [random_homogeneous_state(rng, reg, self.SYSTEM, 2) for _ in range(3)]
        aux = random_aux_state(rng, reg, ("b0", "b1"), aux_photons) if aux_photons else None
        stage = random_full_strategy(rng, reg, 2 + aux_photons)
        assert conserved_overlap_checks(run_cascade(states, stage, aux)) > 0

    def test_a_level_of_both_routes_conserves_the_overlaps(self):
        states, stage = mixed_level()
        assert conserved_overlap_checks(run_cascade(states, stage)) > 0


class TestStrategyValidation:
    def test_unreachable_branch(self):
        stage = CascadeStage(measure="c", branches={5: "ghost"})
        with pytest.raises(StrategyError):
            validate_strategy(stage, REG2, max_photons=2)

    def test_consumed_mode(self):
        stage = CascadeStage(
            measure="c", branches={0: CascadeStage(measure="c")}
        )
        with pytest.raises(StrategyError):
            validate_strategy(stage, REG2, max_photons=2)

    def test_ok_strategy(self):
        stage = CascadeStage(
            measure="c", branches={0: CascadeStage(measure="d"), 1: "leaf"}
        )
        validate_strategy(stage, REG2, max_photons=2)

    @pytest.mark.parametrize(
        "stage",
        [
            CascadeStage(measure="c", network=from_matrix(np.eye(2), ModeRegistry(("x", "y")))),
            CascadeStage(measure="c", branches={"1": "leaf"}),
            CascadeStage(measure="c", branches={0: 5}),
        ],
        ids=["network-on-other-modes", "string-key", "branch-neither-stage-nor-label"],
    )
    def test_malformed_stage(self, stage):
        with pytest.raises(StrategyError):
            validate_strategy(stage, REG2, max_photons=2)

    def test_from_dict_round(self):
        data = {
            "measure": "c",
            "network": None,
            "branches": {
                "0": {"measure": "d", "branches": {"1": "one"}},
                "1": "leaf-one",
            },
        }
        stage = strategy_from_dict(data, REG2)
        assert stage.measure == "c"
        assert stage.branches[1] == "leaf-one"
        assert isinstance(stage.branches[0], CascadeStage)
        assert stage.branches[0].measure == "d"

    def test_from_dict_unknown_field(self):
        with pytest.raises(StrategyError):
            strategy_from_dict({"measure": "c", "oops": 1}, REG2)

    def test_from_dict_bad_key(self):
        with pytest.raises(StrategyError):
            strategy_from_dict({"measure": "c", "branches": {"x": "leaf"}}, REG2)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: expand_by_mode(p, "c").coefficient(-1), "expansion index must be nonnegative"),
            (
                lambda p: product_coefficients(expand_by_mode(p, "c"), expand_by_mode(p, "d"), 0, 1),
                "expansions measure 'c' and 'd'",
            ),
        ],
        ids=["negative-index", "different-modes"],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(hom_state())
