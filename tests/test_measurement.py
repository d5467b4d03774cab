"""Mode expansion, conditioning, outcome statistics, and cascades."""

import numpy as np
import pytest

from fockcascade import (
    CascadeStage,
    CreationPolynomial,
    FockBasis,
    ModeRegistry,
    PhotonCapError,
    RegistryMismatchError,
    StrategyError,
    ZeroStateError,
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
from helpers import random_poly

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
            assert dict(exp.reassemble().items()) == dict(p.items())


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


def random_full_strategy(rng, registry, remaining):
    """Measure every mode in a random order, with a branch for every photon
    count that can remain; each stage mixes the surviving modes in a random
    network or, half of the time, not at all.  Leaves carry their history."""

    def stage(reg, remaining, history):
        measure = reg.labels[rng.integers(reg.size)]
        rest = reg.without(measure)
        branches = {}
        for n in range(remaining + 1):
            path = history + (n,)
            branches[n] = stage(rest, remaining - n, path) if rest.size else f"h{path}"
        network = random_network(reg, rng) if rng.random() < 0.5 else None
        return CascadeStage(measure=measure, network=network, branches=branches)

    return stage(registry, remaining, ())


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
        # keeps its conditional state, but the next stage substitutes psi_0's
        # alone and psi_1 reaches none of its outcomes.
        reg = ModeRegistry(("c", "d", "e"))
        psi_0 = CreationPolynomial.mode(reg, "d")
        psi_1 = CreationPolynomial.mode(reg, "c") + 1e-7 * CreationPolynomial.mode(reg, "e")
        second = CascadeStage(
            measure="d",
            network=from_matrix(HADAMARD, reg.without("c")),
            branches={0: "d0", 1: "d1"},
        )
        stage = CascadeStage(measure="c", branches={0: second, 1: "c1"})
        substituted = []
        original = measurement.substitute

        def recording(state, net):
            substituted.append(state)
            return original(state, net)

        monkeypatch.setattr(measurement, "substitute", recording)
        child = run_cascade([psi_0, psi_1], stage).children[0]
        assert 0.0 < child.weights[1] < ZERO_WEIGHT_TOL
        assert abs(vacuum_norm_sq(child.states[1]) - 1e-14) <= 1e-26
        assert [id(s) for s in substituted] == [id(child.states[0])]
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
    ``aux * psi_k`` from the substituted factors."""

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

    def test_root_substitutes_the_factors_only(self, monkeypatch):
        states, aux, _ = self.draw(0)
        stage = CascadeStage(
            measure="c",
            network=random_network(self.REG, np.random.default_rng(1)),
            branches={n: f"n{n}" for n in range(5)},
        )
        substituted = []
        original = measurement.substitute

        def recording(state, net):
            substituted.append(state)
            return original(state, net)

        def no_multiply(self, other):
            raise AssertionError("the root formed a product")

        monkeypatch.setattr(measurement, "substitute", recording)
        monkeypatch.setattr(CreationPolynomial, "__mul__", no_multiply)
        run_cascade(states, stage, aux)
        assert len(substituted) == len(states) + 1
        assert {id(s) for s in substituted} == {id(f) for f in states + [aux]}

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
