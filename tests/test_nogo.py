"""Transfer-identity machinery: components, tables, and end-to-end checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcascade import (
    CreationPolynomial,
    DiscriminationInstance,
    ModeRegistry,
    PhotonCapError,
    aux_transfer_tables,
    beam_splitter,
    coefficient_overlap_vector,
    conditional_overlap_vector,
    condition,
    contract_annihilators,
    expand_by_mode,
    from_matrix,
    haar_random_unitary,
    identity,
    overlap_component,
    overlap_component_recursive,
    random_network,
    random_nogo_instance,
    run_nogo_suite,
    stage_orthogonality,
    substitute,
    system_expansions,
    transfer_matrix,
    vacuum_inner_product,
    verify_no_go,
)
from fockcascade import measurement, nogo
from fockcascade.poly import report_value
from fockcascade.sampling import random_aux_state, random_homogeneous_state
from helpers import cap_below_the_product, orthogonal_states, structured_nogo_instance

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def worked_example():
    """One system photon and one auxiliary photon on a balanced splitter.

    Closed-form values: the auxiliary expansion has top norm D = 1/2, the
    conditional overlaps are V = (1/4, 0), the coefficient overlaps are
    U' = (1/2, 1/2), and the transfer matrix is [[1/2, 0], [-1/2, 1/2]].
    """
    reg = ModeRegistry(("s0", "b0"))
    psi = CreationPolynomial.mode(reg, "s0")
    aux = CreationPolynomial.mode(reg, "b0")
    net = from_matrix(HADAMARD, reg)
    return reg, psi, aux, net


def expansions_for(instance):
    exps, n_s = system_expansions(instance.states, instance.network, instance.measured)
    aux_exp = expand_by_mode(
        substitute(instance.aux, instance.network), instance.measured
    )
    return aux_exp, exps, n_s


class TestWorkedExample:
    def test_overlap_vectors(self):
        _, psi, aux, net = worked_example()
        v = conditional_overlap_vector(aux, psi, psi, net, "s0")
        assert np.abs(v - np.array([0.25, 0.0])).max() < 1e-12
        u = coefficient_overlap_vector(psi, psi, net, "s0")
        assert np.abs(u - np.array([0.5, 0.5])).max() < 1e-12

    def test_transfer_matrix_values(self):
        _, psi, aux, net = worked_example()
        aux_exp = expand_by_mode(substitute(aux, net), "s0")
        tables = aux_transfer_tables(aux_exp, 1)
        assert abs(tables.leading_aux_norm - 0.5) < 1e-12
        m = transfer_matrix(tables)
        assert np.abs(m - np.array([[0.5, 0.0], [-0.5, 0.5]])).max() < 1e-12

    def test_identity_holds(self):
        _, psi, aux, net = worked_example()
        v = conditional_overlap_vector(aux, psi, psi, net, "s0")
        u = coefficient_overlap_vector(psi, psi, net, "s0")
        aux_exp = expand_by_mode(substitute(aux, net), "s0")
        m = transfer_matrix(aux_transfer_tables(aux_exp, 1))
        assert np.abs(v - m @ u).max() < 1e-12


class TestConditionalOverlaps:
    def test_diagonal_entries_real_nonnegative(self):
        _, psi, aux, net = worked_example()
        v = conditional_overlap_vector(aux, psi, psi, net, "s0")
        for entry in v:
            assert abs(entry.imag) < 1e-12
            assert entry.real >= -1e-12

    def test_seeded_four_mode_pair(self):
        # Two two-photon states sharing one mode, a single-photon auxiliary,
        # and a seeded Haar-random four-mode network.
        reg = ModeRegistry(("a1", "a2", "a3", "b"))
        psi1 = CreationPolynomial.mode(reg, "a1") * CreationPolynomial.mode(reg, "a2")
        psi2 = CreationPolynomial.mode(reg, "a1") * CreationPolynomial.mode(reg, "a3")
        aux = CreationPolynomial.mode(reg, "b")
        import fockcascade.network as network

        net = network.random_network(reg, np.random.default_rng(2024))
        report = verify_no_go(aux, [psi1, psi2], net, "a1")
        assert report.passed
        pair = report.pairs[0]
        assert pair.residual <= 1e-9 * max(1.0, max(abs(z) for z in pair.with_aux))


class TestCoefficientOverlaps:
    def test_orthogonal_monomials_identity_network(self):
        reg = ModeRegistry(("c", "d", "e"))
        psi1 = CreationPolynomial.mode(reg, "d", 2)
        psi2 = CreationPolynomial.mode(reg, "e", 2)
        u = coefficient_overlap_vector(psi1, psi2, identity(reg), "c")
        assert np.abs(u).max() == 0.0

    def test_diagonal_gives_norms(self):
        rng = np.random.default_rng(41)
        reg = ModeRegistry(("c", "d"))
        psi = random_homogeneous_state(rng, reg, reg.labels, 2)
        exp = expand_by_mode(psi, "c")
        u = coefficient_overlap_vector(psi, psi, identity(reg), "c")
        n_s = exp.order
        for p in range(n_s + 1):
            part = exp.coefficient(n_s - p)
            assert abs(u[p] - vacuum_inner_product(part, part)) < 1e-12
            assert u[p].real >= 0.0

    def test_unequal_individual_orders(self):
        # One state of top power 1, one of top power 2; the shared set-level
        # window zero-extends the shorter expansion, and every coefficient
        # pair here is orthogonal.
        reg = ModeRegistry(("c", "d"))
        psi1 = CreationPolynomial.mode(reg, "c") * CreationPolynomial.mode(reg, "d")
        psi2 = 0.5 * (
            CreationPolynomial.mode(reg, "c", 2) - CreationPolynomial.mode(reg, "d", 2)
        )
        u = coefficient_overlap_vector(psi1, psi2, identity(reg), "c")
        assert len(u) == 3
        assert np.abs(u).max() == 0.0
        # cross-check entrywise by brute force on the expansions
        e1 = expand_by_mode(psi1, "c")
        e2 = expand_by_mode(psi2, "c")
        for p in range(3):
            direct = vacuum_inner_product(e1.coefficient(2 - p), e2.coefficient(2 - p))
            assert u[p] == direct


class TestOverlapComponents:
    def test_direct_equals_recursive_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            inst = random_nogo_instance(rng)
            aux_exp, exps, n_s = expansions_for(inst)
            n_a = aux_exp.order
            for s in range(n_a + n_s + 1):
                lo, hi = max(0, s - n_a), min(s, n_s)
                for n in range(lo, hi + 1):
                    for m in range(lo, n + 1):
                        d = overlap_component(aux_exp, exps[0], exps[1], n_s, s, n, m)
                        r = overlap_component_recursive(
                            aux_exp, exps[0], exps[1], n_s, s, n, m
                        )
                        assert abs(d - r) <= 1e-9 * max(1.0, abs(d))

    def test_symmetry_in_n_m(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            inst = random_nogo_instance(rng)
            aux_exp, exps, n_s = expansions_for(inst)
            n_a = aux_exp.order
            for s in range(n_a + n_s + 1):
                lo, hi = max(0, s - n_a), min(s, n_s)
                for n in range(lo, hi + 1):
                    for m in range(lo, hi + 1):
                        d1 = overlap_component(aux_exp, exps[0], exps[1], n_s, s, n, m)
                        d2 = overlap_component(aux_exp, exps[0], exps[1], n_s, s, m, n)
                        assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1))

    def test_components_sum_to_conditional_overlap(self):
        # For every outcome (also below the verification window), the direct
        # components sum to the conditional-state overlap from measurement.
        rng = np.random.default_rng(44)
        for _ in range(10):
            inst = random_nogo_instance(rng, force_aux_photons=True)
            aux_exp, exps, n_s = expansions_for(inst)
            n_a = aux_exp.order
            total_i = substitute(inst.aux * inst.states[0], inst.network)
            total_j = substitute(inst.aux * inst.states[1], inst.network)
            for s in range(n_a + n_s + 1):
                outcome = n_a + n_s - s
                lo, hi = max(0, s - n_a), min(s, n_s)
                parts = sum(
                    overlap_component(aux_exp, exps[0], exps[1], n_s, s, n, m)
                    for n in range(lo, hi + 1)
                    for m in range(lo, hi + 1)
                )
                direct = vacuum_inner_product(
                    condition(total_i, inst.measured, outcome).state,
                    condition(total_j, inst.measured, outcome).state,
                )
                assert abs(parts - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_top_outcome_single_component(self):
        rng = np.random.default_rng(45)
        inst = random_nogo_instance(rng, force_aux_photons=True)
        aux_exp, exps, n_s = expansions_for(inst)
        n_a = aux_exp.order
        bra = aux_exp.coefficient(n_a) * exps[0].coefficient(n_s)
        ket = aux_exp.coefficient(n_a) * exps[1].coefficient(n_s)
        want = vacuum_inner_product(bra, ket)
        got = overlap_component(aux_exp, exps[0], exps[1], n_s, 0, 0, 0)
        assert abs(got - want) < 1e-12

    def test_equal_state_diagonal_is_real_nonnegative(self):
        rng = np.random.default_rng(65)
        inst = random_nogo_instance(rng, force_aux_photons=True)
        aux_exp, exps, n_s = expansions_for(inst)
        n_a = aux_exp.order
        for s in range(n_s + 1):
            lo = max(0, s - n_a)
            for n in range(lo, s + 1):
                value = overlap_component(aux_exp, exps[0], exps[0], n_s, s, n, n)
                assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))
                assert value.real >= -1e-12

    def test_diagonal_component_factorizes(self):
        # At n = m = s the component splits into the auxiliary top norm times
        # the coefficient overlap, for any auxiliary (homogeneous or not).
        rng = np.random.default_rng(66)
        for _ in range(10):
            inst = random_nogo_instance(rng, force_aux_photons=True)
            aux_exp, exps, n_s = expansions_for(inst)
            d = vacuum_inner_product(
                aux_exp.coefficient(aux_exp.order), aux_exp.coefficient(aux_exp.order)
            )
            for s in range(n_s + 1):
                got = overlap_component(aux_exp, exps[0], exps[1], n_s, s, s, s)
                want = d * vacuum_inner_product(
                    exps[0].coefficient(n_s - s), exps[1].coefficient(n_s - s)
                )
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_index_errors(self):
        rng = np.random.default_rng(46)
        inst = random_nogo_instance(rng)
        aux_exp, exps, n_s = expansions_for(inst)
        n_a = aux_exp.order
        with pytest.raises(IndexError):
            overlap_component(aux_exp, exps[0], exps[1], n_s, n_a + n_s + 1, 0, 0)
        with pytest.raises(IndexError):
            overlap_component(aux_exp, exps[0], exps[1], n_s, 0, 1, 0)
        with pytest.raises(ValueError):
            overlap_component_recursive(aux_exp, exps[0], exps[1], n_s, 1, 0, 1)


class TestTables:
    def test_no_aux_tables_are_trivial(self):
        reg = ModeRegistry(("c", "d"))
        aux_exp = expand_by_mode(CreationPolynomial.constant(reg, 1.0), "c")
        tables = aux_transfer_tables(aux_exp, 2)
        assert tables.aux_order == 0
        assert tables.leading_aux_norm == 1.0
        m = transfer_matrix(tables)
        assert np.array_equal(m, np.eye(3))

    def test_diagonal_entry_is_constant(self):
        # The top-level coefficient at p = n = m = s equals D for every s.
        rng = np.random.default_rng(47)
        for _ in range(10):
            inst = random_nogo_instance(rng, force_aux_photons=True)
            aux_exp, exps, n_s = expansions_for(inst)
            tables = aux_transfer_tables(aux_exp, n_s)
            for s in range(n_s + 1):
                assert (
                    abs(tables.coefficient(s, s, s, s) - tables.leading_aux_norm)
                    < 1e-12 * max(1.0, tables.leading_aux_norm)
                )

    def test_coefficients_are_real_and_symmetric(self):
        rng = np.random.default_rng(48)
        inst = random_nogo_instance(rng, force_aux_photons=True)
        aux_exp, exps, n_s = expansions_for(inst)
        tables = aux_transfer_tables(aux_exp, n_s)
        for (s, p, n, m), value in tables.coeff.items():
            assert isinstance(value, float)
            assert tables.coefficient(s, p, m, n) == value

    def test_single_order_matrix(self):
        rng = np.random.default_rng(49)
        inst = random_nogo_instance(rng, force_aux_photons=True)
        aux_exp, _, _ = expansions_for(inst)
        tables = aux_transfer_tables(aux_exp, 0)
        m = transfer_matrix(tables)
        assert m.shape == (1, 1)
        assert m[0, 0] == tables.leading_aux_norm

    def test_determinant_identity(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            inst = random_nogo_instance(rng, force_aux_photons=True)
            aux_exp, exps, n_s = expansions_for(inst)
            tables = aux_transfer_tables(aux_exp, n_s)
            m = transfer_matrix(tables)
            want = tables.leading_aux_norm ** (n_s + 1)
            assert abs(np.linalg.det(m) - want) <= 1e-9 * want
            assert np.all(np.triu(m, 1) == 0.0)

    def test_linear_solve_extraction(self):
        # The expansion coefficients can be recovered, without the recursion,
        # by solving linear systems built from directly evaluated components
        # over many random state pairs.  Fix the network, the auxiliary state,
        # and the set-level order; vary only the system states.
        rng = np.random.default_rng(51)
        reg = ModeRegistry(("s0", "s1", "b0"))
        import fockcascade.network as network
        net = network.random_network(reg, rng)
        aux = random_aux_state(rng, reg, ("b0",), 2)
        aux_exp = expand_by_mode(substitute(aux, net), "s0")
        degree = 2
        pairs = []
        while len(pairs) < 10:
            psi_i = random_homogeneous_state(rng, reg, ("s0", "s1"), degree)
            psi_j = random_homogeneous_state(rng, reg, ("s0", "s1"), degree)
            (ei, ej), n_s = system_expansions([psi_i, psi_j], net, "s0")
            if n_s == degree:
                pairs.append((ei, ej))
        n_s = degree
        tables = aux_transfer_tables(aux_exp, n_s)
        n_a = aux_exp.order
        for s in range(n_s + 1):
            lo = max(0, s - n_a)
            for n in range(lo, s + 1):
                for m in range(lo, n + 1):
                    p_lo, p_hi = max(0, n + m - s), m
                    rows = []
                    rhs = []
                    for ei, ej in pairs:
                        u = np.array(
                            [
                                vacuum_inner_product(
                                    ei.coefficient(n_s - p), ej.coefficient(n_s - p)
                                )
                                for p in range(p_lo, p_hi + 1)
                            ]
                        )
                        rows.append(u)
                        rhs.append(
                            overlap_component(aux_exp, ei, ej, n_s, s, n, m)
                        )
                    solution, *_ = np.linalg.lstsq(
                        np.array(rows), np.array(rhs), rcond=None
                    )
                    for k, p in enumerate(range(p_lo, p_hi + 1)):
                        want = tables.coefficient(s, p, n, m)
                        assert abs(solution[k].imag) < 1e-8
                        assert abs(solution[k].real - want) <= 1e-6 * max(1.0, abs(want))

    def test_recursion_and_verification_read_one_table(self, monkeypatch):
        # One perturbed A entry moves both the recursive component and the
        # transfer matrix: the recursion that criterion 3 checks against
        # direct evaluation is the table that verify_no_go sums.
        _, psi, aux, net = worked_example()
        aux_exp = expand_by_mode(substitute(aux, net), "s0")
        (exp_i, exp_j), n_s = system_expansions([psi, psi], net, "s0")
        assert verify_no_go(aux, [psi, psi], net, "s0").passed
        build = nogo._reordering_table

        def perturbed(*args):
            tables = build(*args)
            tables.coeff[(1, 0, 1, 0)] += 0.5
            return tables

        monkeypatch.setattr(nogo, "_reordering_table", perturbed)
        direct = overlap_component(aux_exp, exp_i, exp_j, n_s, 1, 1, 0)
        rec = overlap_component_recursive(aux_exp, exp_i, exp_j, n_s, 1, 1, 0)
        assert abs(direct - rec) > 1e-9
        assert not verify_no_go(aux, [psi, psi], net, "s0").passed


class TestReorderingLemma:
    def test_operator_identity_under_contraction(self):
        # Qa(n) Qs(m)^dag equals sum_k k! C(m+k,k) C(n+k,k) Qs(m+k)^dag Qa(n+k)
        # as an operator, verified by applying both sides to random states.
        rng = np.random.default_rng(52)
        for _ in range(10):
            inst = random_nogo_instance(rng, force_aux_photons=True)
            aux_exp, exps, _ = expansions_for(inst)
            sys_exp = exps[0]
            n_a, n_s = aux_exp.order, sys_exp.order
            red = aux_exp.reduced_registry
            probe = random_aux_state(rng, red, red.labels, 2)
            for n in range(n_a + 1):
                for m in range(n_s + 1):
                    lhs = aux_exp.coefficient(n) * contract_annihilators(
                        sys_exp.coefficient(m).conjugate(), probe
                    )
                    rhs = CreationPolynomial.zero(red)
                    for k in range(min(n_s - m, n_a - n) + 1):
                        w = (
                            math.factorial(k)
                            * math.comb(m + k, k)
                            * math.comb(n + k, k)
                        )
                        rhs = rhs + w * contract_annihilators(
                            sys_exp.coefficient(m + k).conjugate(),
                            aux_exp.coefficient(n + k) * probe,
                        )
                    assert lhs.isclose(rhs, tol=1e-9)


class TestVerifyNoGo:
    def test_random_instances_pass(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            inst = random_nogo_instance(rng)
            report = verify_no_go(
                inst.aux, inst.states, inst.network, inst.measured
            )
            assert report.passed, (inst.description, report.max_residual)

    def test_three_state_pairs(self):
        rng = np.random.default_rng(54)
        inst = random_nogo_instance(rng, n_states=3)
        report = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
        assert len(report.pairs) == 3
        assert report.passed

    def test_no_aux_degeneration(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            inst = random_nogo_instance(rng)
            aux = CreationPolynomial.constant(inst.registry, 1.0)
            report = verify_no_go(aux, inst.states, inst.network, inst.measured)
            m = np.array(report.transfer)
            assert np.abs(m - np.eye(report.system_order + 1)).max() <= 1e-10
            for pair in report.pairs:
                v = np.array(pair.with_aux)
                u = np.array(pair.coefficient)
                assert np.abs(v - u).max() <= 1e-10 * max(1.0, np.abs(v).max())

    def test_zero_coefficient_vector_forces_zero_overlaps(self):
        # States whose expansion coefficients are pairwise orthogonal stay
        # indistinguishable-overlap-free after adding any auxiliary photons.
        rng = np.random.default_rng(56)
        reg = ModeRegistry(("s0", "s1", "s2", "b0"))
        psi1 = CreationPolynomial.mode(reg, "s0") * CreationPolynomial.mode(reg, "s1")
        psi2 = CreationPolynomial.mode(reg, "s0") * CreationPolynomial.mode(reg, "s2")
        net = beam_splitter(0.7, 0.3, "b0", "s0", reg)
        aux = random_aux_state(rng, reg, ("b0",), 2)
        u = coefficient_overlap_vector(psi1, psi2, net, "s0")
        assert np.abs(u).max() < 1e-12
        v = conditional_overlap_vector(aux, psi1, psi2, net, "s0")
        assert np.abs(v).max() < 1e-10
        report = verify_no_go(aux, [psi1, psi2], net, "s0")
        assert report.pairs[0].coefficient_zero
        assert report.pairs[0].with_aux_zero
        assert report.pairs[0].zero_equivalent

    @pytest.mark.parametrize("family", ["permutation", "splitters"])
    def test_structured_instances_reach_both_sides_of_the_zero_equivalence(self, family):
        # Random states under Haar networks never give U' = 0; Fock monomials
        # do.  A permutation keeps every pair orthogonal at every outcome, and
        # splitters mix both cases, so each verdict of the flags is exercised.
        rng = np.random.default_rng(7)
        flags = []
        for _ in range(100):
            aux, states, net, measured = structured_nogo_instance(rng, family)
            report = verify_no_go(aux, states, net, measured)
            assert report.passed, (family, measured, report.max_residual)
            flags += [(pair.coefficient_zero, pair.with_aux_zero) for pair in report.pairs]
        if family == "permutation":
            assert set(flags) == {(True, True)}
        else:
            assert set(flags) == {(True, True), (False, False)}

    def test_corruption_hook_fails(self, monkeypatch):
        transfer_matrix = nogo.transfer_matrix

        def corrupted(tables):
            m = transfer_matrix(tables)
            m[-1, -1] += 0.5
            return m

        monkeypatch.setattr(nogo, "transfer_matrix", corrupted)
        rng = np.random.default_rng(57)
        inst = random_nogo_instance(rng, force_aux_photons=True)
        report = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
        assert not report.passed

    def test_validation_errors(self):
        reg = ModeRegistry(("s0", "b0"))
        psi = CreationPolynomial.mode(reg, "s0")
        aux = CreationPolynomial.mode(reg, "b0")
        net = identity(reg)
        with pytest.raises(ValueError):
            verify_no_go(aux, [psi], net, "s0")  # too few states
        with pytest.raises(ValueError):
            verify_no_go(CreationPolynomial.zero(reg), [psi, psi], net, "s0")
        mixed = psi + CreationPolynomial.mode(reg, "s0", 2)
        with pytest.raises(ValueError):
            verify_no_go(aux, [psi, mixed], net, "s0")  # not homogeneous
        deg2 = CreationPolynomial.mode(reg, "s0", 2)
        with pytest.raises(ValueError):
            verify_no_go(aux, [psi, deg2], net, "s0")  # unequal degrees
        with pytest.raises(ValueError):
            verify_no_go(psi, [psi, psi.scale(2.0)], net, "s0")  # shared support

    def test_product_over_the_photon_cap_raises(self):
        # Two photons in each state and in the aux are under a cap of 3; the
        # product puts four on the measured output.
        reg = ModeRegistry(("s0", "s1", "b0"), photon_cap=3)
        states = [CreationPolynomial.mode(reg, "s0", 2), CreationPolynomial.mode(reg, "s1", 2)]
        aux = CreationPolynomial.mode(reg, "b0", 2)
        net = random_network(reg, np.random.default_rng(59))
        with pytest.raises(PhotonCapError):
            verify_no_go(aux, states, net, "s0")

    def test_report_round_trips_to_json(self):
        import json

        rng = np.random.default_rng(58)
        inst = random_nogo_instance(rng)
        report = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
        text = json.dumps(report_value(report), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["passed"] is True
        assert len(parsed["transfer_matrix"]) == report.system_order + 1


def cap_over_the_product():
    """Modes s0, s1, b0, m with cap 3, states s0^2 and s0 s1, aux b0^2.

    U[m, b0] = 0, so the QR rows keep b0 off s0's row, while on the physical
    outputs s0^2 and b0^2 meet and put four photons on one of them.
    """
    u = haar_random_unitary(4, np.random.default_rng(5))
    # A rotation of columns s1 and b0 zeroes U[m, b0].
    alpha, beta = u[3, 1], -u[3, 2]
    norm = math.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / norm, beta / norm
    s1_col, b0_col = u[:, 1].copy(), u[:, 2].copy()
    u[:, 2] = alpha * b0_col + beta * s1_col
    u[:, 1] = -np.conj(beta) * b0_col + np.conj(alpha) * s1_col
    u[3, 2] = 0.0
    reg = ModeRegistry(("s0", "s1", "b0", "m"), photon_cap=3)
    s0, s1, b0 = (CreationPolynomial.mode(reg, label, 1) for label in ("s0", "s1", "b0"))
    return b0 * b0, [s0 * s0, s0 * s1], from_matrix(u, reg), "m"


class TestPhotonCapOnPhysicalOutputs:
    # The cap is a bound on physical output modes, which the QR rows of the
    # reduced network are not; both checks must raise exactly when the full
    # network does.
    def test_product_within_the_cap_on_every_output_passes(self):
        aux, states, net, measured = cap_below_the_product()
        assert verify_no_go(aux, states, net, measured).passed
        instance = DiscriminationInstance(states=tuple(states), aux=aux)
        stage_orthogonality(instance, net, measured)

    def test_product_over_the_cap_on_an_output_raises(self):
        aux, states, net, measured = cap_over_the_product()
        assert net.matrix[3, 2] == 0
        with pytest.raises(PhotonCapError):
            verify_no_go(aux, states, net, measured)
        instance = DiscriminationInstance(states=tuple(states), aux=aux)
        with pytest.raises(PhotonCapError):
            stage_orthogonality(instance, net, measured)


class TestRouteEquivalence:
    def test_pair_vectors_match_product_substitution_route(self):
        # verify_no_go reads V from sub(aux)*sub(psi) and U' from the same
        # expansions; the references substitute aux*psi and condition once
        # per outcome, and expand each bare state on its own.
        rng = np.random.default_rng(60)
        superposed = 0
        for k in range(12):
            inst = random_nogo_instance(
                rng,
                max_system_modes=3,
                max_aux_modes=2,
                max_photons=3,
                max_aux_photons=2,
                n_states=3 + k % 2,
                force_aux_photons=True,
            )
            superposed += not inst.aux.is_homogeneous()
            report = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
            assert report.passed
            for pair in report.pairs:
                psi_i, psi_j = inst.states[pair.i], inst.states[pair.j]
                args = (inst.network, inst.measured, report.system_order)
                for got, want in (
                    (pair.with_aux, conditional_overlap_vector(inst.aux, psi_i, psi_j, *args)),
                    (pair.coefficient, coefficient_overlap_vector(psi_i, psi_j, *args)),
                ):
                    scale = np.abs(want).max()
                    assert scale > 0.0
                    assert np.abs(np.array(got) - want).max() <= 1e-10 * scale
        assert superposed >= 3


def twist_unmeasured_outputs(net, measured, rng):
    """``net`` followed by a Haar-random unitary on every output but
    ``measured``."""
    registry = net.registry
    rest = [j for j in range(registry.size) if j != registry.index(measured)]
    w = np.eye(registry.size, dtype=complex)
    w[np.ix_(rest, rest)] = haar_random_unitary(len(rest), rng)
    return from_matrix(w @ net.matrix, registry)


def pair_flags(report):
    return [
        (p.with_aux_zero, p.coefficient_zero, p.zero_equivalent, p.passed)
        for p in report.pairs
    ]


class TestOutputInvariance:
    """The checks read only the measured mode's coefficients through vacuum
    overlaps and weights, so a unitary acting after the network on the
    unmeasured outputs changes none of their numbers or flags."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_verify_no_go(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_nogo_instance(rng, max_system_modes=3, n_states=2 + seed % 2)
        twisted = twist_unmeasured_outputs(inst.network, inst.measured, rng)
        want = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
        got = verify_no_go(inst.aux, inst.states, twisted, inst.measured)
        flags = ("determinant_ok", "diagonal_ok", "triangular_ok", "passed")
        assert [getattr(got, f) for f in flags] == [getattr(want, f) for f in flags]
        assert pair_flags(got) == pair_flags(want)
        assert (got.aux_order, got.system_order) == (want.aux_order, want.system_order)
        m_want, m_got = np.array(want.transfer), np.array(got.transfer)
        assert np.abs(m_got - m_want).max() <= 1e-12 * np.abs(m_want).max()
        for p, q in zip(got.pairs, want.pairs):
            for field, scale in (
                ("with_aux", q.with_aux),
                ("predicted", q.with_aux),
                ("coefficient", q.coefficient),
            ):
                diff = np.abs(np.array(getattr(p, field)) - np.array(getattr(q, field)))
                assert diff.max() <= 1e-12 * np.abs(scale).max(), field

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_stage_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        registry = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        states = orthogonal_states(rng, registry, ("s0", "s1", "s2"), 2, 2 + seed % 2)
        aux = random_aux_state(rng, registry, ("b0", "b1"), int(rng.integers(0, 3)))
        instance = DiscriminationInstance(states=tuple(states), aux=aux)
        net = random_network(registry, rng)
        measured = registry.labels[int(rng.integers(0, registry.size))]
        twisted = twist_unmeasured_outputs(net, measured, rng)
        want = stage_orthogonality(instance, net, measured)
        got = stage_orthogonality(instance, twisted, measured)
        assert (got.max_outcome, got.verdict) == (want.max_outcome, want.verdict)
        assert [
            (r.i, r.j, r.outcome, r.orthogonal, r.vacuous, r.distinguished)
            for r in got.records
        ] == [
            (r.i, r.j, r.outcome, r.orthogonal, r.vacuous, r.distinguished)
            for r in want.records
        ]


class TestWorkCount:
    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_each_state_substituted_and_expanded_once(self, monkeypatch, n_states):
        calls = {"substitute": 0, "expand_by_mode": 0}

        def counted(name):
            original = getattr(nogo, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nogo, name, counted(name))
        inst = random_nogo_instance(
            np.random.default_rng(61), n_states=n_states, force_aux_photons=True
        )
        assert verify_no_go(inst.aux, inst.states, inst.network, inst.measured).passed
        assert calls == {"substitute": n_states + 1, "expand_by_mode": n_states + 1}


    @staticmethod
    def count_window_pairs(monkeypatch):
        counts = []
        original = measurement._mul_into

        def counted(out, left, right):
            counts.append(len(left) * len(right))
            original(out, left, right)

        monkeypatch.setattr(measurement, "_mul_into", counted)
        return counts

    def test_window_does_fewer_pair_products_than_the_product(self, monkeypatch):
        inst = random_nogo_instance(
            np.random.default_rng(62), max_aux_photons=3, force_aux_photons=True
        )
        net = nogo.reduced_network(
            inst.aux, inst.states, inst.network, inst.measured, nogo._check_aux(inst.aux, inst.states)
        )
        aux_out = substitute(inst.aux, net)
        aux_exp = expand_by_mode(aux_out, inst.measured)
        assert aux_exp.order > 0
        counts = self.count_window_pairs(monkeypatch)
        report = verify_no_go(inst.aux, inst.states, inst.network, inst.measured)
        assert report.passed
        full = sum(len(aux_out) * len(substitute(psi, net)) for psi in inst.states)
        assert 0 < sum(counts) < full

    def test_constant_aux_only_scales(self, monkeypatch):
        # With aux = 1 every window coefficient is one coefficient of
        # sub(psi) times a constant: one pair per term, no polynomial multiply.
        inst = random_nogo_instance(np.random.default_rng(63), n_states=3)
        aux = CreationPolynomial.constant(inst.aux.registry, 2.0)
        counts = self.count_window_pairs(monkeypatch)

        def no_multiply(self, other):
            raise AssertionError("polynomial multiply with a constant aux")

        monkeypatch.setattr(CreationPolynomial, "__mul__", no_multiply)
        report = verify_no_go(aux, inst.states, inst.network, inst.measured)
        monkeypatch.undo()
        assert report.passed
        net = nogo.reduced_network(
            aux, inst.states, inst.network, inst.measured, nogo._check_aux(aux, inst.states)
        )
        terms = sum(len(substitute(psi, net)) for psi in inst.states)
        assert sum(counts) == terms

    def test_reduced_network_emits_fewer_terms(self, monkeypatch):
        # Three system modes x four photons, aux on two modes: through the
        # full network every input column reaches all five outputs.
        rng = np.random.default_rng(64)
        registry = ModeRegistry(("s0", "s1", "s2", "b0", "b1"))
        states = [random_homogeneous_state(rng, registry, ("s0", "s1", "s2"), 4) for _ in range(3)]
        aux = random_homogeneous_state(rng, registry, ("b0", "b1"), 2)
        net = random_network(registry, rng)
        emitted = []
        original = nogo.substitute

        def counted(state, network):
            out = original(state, network)
            emitted.append(len(out))
            return out

        monkeypatch.setattr(nogo, "substitute", counted)
        assert verify_no_go(aux, states, net, "s1").passed
        full = sum(len(original(p, net)) for p in (*states, aux))
        assert len(emitted) == 4
        assert sum(emitted) < full


class TestDeterminant:
    def test_seed_3189_replay_passes(self):
        # A lower-triangular transfer matrix whose tiny diagonal sits under
        # large entries; a pivoting LU determinant missed D^(n_s+1) by more
        # than the 1e-8 tolerance although the identity holds.
        result = run_nogo_suite(
            count=1,
            seed=3189,
            max_system_modes=4,
            max_aux_modes=3,
            max_photons=4,
            max_aux_photons=3,
        )
        report = result.reports[0]
        assert report.determinant_ok
        assert report.passed
        assert result.max_det_deviation <= 1e-12


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda reg: verify_no_go(
                    CreationPolynomial.mode(reg, "b0"),
                    [CreationPolynomial.zero(reg), CreationPolynomial.mode(reg, "s0")],
                    identity(reg),
                    "c",
                ),
                "system state 0 is the zero polynomial",
            ),
            (
                lambda reg: aux_transfer_tables(expand_by_mode(CreationPolynomial.mode(reg, "c"), "c"), -1),
                "system order must be nonnegative",
            ),
            (
                lambda reg: aux_transfer_tables(expand_by_mode(CreationPolynomial.zero(reg), "c"), 1),
                "leading auxiliary coefficient has zero norm",
            ),
        ],
        ids=["zero-state", "negative-order", "zero-aux"],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(ModeRegistry(("s0", "s1", "b0", "c")))
