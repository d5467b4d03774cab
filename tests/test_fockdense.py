"""Dense Fock-space reference path."""

import math

import numpy as np
import pytest
import scipy.linalg

from fockcascade import (
    CreationPolynomial,
    FockBasis,
    ModeRegistry,
    apply_network_dense,
    embed,
    fock_unitary,
    from_matrix,
    haar_random_unitary,
    project_outcome_dense,
    random_network,
    run_oracle_suite,
    substitute,
)
from fockcascade import fockdense
from fockcascade.fockdense import OPERATOR_MAX_DIMENSION, _lift_generator, _mode_generator
from helpers import lift_generator_loop, random_poly

REG2 = ModeRegistry(("c", "d"))
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


class TestBasis:
    def test_dimension(self):
        for modes, cap in [(2, 2), (3, 4), (4, 3)]:
            basis = FockBasis(modes, cap)
            assert basis.dimension == math.comb(modes + cap, modes)

    def test_graded_lex_order(self):
        basis = FockBasis(2, 2)
        assert basis.states == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

    def test_index_inverts(self):
        basis = FockBasis(3, 3)
        for k, occ in enumerate(basis.states):
            assert basis.index[occ] == k

    def test_occupation_table_and_scale(self):
        # Row k of occ is states[k], and scale[k] is sqrt(prod n_i!) as the
        # exact integer product gives it.
        for modes, cap in [(1, 9), (3, 4), (5, 3)]:
            basis = FockBasis(modes, cap)
            assert basis.occ.dtype == np.int64
            assert basis.occ.tolist() == [list(occ) for occ in basis.states]
            want = [math.sqrt(math.prod(map(math.factorial, occ))) for occ in basis.states]
            assert basis.scale.tolist() == want

    def test_states_with_one_outcome_are_the_first_reduced_states(self):
        # The order fact: in basis order and with the mode dropped, the states
        # with n photons on a mode are reduced.states[:count], in order.  (One
        # mode has no reduced basis.)
        for modes in range(2, 6):
            for cap in range(6):
                basis, reduced = FockBasis(modes, cap), FockBasis(modes - 1, cap)
                for mode in range(modes):
                    for n in range(cap + 1):
                        rest = [occ[:mode] + occ[mode + 1 :] for occ in basis.states if occ[mode] == n]
                        assert rest == list(reduced.states[: len(rest)]), (modes, cap, mode, n)
                        assert len(rest) == reduced.sectors[cap - n].stop

    def test_cap_past_the_largest_finite_factorial_rejected(self):
        with pytest.raises(ValueError, match="cap between 0 and 170"):
            FockBasis(1, 171)


class TestEmbed:
    def test_vacuum_unit(self):
        basis = FockBasis(2, 2)
        vec = embed(CreationPolynomial.constant(REG2, 1.0), basis)
        assert vec[basis.index[(0, 0)]] == 1.0
        assert np.linalg.norm(vec) == 1.0

    def test_normalized_double_excitation(self):
        basis = FockBasis(2, 2)
        p = CreationPolynomial.mode(REG2, "c", 2).scale(1.0 / math.sqrt(2.0))
        vec = embed(p, basis)
        assert abs(vec[basis.index[(2, 0)]] - 1.0) < 1e-12

    def test_interference_amplitudes(self):
        basis = FockBasis(2, 2)
        pair = CreationPolynomial.mode(REG2, "c") * CreationPolynomial.mode(REG2, "d")
        vec = embed(substitute(pair, from_matrix(HADAMARD, REG2)), basis)
        r = 1.0 / math.sqrt(2.0)
        assert abs(vec[basis.index[(2, 0)]] - r) < 1e-12
        assert abs(vec[basis.index[(1, 1)]]) < 1e-12
        assert abs(vec[basis.index[(0, 2)]] + r) < 1e-12

    def test_cap_exceeded(self):
        basis = FockBasis(2, 1)
        with pytest.raises(ValueError):
            embed(CreationPolynomial.mode(REG2, "c", 2), basis)


class TestDenseEvolution:
    def test_identity(self):
        rng = np.random.default_rng(31)
        basis = FockBasis(2, 3)
        vec = embed(random_poly(rng, REG2, 3), basis)
        out = apply_network_dense(vec, np.eye(2), basis)
        assert np.abs(out - vec).max() < 1e-12

    def test_two_photon_interference_dense_only(self):
        # Dense path on its own reproduces the bunching amplitudes.
        basis = FockBasis(2, 2)
        pair = CreationPolynomial.mode(REG2, "c") * CreationPolynomial.mode(REG2, "d")
        out = apply_network_dense(embed(pair, basis), HADAMARD, basis)
        r = 1.0 / math.sqrt(2.0)
        assert abs(out[basis.index[(2, 0)]] - r) < 1e-9
        assert abs(out[basis.index[(1, 1)]]) < 1e-9
        assert abs(out[basis.index[(0, 2)]] + r) < 1e-9

    def test_norm_preserved(self):
        rng = np.random.default_rng(32)
        reg = ModeRegistry(("c", "d", "e"))
        basis = FockBasis(3, 4)
        for _ in range(5):
            vec = embed(random_poly(rng, reg, 4), basis)
            out = apply_network_dense(vec, random_network(reg, rng).matrix, basis)
            assert abs(np.linalg.norm(out) - np.linalg.norm(vec)) < 1e-9

    def test_lift_respects_products(self):
        rng = np.random.default_rng(33)
        basis = FockBasis(2, 3)
        a = random_network(REG2, rng).matrix
        b = random_network(REG2, rng).matrix
        lifted = fock_unitary(b @ a, basis)
        stagewise = fock_unitary(b, basis) @ fock_unitary(a, basis)
        assert np.abs(lifted - stagewise).max() < 1e-9

    def test_photon_number_blocks(self):
        rng = np.random.default_rng(34)
        basis = FockBasis(2, 3)
        u = fock_unitary(random_network(REG2, rng).matrix, basis)
        for r, occ_r in enumerate(basis.states):
            for c, occ_c in enumerate(basis.states):
                if sum(occ_r) != sum(occ_c):
                    assert u[r, c] == 0

    def test_sectors_agree_with_whole_space_expm(self):
        rng = np.random.default_rng(36)
        for modes in range(2, 7):
            for cap in range(1, 7):
                basis = FockBasis(modes, cap)
                mode_unitary = haar_random_unitary(modes, rng)
                u = fock_unitary(mode_unitary, basis)
                whole = scipy.linalg.expm(
                    _lift_generator(_mode_generator(mode_unitary), basis)
                )
                assert np.abs(u - whole).max() < 1e-12, (modes, cap)
                unitarity = np.abs(u.conj().T @ u - np.eye(basis.dimension)).max()
                assert unitarity < 1e-12, (modes, cap)

    def test_one_expm_per_photon_number_sector(self, monkeypatch):
        shapes = []
        expm = scipy.linalg.expm

        def recording_expm(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", recording_expm)
        basis = FockBasis(6, 6)
        fock_unitary(haar_random_unitary(6, np.random.default_rng(37)), basis)
        assert len(shapes) == 7
        assert max(shapes) == (462, 462)

    @pytest.mark.parametrize("size", [1, 3])
    def test_mode_unitary_must_act_on_every_mode(self, size):
        wrong = haar_random_unitary(size, np.random.default_rng(38))
        for modes, cap in [(2, 2), (4, 6)]:
            basis = FockBasis(modes, cap)
            vec = np.ones(basis.dimension, dtype=complex)
            with pytest.raises(ValueError, match=f"does not act on {modes} modes"):
                fock_unitary(wrong, basis)
            with pytest.raises(ValueError, match=f"does not act on {modes} modes"):
                apply_network_dense(vec, wrong, basis)


def test_lift_matches_the_per_state_loop():
    # The loop skips zero entries of h: the identity (h = 0) and the mode
    # reversal (h zero off its diagonal and antidiagonal) take that branch.
    rng = np.random.default_rng(39)
    for modes in range(1, 7):
        reversal = np.eye(modes)[::-1]
        for cap in range(7):
            basis = FockBasis(modes, cap)
            for u in (haar_random_unitary(modes, rng), np.eye(modes), reversal):
                h = _mode_generator(u)
                assert np.array_equal(_lift_generator(h, basis), lift_generator_loop(h, basis)), (
                    modes, cap)


def test_lift_keys_beyond_int64():
    # One photon on 63 modes: keys reach 2**63, past the int64 range.
    basis = FockBasis(63, 1)
    h = _mode_generator(haar_random_unitary(63, np.random.default_rng(40)))
    assert np.array_equal(_lift_generator(h, basis), lift_generator_loop(h, basis))


def _route_vectors(basis, rng):
    """A one-sector vector, a vector over every sector and the zero vector."""
    superposed = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    one_sector = np.zeros(basis.dimension, dtype=complex)
    one_sector[basis.sectors[-1]] = superposed[basis.sectors[-1]]
    return one_sector, superposed, np.zeros(basis.dimension, dtype=complex)


class TestEvolutionRoutes:
    LARGE = [(4, 6), (6, 5), (6, 6)]

    @pytest.mark.parametrize("modes,cap", LARGE)
    def test_action_agrees_with_operator(self, modes, cap):
        rng = np.random.default_rng(41)
        basis = FockBasis(modes, cap)
        assert basis.dimension > OPERATOR_MAX_DIMENSION
        u = haar_random_unitary(modes, rng)
        operator = fock_unitary(u, basis)
        for vec in _route_vectors(basis, rng):
            out = apply_network_dense(vec, u, basis)
            assert np.abs(out - operator @ vec).max() <= 1e-12 * np.linalg.norm(vec)

    @pytest.mark.parametrize("modes,cap", LARGE)
    def test_action_forms_no_operator(self, modes, cap, monkeypatch):
        rng = np.random.default_rng(42)
        basis = FockBasis(modes, cap)

        def forbidden(*args):
            raise AssertionError("dense operator formed above the crossover")

        monkeypatch.setattr(fockdense, "fock_unitary", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        u = haar_random_unitary(modes, rng)
        for vec in _route_vectors(basis, rng):
            apply_network_dense(vec, u, basis)

    @pytest.mark.parametrize("modes,cap", [(2, 2), (4, 4), (4, 5), (5, 4)])
    def test_operator_up_to_the_crossover(self, modes, cap, monkeypatch):
        basis = FockBasis(modes, cap)
        assert basis.dimension <= OPERATOR_MAX_DIMENSION
        calls = []
        operator = fockdense.fock_unitary

        def counting(u, b):
            calls.append(b.dimension)
            return operator(u, b)

        monkeypatch.setattr(fockdense, "fock_unitary", counting)
        rng = np.random.default_rng(43)
        vec = _route_vectors(basis, rng)[1]
        apply_network_dense(vec, haar_random_unitary(modes, rng), basis)
        assert calls == [basis.dimension]


class TestProjection:
    def test_vacuum(self):
        basis = FockBasis(2, 2)
        vec = embed(CreationPolynomial.constant(REG2, 1.0), basis)
        reduced, weight = project_outcome_dense(vec, 0, 0, basis, FockBasis(1, 2))
        assert weight == 1.0
        assert abs(reduced[0] - 1.0) < 1e-12

    def test_interference_dip(self):
        basis = FockBasis(2, 2)
        pair = CreationPolynomial.mode(REG2, "c") * CreationPolynomial.mode(REG2, "d")
        out = apply_network_dense(embed(pair, basis), HADAMARD, basis)
        _, weight = project_outcome_dense(out, 0, 1, basis, FockBasis(1, 2))
        assert weight < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(35)
        basis = FockBasis(3, 3)
        reg = ModeRegistry(("c", "d", "e"))
        vec = embed(random_poly(rng, reg, 3), basis)
        reduced = FockBasis(2, 3)
        total = sum(
            project_outcome_dense(vec, 1, n, basis, reduced)[1] for n in range(4)
        )
        assert abs(total - 1.0) < 1e-12

    def test_matches_the_per_state_selection(self):
        # Bit for bit the vector and weight of a pass over every basis state
        # that places each selected amplitude through reduced.index.
        rng = np.random.default_rng(36)
        basis, reduced = FockBasis(3, 4), FockBasis(2, 4)
        vec = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        for mode in range(3):
            for n in range(5):
                want, selected = np.zeros(reduced.dimension, dtype=complex), 0.0
                for k, occ in enumerate(basis.states):
                    if occ[mode] == n:
                        want[reduced.index[occ[:mode] + occ[mode + 1 :]]] = vec[k]
                        selected += abs(vec[k]) ** 2
                out, weight = project_outcome_dense(vec, mode, n, basis, reduced)
                assert np.array_equal(out, want)
                assert weight == float(selected) / float(np.vdot(vec, vec).real)

    def test_reduced_basis_must_drop_one_mode(self):
        basis = FockBasis(3, 3)
        vec = embed(CreationPolynomial.constant(ModeRegistry(("c", "d", "e")), 1.0), basis)
        for wrong in (FockBasis(3, 3), FockBasis(2, 2)):
            with pytest.raises(ValueError, match="does not drop one mode"):
                project_outcome_dense(vec, 0, 0, basis, wrong)


def test_quick_equivalence_suite():
    result = run_oracle_suite(count=20, seed=19)
    assert result.all_passed, result.summary()


def test_equivalence_suite_at_the_largest_size():
    result = run_oracle_suite(count=10, seed=23, max_modes=6, max_photons=6)
    assert result.all_passed, result.summary()


class TestInputChecks:
    BASIS, REDUCED = FockBasis(2, 2), FockBasis(1, 2)

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda b, r: embed(CreationPolynomial.mode(REG2, "c"), FockBasis(3, 2)),
                "polynomial and basis mode counts differ",
            ),
            (
                lambda b, r: apply_network_dense(np.ones(b.dimension + 1), HADAMARD, b),
                "vector does not match basis dimension",
            ),
            (
                lambda b, r: project_outcome_dense(np.ones(b.dimension), 0, 3, b, r),
                "outcome 3 outside basis cap 2",
            ),
            (
                lambda b, r: project_outcome_dense(np.zeros(b.dimension), 1, 0, b, r),
                "cannot project the zero vector",
            ),
        ],
        ids=["embed-modes", "vector-length", "outcome-past-cap", "zero-vector"],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(self.BASIS, self.REDUCED)
