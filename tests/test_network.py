"""Unitary mode maps and operator substitution."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcascade import (
    CreationPolynomial,
    LinearNetwork,
    ModeRegistry,
    PhotonCapError,
    RegistryMismatchError,
    UnitarityViolation,
    beam_splitter,
    compose,
    expand_by_mode,
    from_matrix,
    haar_random_unitary,
    identity,
    network_from_dict,
    phase_shifter,
    random_network,
    substitute,
    vacuum_inner_product,
    vacuum_norm_sq,
)
from fockcascade import network
from helpers import random_poly

REG2 = ModeRegistry(("m1", "m2"))
REG3 = ModeRegistry(("m1", "m2", "m3"))
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


class TestConstruction:
    def test_identity_ok(self):
        net = from_matrix(np.eye(3), REG3)
        assert np.allclose(net.matrix, np.eye(3))

    def test_hadamard_ok(self):
        from_matrix(HADAMARD, REG2)

    def test_rank_deficient_rejected(self):
        bad = np.array([[1, 1], [1, 1]]) / np.sqrt(2)
        with pytest.raises(UnitarityViolation) as err:
            from_matrix(bad, REG2)
        assert err.value.deviation > 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            from_matrix(np.eye(2), REG3)

    def test_matrix_read_only(self):
        net = from_matrix(np.eye(2), REG2)
        with pytest.raises(ValueError):
            net.matrix[0, 0] = 0.0


class TestBuilders:
    def test_transparent_splitter(self):
        net = beam_splitter(0.0, 0.3, "m1", "m2", REG2)
        assert np.allclose(net.matrix, np.eye(2))

    def test_balanced_splitter_block(self):
        net = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        want = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        assert np.allclose(net.matrix, want)

    def test_splitter_inverse_pair(self):
        fwd = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        back = beam_splitter(-np.pi / 4, 0.0, "m1", "m2", REG2)
        assert np.abs(compose(fwd, back).matrix - np.eye(2)).max() < 1e-12

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(0.1, 0.0, "m1", "m1", REG2)

    def test_phase_shifter_zero(self):
        assert np.allclose(phase_shifter(0.0, "m1", REG2).matrix, np.eye(2))

    def test_phase_shifter_pi(self):
        net = phase_shifter(np.pi, "m1", REG2)
        assert np.allclose(net.matrix, np.diag([-1.0, 1.0]))

    def test_phase_group_property(self):
        third = phase_shifter(np.pi / 3, "m1", REG2)
        twice = compose(third, third)
        assert np.abs(twice.matrix - phase_shifter(2 * np.pi / 3, "m1", REG2).matrix).max() < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(3)
        net = random_network(REG3, rng)
        assert np.allclose(compose(identity(REG3), net).matrix, net.matrix)

    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(4)
        net = random_network(REG3, rng)
        inv = from_matrix(net.matrix.conj().T, REG3)
        assert np.abs(compose(net, inv).matrix - np.eye(3)).max() < 1e-12

    def test_registry_mismatch(self):
        with pytest.raises(RegistryMismatchError):
            compose(identity(REG2), identity(REG3))


class TestHaar:
    def test_unitary_and_deterministic(self):
        u1 = haar_random_unitary(4, np.random.default_rng(9))
        u2 = haar_random_unitary(4, np.random.default_rng(9))
        assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() < 1e-12
        assert np.array_equal(u1, u2)


class TestSubstitute:
    def test_identity_network(self):
        rng = np.random.default_rng(5)
        state = random_poly(rng, REG3, 3)
        out = substitute(state, identity(REG3))
        assert out.isclose(state, tol=1e-12)

    def test_two_photon_interference(self):
        state = CreationPolynomial.mode(REG2, "m1") * CreationPolynomial.mode(REG2, "m2")
        out = substitute(state, from_matrix(HADAMARD, REG2))
        assert abs(out.coefficient((2, 0)) - 0.5) < 1e-12
        assert abs(out.coefficient((0, 2)) + 0.5) < 1e-12
        assert abs(out.coefficient((1, 1))) < 1e-12

    def test_double_excitation_spread(self):
        state = CreationPolynomial.mode(REG2, "m1", 2)
        out = substitute(state, from_matrix(HADAMARD, REG2))
        assert abs(out.coefficient((2, 0)) - 0.5) < 1e-12
        assert abs(out.coefficient((1, 1)) - 1.0) < 1e-12
        assert abs(out.coefficient((0, 2)) - 0.5) < 1e-12

    def test_registry_mismatch(self):
        with pytest.raises(RegistryMismatchError):
            substitute(CreationPolynomial.mode(REG2, "m1"), identity(REG3))

    def test_norm_preserved_on_haar(self):
        rng = np.random.default_rng(6)
        reg = ModeRegistry(("m1", "m2", "m3", "m4"))
        for _ in range(20):
            state = random_poly(rng, reg, 4)
            net = random_network(reg, rng)
            before = vacuum_norm_sq(state)
            after = vacuum_norm_sq(substitute(state, net))
            assert abs(after - before) <= 1e-9 * max(1.0, before)

    def test_degree_preserved(self):
        rng = np.random.default_rng(7)
        for degree in range(1, 5):
            state = random_poly(rng, REG3, degree, homogeneous=True)
            out = substitute(state, random_network(REG3, rng))
            assert out.is_homogeneous()
            assert out.degree == degree

    def test_composition_coherence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            state = random_poly(rng, REG3, 3)
            a = random_network(REG3, rng)
            b = random_network(REG3, rng)
            assert substitute(state, compose(a, b)).isclose(
                substitute(substitute(state, a), b), tol=1e-9
            )

    def test_every_product_has_a_linear_factor(self, monkeypatch):
        # Nested (Horner) substitution multiplies only by the linear image of
        # one mode, one single-exponent shift per step, and never calls the
        # generic polynomial multiply.
        steps = []
        original = network._times_image

        def recording(terms, image):
            steps.append(image)
            return original(terms, image)

        def no_multiply(self, other):
            raise AssertionError("substitute called CreationPolynomial.__mul__")

        net = beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2)
        state = CreationPolynomial.monomial(REG2, {"m1": 2, "m2": 2})
        monkeypatch.setattr(network, "_times_image", recording)
        monkeypatch.setattr(CreationPolynomial, "__mul__", no_multiply)
        out = substitute(state, net)
        monkeypatch.undo()

        columns = [[u for u in column if u != 0] for column in net.matrix.T.tolist()]

        def input_mode(image):
            # The image of input mode k carries column k of U, in output order.
            (k,) = [k for k, column in enumerate(columns) if [u for _, u in image] == column]
            return k

        # a1^2 a2^2: two shifts by the image of m2, then two by that of m1.
        assert [input_mode(image) for image in steps] == [1, 1, 0, 0]
        assert all(len(image) == 2 for image in steps)
        # (c1 - c2)^2 (c1 + c2)^2 / 4 = (c1^2 - c2^2)^2 / 4
        assert abs(out.coefficient((4, 0)) - 0.25) < 1e-12
        assert abs(out.coefficient((2, 2)) + 0.5) < 1e-12
        assert abs(out.coefficient((3, 1))) < 1e-12

    def test_photon_cap_raised_through_a_splitter(self):
        reg = ModeRegistry(("a1", "a2"), photon_cap=20)
        state = CreationPolynomial.mode(reg, "a1", 12) * CreationPolynomial.mode(reg, "a2", 12)
        with pytest.raises(PhotonCapError):
            substitute(state, beam_splitter(np.pi / 4, 0.0, "a1", "a2", reg))


small_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.builds(
        complex,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=5,
)
net_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def seeded_network(seed):
    return random_network(REG3, np.random.default_rng(seed))


class TestHomomorphism:
    """Substitution is a ring homomorphism that respects composition."""

    @settings(max_examples=60, deadline=None)
    @given(small_terms, small_terms, net_seeds)
    def test_product_maps_to_product(self, terms_a, terms_b, seed):
        a = CreationPolynomial(REG3, terms_a)
        b = CreationPolynomial(REG3, terms_b)
        net = seeded_network(seed)
        assert substitute(a * b, net).isclose(
            substitute(a, net) * substitute(b, net), tol=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(small_terms, net_seeds, net_seeds)
    def test_composition(self, terms, seed_a, seed_b):
        p = CreationPolynomial(REG3, terms)
        a, b = seeded_network(seed_a), seeded_network(seed_b)
        assert substitute(substitute(p, a), b).isclose(
            substitute(p, compose(a, b)), tol=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            max_size=8,
        )
    )
    def test_trusted_construction_matches_validated(self, terms):
        validated = CreationPolynomial(REG3, terms)
        trusted = CreationPolynomial._trusted(REG3, dict(terms))
        assert dict(trusted.items()) == dict(validated.items())

    def test_product_over_the_cap_still_raised(self):
        reg = ModeRegistry(("a1", "a2"), photon_cap=20)
        a1 = CreationPolynomial.mode(reg, "a1", 12)
        with pytest.raises(PhotonCapError):
            a1 * a1
        # Total degree 24 over the cap, but no single mode exceeds it.
        assert (a1 * CreationPolynomial.mode(reg, "a2", 12)).degree == 24


state_shapes = st.tuples(
    st.integers(min_value=1, max_value=5),   # modes
    st.integers(min_value=0, max_value=6),   # degree
    st.booleans(),                           # homogeneous
    net_seeds,
)


def drawn_state(shape):
    modes, degree, homogeneous, seed = shape
    rng = np.random.default_rng(seed)
    reg = ModeRegistry(tuple(f"m{k}" for k in range(modes)))
    return reg, random_poly(rng, reg, degree, homogeneous), rng


class TestPackedKernel:
    """The packed-integer kernel against two references that do not use it."""

    @settings(max_examples=80, deadline=None)
    @given(state_shapes)
    def test_permutation_relabels_exponents(self, shape):
        reg, state, rng = drawn_state(shape)
        perm = rng.permutation(reg.size)
        matrix = np.zeros((reg.size, reg.size))
        matrix[perm, np.arange(reg.size)] = 1.0  # a^dag_i -> c^dag_perm[i]
        out = substitute(state, from_matrix(matrix, reg))
        want = {}
        for exps, coeff in state.items():
            moved = [0] * reg.size
            for i, e in enumerate(exps):
                moved[perm[i]] = e
            want[tuple(moved)] = coeff
        assert dict(out.items()) == want

    @settings(max_examples=80, deadline=None)
    @given(state_shapes)
    def test_equals_the_product_of_the_images(self, shape):
        reg, state, rng = drawn_state(shape)
        net = random_network(reg, rng)
        unit = np.eye(reg.size, dtype=int)
        images = [
            CreationPolynomial(reg, {tuple(unit[j]): u for j, u in enumerate(column)})
            for column in net.matrix.T
        ]
        want = CreationPolynomial.zero(reg)
        for exps, coeff in state.items():
            term = CreationPolynomial.constant(reg, coeff)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * images[i]
            want = want + term
        assert substitute(state, net).isclose(want, tol=1e-12)


class TestMeasuredRowNetwork:
    """The measured row is kept; the others are the R of a QR of the rest."""

    CASES = {
        "one-mode": lambda: (identity(ModeRegistry(("m1",))), "m1", []),
        "two-mode": lambda: (from_matrix(HADAMARD, REG2), "m2", ["m2"]),
        "identity": lambda: (identity(REG3), "m2", ["m3", "m1"]),
        # Row m1 of a splitter on m1, m2 has a zero in column m3.
        "zero-entry-row": lambda: (beam_splitter(0.3, 0.2, "m1", "m2", REG3), "m1", ["m3"]),
        "haar": lambda: (
            random_network(ModeRegistry(tuple("abcde")), np.random.default_rng(15)),
            "c",
            ["e", "a"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_structure(self, case):
        net, measured, first = self.CASES[case]()
        reduced = network.measured_row_network(net, measured, first)
        m = reduced.matrix
        c = net.registry.index(measured)
        assert np.array_equal(m[c], net.matrix[c])
        assert np.abs(m.conj().T @ m - np.eye(len(m))).max() <= 1e-12
        order = [net.registry.index(x) for x in first]
        order += [k for k in range(len(m)) if k not in order]
        for k, column in enumerate(order):
            reached = [j for j in range(len(m)) if j != c and m[j, column] != 0]
            assert len(reached) <= k + 1, (k, reached)

    def test_identity_stays_a_signed_permutation(self):
        # The QR of a permutation has entries 0 and +-1 only.
        m = network.measured_row_network(identity(REG3), "m2", ["m3", "m1"]).matrix
        assert np.abs(np.abs(m) - np.round(np.abs(m))).max() <= 1e-15
        assert (np.count_nonzero(np.abs(m) > 0.5, axis=0) == 1).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_measured_mode_reads_the_same(self, case):
        # Outcome weights and vacuum overlaps of the measured mode's
        # coefficients are unchanged.
        net, measured, first = self.CASES[case]()
        reduced = network.measured_row_network(net, measured, first)
        rng = np.random.default_rng(16)
        p, q = (random_poly(rng, net.registry, 2) for _ in range(2))
        full = [expand_by_mode(substitute(x, net), measured) for x in (p, q)]
        less = [expand_by_mode(substitute(x, reduced), measured) for x in (p, q)]
        assert np.allclose(full[0].weights(), less[0].weights(), rtol=0, atol=1e-12)
        for n in range(full[0].order + 1):
            want = vacuum_inner_product(full[0].coefficient(n), full[1].coefficient(n))
            got = vacuum_inner_product(less[0].coefficient(n), less[1].coefficient(n))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_inherits_a_loose_tolerance(self):
        # A network accepted at a loose tolerance reduces without raising.
        u = haar_random_unitary(3, np.random.default_rng(17)) * (1 + 1e-8)
        net = network.LinearNetwork(u, REG3, tol=1e-6)
        reduced = network.measured_row_network(net, "m1", ["m2"])
        assert reduced.deviation <= net.deviation + 1e-12


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(14)
        net = random_network(REG3, rng)
        data = {"matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in net.matrix]}
        back = network_from_dict(json.loads(json.dumps(data)), REG3)
        assert np.abs(back.matrix - net.matrix).max() < 1e-15

    def test_elements_form(self):
        data = {
            "elements": [
                {"bs": {"theta": np.pi / 4, "phi": 0.0, "i": "m1", "j": "m2"}},
                {"ps": {"phi": np.pi / 2, "i": "m2"}},
            ]
        }
        net = network_from_dict(data, REG2)
        want = compose(
            beam_splitter(np.pi / 4, 0.0, "m1", "m2", REG2),
            phase_shifter(np.pi / 2, "m2", REG2),
        )
        assert np.abs(net.matrix - want.matrix).max() < 1e-12

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            network_from_dict({"elements": [{"nope": {}}]}, REG2)

    def test_needs_one_shape(self):
        with pytest.raises(ValueError):
            network_from_dict({}, REG2)


class TestInputChecks:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix_rejected(self, entry):
        matrix = np.eye(2, dtype=complex)
        matrix[0, 1] = entry
        with pytest.raises(ValueError, match="^network matrix has non-finite entries$"):
            LinearNetwork(matrix, REG2)
