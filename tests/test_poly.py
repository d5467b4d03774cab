"""Creation-operator polynomial algebra."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcascade import (
    CreationPolynomial,
    FockBasis,
    ModeRegistry,
    PhotonCapError,
    RegistryMismatchError,
    contract_annihilators,
    embed,
    normal_order_pair,
    vacuum_inner_product,
    vacuum_norm_sq,
)
from fockcascade.instancefile import parse_instance
from fockcascade.poly import report_value
from helpers import bracket_int, dense_annihilation_string, random_poly

REG2 = ModeRegistry(("a1", "a2"))
REG3 = ModeRegistry(("a1", "a2", "a3"))


def mode(reg, label, power=1):
    return CreationPolynomial.mode(reg, label, power)


class TestRegistry:
    def test_without_is_built_once_and_compares_by_value(self):
        reg = ModeRegistry(("a1", "a2", "a3"), photon_cap=7)
        fresh = ModeRegistry(("a1", "a2", "a3"), photon_cap=7)
        reduced = reg.without("a2")
        assert reg.without("a2") is reduced
        assert reduced == ModeRegistry(("a1", "a3"), photon_cap=7)
        assert reg == fresh and hash(reg) == hash(fresh)
        with pytest.raises(KeyError, match="not in registry"):
            reg.without("b")


class TestAdd:
    def test_additive_identity(self):
        p = mode(REG2, "a1") + 2.0 * mode(REG2, "a2")
        assert (p + CreationPolynomial.zero(REG2)).isclose(p)

    def test_like_term_merge(self):
        total = mode(REG2, "a1") + mode(REG2, "a1")
        assert total.coefficient((1, 0)) == 2.0
        assert len(total) == 1

    def test_cancellation_prunes(self):
        p = mode(REG2, "a1") + 1j * mode(REG2, "a2")
        q = mode(REG2, "a1") + (-1j) * mode(REG2, "a2")
        total = p + q
        assert total.coefficient((1, 0)) == 2.0
        assert total.coefficient((0, 1)) == 0.0
        assert len(total) == 1

    def test_registry_mismatch(self):
        with pytest.raises(RegistryMismatchError):
            mode(REG2, "a1") + mode(REG3, "a1")


class TestMultiply:
    def test_disjoint_modes(self):
        p = mode(REG2, "a1") * mode(REG2, "a2")
        assert p.coefficient((1, 1)) == 1.0
        assert len(p) == 1

    def test_exponent_addition(self):
        p = mode(REG2, "a1") * mode(REG2, "a1")
        assert p.coefficient((2, 0)) == 1.0

    def test_binomial_expansion(self):
        s = mode(REG2, "a1") + mode(REG2, "a2")
        sq = s * s
        assert sq.coefficient((2, 0)) == 1.0
        assert sq.coefficient((1, 1)) == 2.0
        assert sq.coefficient((0, 2)) == 1.0

    def test_degree_adds(self):
        p = mode(REG2, "a1", 2) + mode(REG2, "a2", 2)
        q = mode(REG2, "a1")
        assert (p * q).degree == 3

    def test_scalar_forms(self):
        p = mode(REG2, "a1")
        assert (2 * p).coefficient((1, 0)) == 2.0
        assert (p * (1 + 1j)).coefficient((1, 0)) == 1 + 1j
        assert (0 * p).is_zero()


class TestVacuumInnerProduct:
    def test_double_occupation(self):
        p = mode(REG2, "a1", 2)
        assert vacuum_inner_product(p, p) == 2.0  # 2! from the double excitation

    def test_orthogonal_monomials(self):
        assert vacuum_inner_product(mode(REG2, "a1"), mode(REG2, "a2")) == 0.0

    def test_plus_minus_orthogonal(self):
        plus = mode(REG2, "a1") + mode(REG2, "a2")
        minus = mode(REG2, "a1") - mode(REG2, "a2")
        assert vacuum_inner_product(plus, minus) == 0.0
        # same result through the dense reference
        basis = FockBasis(2, 2)
        dense = np.vdot(embed(plus, basis), embed(minus, basis))
        assert abs(dense) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        p = mode(REG2, "a1")
        assert vacuum_inner_product(1j * p, p) == -1j
        assert vacuum_inner_product(p, 1j * p) == 1j

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(10101)
        basis = FockBasis(3, 4)
        for _ in range(25):
            p = random_poly(rng, REG3, 4)
            q = random_poly(rng, REG3, 4)
            lhs = vacuum_inner_product(p, q)
            rhs = np.vdot(embed(p, basis), embed(q, basis))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestNormalOrderPair:
    def test_canonical_commutator(self):
        assert normal_order_pair(1, 1) == [(0, 1), (1, 1)]

    def test_two_two_case(self):
        assert normal_order_pair(2, 2) == [(0, 1), (1, 4), (2, 2)]

    def test_already_normal_ordered(self):
        assert normal_order_pair(0, 5) == [(0, 1)]

    def test_exact_against_integer_bracket(self):
        # <0| c^r c^m c^dag^n c^dag^s |0> evaluated two ways, exact integers.
        for m in range(6):
            for n in range(6):
                expansion = normal_order_pair(m, n)
                for r in range(4):
                    for s in range(4):
                        direct = bracket_int(
                            [("a", r), ("a", m), ("c", n), ("c", s)]
                        )
                        via = sum(
                            w * bracket_int(
                                [("a", r), ("c", n - k), ("a", m - k), ("c", s)]
                            )
                            for k, w in expansion
                        )
                        assert direct == via

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normal_order_pair(-1, 0)


class TestContraction:
    def test_single_contraction(self):
        out = contract_annihilators(mode(REG2, "a1"), mode(REG2, "a1"))
        assert out.coefficient((0, 0)) == 1.0

    def test_mode_mismatch_annihilates(self):
        out = contract_annihilators(mode(REG2, "a1"), mode(REG2, "a2"))
        assert out.is_zero()

    def test_lowering_double_excitation(self):
        state = mode(REG2, "a1", 2) * mode(REG2, "a2")
        out = contract_annihilators(mode(REG2, "a1"), state)
        assert out.coefficient((1, 1)) == 2.0
        assert len(out) == 1

    def test_matches_dense_ladder_matrices(self):
        rng = np.random.default_rng(77)
        basis = FockBasis(3, 5)
        for _ in range(10):
            ops = random_poly(rng, REG3, 2)
            state = random_poly(rng, REG3, 3)
            got = embed(contract_annihilators(ops, state), basis)
            want = np.zeros(basis.dimension, dtype=complex)
            for exps, coeff in ops.items():
                want += coeff * (dense_annihilation_string(exps, basis) @ embed(state, basis))
            assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


small_coeff = st.integers(min_value=-3, max_value=3)
small_poly = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    st.builds(complex, small_coeff, small_coeff),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(small_poly, small_poly)
def test_hermitian_symmetry(terms_p, terms_q):
    p = CreationPolynomial(REG2, terms_p)
    q = CreationPolynomial(REG2, terms_q)
    assert vacuum_inner_product(p, q) == vacuum_inner_product(q, p).conjugate()


@settings(max_examples=60, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_distributive_exact(terms_p, terms_q, terms_r):
    p = CreationPolynomial(REG2, terms_p)
    q = CreationPolynomial(REG2, terms_q)
    r = CreationPolynomial(REG2, terms_r)
    lhs = p * (q + r)
    rhs = p * q + p * r
    keys = set(dict(lhs.items())) | set(dict(rhs.items()))
    assert all(lhs.coefficient(k) == rhs.coefficient(k) for k in keys)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_homogeneous_product_degree(deg_p, deg_q, data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    p = random_poly(rng, REG2, deg_p, homogeneous=True)
    q = random_poly(rng, REG2, deg_q, homogeneous=True)
    product = p * q
    assert product.is_homogeneous()
    if not p.is_zero() and not q.is_zero():
        assert product.degree == deg_p + deg_q


class TestStructure:
    def test_degree_and_homogeneity(self):
        p = mode(REG2, "a1", 2) + mode(REG2, "a2")
        assert p.degree == 2
        assert not p.is_homogeneous()
        assert CreationPolynomial.zero(REG2).is_homogeneous()
        assert CreationPolynomial.zero(REG2).degree == 0

    def test_degree_in_and_support(self):
        p = mode(REG3, "a1", 2) * mode(REG3, "a3") + mode(REG3, "a1")
        assert p.degree_in("a1") == 2
        assert p.degree_in("a2") == 0
        assert p.support() == {"a1", "a3"}

    def test_vacuum_norm(self):
        p = mode(REG2, "a1", 2) * mode(REG2, "a2")
        assert vacuum_norm_sq(p) == 2.0  # 2! * 1!

    def test_photon_cap_rejected(self):
        with pytest.raises(PhotonCapError):
            CreationPolynomial.mode(REG2, "a1", 21)
        roomy = ModeRegistry(("a1",), photon_cap=30)
        assert CreationPolynomial.mode(roomy, "a1", 25).degree == 25

    def test_relative_pruning(self):
        p = CreationPolynomial(REG2, {(1, 0): 1.0, (0, 1): 1e-15})
        assert len(p) == 1


class TestSerialization:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(13)
        p = random_poly(rng, REG3, 3)
        doc = {"modes": list(REG3.labels), "states": [p.to_dict()]}
        q = parse_instance(json.loads(json.dumps(doc))).states[0]
        assert dict(p.items()) == dict(q.items())
        assert q.registry == REG3

    def test_canonical_term_order(self):
        p = mode(REG2, "a2") + mode(REG2, "a1", 2) + CreationPolynomial.constant(REG2, 3)
        exps = [term["exp"] for term in p.to_dict()["terms"]]
        assert exps == [[0, 0], [0, 1], [2, 0]]  # graded, then lexicographic

    def test_registry_mismatch_on_load(self):
        p = mode(REG2, "a1")
        with pytest.raises(ValueError, match=r"^states\[0\]\.modes must be the instance modes"):
            parse_instance({"modes": list(REG3.labels), "states": [p.to_dict()]})


@dataclass(frozen=True)
class _Record:
    name: str
    value: float = field(metadata={"json": "renamed"})
    hidden: float = field(metadata={"json": None})
    parts: tuple = ()


class TestReportValue:
    def test_floats_at_twelve_significant_digits(self):
        assert report_value(1 / 3) == 0.333333333333
        assert report_value(np.float64(2 / 3)) == 0.666666666667
        assert type(report_value(np.float64(0.5))) is float

    def test_complex_becomes_re_im(self):
        assert report_value(np.complex128(1 / 3 - 2j)) == {"re": 0.333333333333, "im": -2.0}

    def test_passthrough_keeps_bools_and_ints(self):
        assert report_value(True) is True
        assert report_value(7) == 7 and type(report_value(7)) is int
        assert report_value(None) is None and report_value("x") == "x"

    def test_dataclass_renames_omits_and_recurses(self):
        record = _Record("a", 1 / 3, 9.0, parts=((1, 2.0), [1j]))
        assert report_value(record) == {
            "name": "a",
            "renamed": 0.333333333333,
            "parts": [[1, 2.0], [{"re": 0.0, "im": 1.0}]],
        }

    @pytest.mark.parametrize("value", [{"k": 1}, {1, 2}, np.arange(2), object(), _Record])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            report_value(value)
