"""Terms are pruned once, where coefficients are computed.

Every polynomial keeps only the terms with |c| > PRUNE_TOL * max|c|.  The
operations that compute coefficients prune their results; those that only
regroup, negate or conjugate the terms of pruned polynomials rely on that
bound holding already.  Either way every result below must meet it against
its own peak."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcascade import (
    CreationPolynomial,
    ModeRegistry,
    condition,
    expand_by_mode,
    random_network,
    run_cascade,
    substitute,
)
from fockcascade.measurement import product_coefficients
from fockcascade.poly import PRUNE_TOL, contract_annihilators
from helpers import mixed_level, random_full_strategy

REG = ModeRegistry(("c", "d", "e"))

# Magnitudes from 1e-14 to 1, so that pruning drops terms of the inputs and
# of the results.
coefficients = st.builds(
    lambda exponent, phase: 10.0**exponent * cmath.exp(1j * phase),
    st.floats(-14, 0),
    st.floats(0, 2 * math.pi),
)
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), coefficients, min_size=1, max_size=8).map(
    lambda terms: CreationPolynomial(REG, terms)
)


def assert_pruned(p: CreationPolynomial, what) -> None:
    cutoff = PRUNE_TOL * p.max_abs_coeff()
    below = [(e, c) for e, c in p.items() if not abs(c) > cutoff]
    assert not below, (what, below, cutoff)


def assert_tree_pruned(node) -> int:
    """Check every state of every node; return how many were checked."""
    checked = 0
    for k in range(len(node.states)):
        if node.states[k] is not None:
            assert_pruned(node.states[k], (node.history, k))
            checked += 1
    return checked + sum(assert_tree_pruned(child) for child in node.children)


class TestPrunedOnce:
    @settings(max_examples=120, deadline=None)
    @given(polys, polys, coefficients, st.integers(0, 2**32 - 1))
    def test_every_result_meets_the_bound(self, p, q, z, seed):
        rng = np.random.default_rng(seed)
        net = random_network(REG, rng)
        results = {
            "p + q": p + q,
            "p - q": p - q,
            "p * q": p * q,
            "p.scale(z)": p.scale(z),
            "-p": -p,
            "p.conjugate()": p.conjugate(),
            "substitute": substitute(p, net),
            "contract_annihilators": contract_annihilators(q.conjugate(), p),
        }
        left, right = expand_by_mode(p, "c"), expand_by_mode(q, "c")
        for n, part in enumerate(left.coefficients):
            results[f"expand_by_mode[{n}]"] = part
            results[f"condition({n})"] = condition(p, "c", n).state
        product = product_coefficients(left, right, 0, left.order + right.order)
        for n, part in enumerate(product):
            results[f"product_coefficients[{n}]"] = part
        results["reassemble"] = left.reassemble()
        for what, result in results.items():
            assert_pruned(result, what)
        stage = random_full_strategy(rng, REG, max(p.degree, q.degree))
        assert assert_tree_pruned(run_cascade([p, q], stage)) > 0

    def test_both_cascade_routes_meet_the_bound(self):
        # The level pass and the per-node route, side by side in one level.
        assert assert_tree_pruned(run_cascade(*mixed_level())) > 10
