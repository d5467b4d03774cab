"""Acceptance suite: one check per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math

import numpy as np
import pytest

from fockcascade import (
    CascadeStage,
    CreationPolynomial,
    DiscriminationInstance,
    ModeRegistry,
    beam_splitter,
    cascade_discrimination,
    expand_by_mode,
    from_matrix,
    outcome_distribution,
    random_nogo_instance,
    run_nogo_suite,
    run_oracle_suite,
    substitute,
    system_expansions,
    verify_no_go,
)
from helpers import bracket_int, orthogonal_states
from reference import (
    necessity_probe,
    normal_order_pair,
    overlap_component,
    overlap_component_recursive,
)

RESIDUAL_TOL = 1e-8
DET_TOL = 1e-8
DIAG_TOL = 1e-10
RECURRENCE_TOL = 1e-9
ORACLE_TOL = 1e-9
NO_AUX_TOL = 1e-10
PROBE_SLACK = 1e-8
SUITE_TIME_BUDGET_S = 60.0


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} {detail}")
    assert ok, f"criterion {num} failed {detail}"


@pytest.fixture(scope="module")
def theorem_suite():
    return run_nogo_suite(
        count=200,
        seed=7,
        max_system_modes=3,
        max_aux_modes=2,
        max_photons=3,
        max_aux_photons=2,
    )


def test_criterion_1_theorem_residuals(theorem_suite):
    result = theorem_suite
    worst = 0.0
    ok = True
    for report in result.reports:
        for pair in report.pairs:
            v_max = max(1.0, max(abs(z) for z in pair.with_aux) if pair.with_aux else 0.0)
            worst = max(worst, pair.residual / v_max)
            if pair.residual > RESIDUAL_TOL * v_max:
                ok = False
    in_time = result.elapsed_seconds < SUITE_TIME_BUDGET_S
    _criterion(
        1,
        "200-instance transfer-identity suite",
        ok and in_time,
        f"(max scaled residual {worst:.2e}, {result.elapsed_seconds:.1f}s)",
    )


def test_criterion_2_determinant_identity(theorem_suite):
    result = theorem_suite
    worst_det = 0.0
    worst_diag = 0.0
    ok = True
    for report in result.reports:
        expected = report.determinant_expected
        det_dev = abs(report.determinant - expected) / expected
        worst_det = max(worst_det, det_dev)
        if det_dev > DET_TOL:
            ok = False
        d = report.leading_aux_norm
        for s, row in enumerate(report.transfer):
            diag_dev = abs(row[s] - d) / abs(d)
            worst_diag = max(worst_diag, diag_dev)
            if diag_dev > DIAG_TOL:
                ok = False
        if not report.triangular_ok:
            ok = False
    _criterion(
        2,
        "determinant equals diagonal power, diagonal constant",
        ok,
        f"(max det dev {worst_det:.2e}, max diag dev {worst_diag:.2e})",
    )


def test_criterion_3_recurrence_equivalence():
    rng = np.random.default_rng(101)
    worst_rec = 0.0
    worst_sym = 0.0
    ok = True
    for _ in range(100):
        inst = random_nogo_instance(rng)
        exps, n_s = system_expansions(inst.states, inst.network, inst.measured)
        aux_exp = expand_by_mode(substitute(inst.aux, inst.network), inst.measured)
        n_a = aux_exp.order
        for s in range(n_a + n_s + 1):
            lo, hi = max(0, s - n_a), min(s, n_s)
            for n in range(lo, hi + 1):
                for m in range(lo, n + 1):
                    direct = overlap_component(aux_exp, exps[0], exps[1], n_s, s, n, m)
                    rec = overlap_component_recursive(
                        aux_exp, exps[0], exps[1], n_s, s, n, m
                    )
                    swapped = overlap_component(aux_exp, exps[0], exps[1], n_s, s, m, n)
                    scale = max(1.0, abs(direct))
                    worst_rec = max(worst_rec, abs(direct - rec) / scale)
                    worst_sym = max(worst_sym, abs(direct - swapped) / scale)
                    if abs(direct - rec) > RECURRENCE_TOL * scale:
                        ok = False
                    if abs(direct - swapped) > RECURRENCE_TOL * scale:
                        ok = False
    _criterion(
        3,
        "recursion matches direct evaluation, indices symmetric",
        ok,
        f"(max recurrence dev {worst_rec:.2e}, max symmetry dev {worst_sym:.2e})",
    )


def test_criterion_4_normal_ordering_exact():
    ok = normal_order_pair(2, 2) == [(0, 1), (1, 4), (2, 2)]
    checked = 0
    for m in range(6):
        for n in range(6):
            expansion = normal_order_pair(m, n)
            for r in range(4):
                for s in range(4):
                    direct = bracket_int([("a", r), ("a", m), ("c", n), ("c", s)])
                    via = sum(
                        w * bracket_int([("a", r), ("c", n - k), ("a", m - k), ("c", s)])
                        for k, w in expansion
                    )
                    checked += 1
                    if direct != via:
                        ok = False
    _criterion(
        4,
        "normal-ordering weights exact for all powers up to 5",
        ok,
        f"({checked} integer brackets compared)",
    )


def test_criterion_5_oracle_equivalence():
    result = run_oracle_suite(count=100, seed=11, max_modes=4, max_photons=4)
    reg = ModeRegistry(("c", "d"))
    pair = CreationPolynomial.mode(reg, "c") * CreationPolynomial.mode(reg, "d")
    hadamard = from_matrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2), reg)
    dist = dict(outcome_distribution(substitute(pair, hadamard), "c"))
    hom_ok = (
        abs(dist[0] - 0.5) < ORACLE_TOL
        and dist[1] < ORACLE_TOL
        and abs(dist[2] - 0.5) < ORACLE_TOL
    )
    ok = result.all_passed and hom_ok
    _criterion(
        5,
        "polynomial pipeline matches the dense reference",
        ok,
        f"(amp {result.max_amplitude_deviation:.2e}, weight "
        f"{result.max_weight_deviation:.2e}, two-photon split "
        f"{{0: {dist[0]:.3f}, 1: {dist[1]:.3f}, 2: {dist[2]:.3f}}})",
    )


def test_criterion_6_necessity_bound():
    rng = np.random.default_rng(103)
    checked = 0
    ok = True
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 2000, "could not build enough probe instances"
        inst = random_nogo_instance(rng, force_aux_photons=True)
        if len(inst.system_labels) < 2:
            continue
        states = orthogonal_states(
            rng, inst.registry, inst.system_labels, inst.states[0].degree, 2
        )
        disc = DiscriminationInstance(states=tuple(states), aux=inst.aux)
        report = necessity_probe(disc, inst.network, inst.measured)
        nontrivial = [p for p in report.pairs if p.no_aux_norm > 1e-6]
        if not nontrivial:
            continue
        checked += 1
        for pair in nontrivial:
            if pair.with_aux_norm < report.sigma_min * pair.no_aux_norm - PROBE_SLACK:
                ok = False
    _criterion(
        6,
        "with-aux overlap bounded below via smallest singular value",
        ok,
        f"({checked} instances with nonzero no-aux overlaps)",
    )


def test_criterion_7_discrimination_sanity():
    reg = ModeRegistry(("m1", "m2"))
    r = 1.0 / math.sqrt(2.0)
    plus = r * (CreationPolynomial.mode(reg, "m1") + CreationPolynomial.mode(reg, "m2"))
    minus = r * (CreationPolynomial.mode(reg, "m1") - CreationPolynomial.mode(reg, "m2"))
    aux = CreationPolynomial.constant(reg, 1.0)

    def strategy(network=None):
        return CascadeStage(
            measure="m1",
            network=network,
            branches={
                n1: CascadeStage(
                    measure="m2",
                    branches={n2: f"leaf-{n1}{n2}" for n2 in range(2 - n1)},
                )
                for n1 in range(2)
            },
        )

    verdicts = {}
    for order, states in [("fwd", (plus, minus)), ("rev", (minus, plus))]:
        plain = DiscriminationInstance(states=states, aux=aux, strategy=strategy())
        split = DiscriminationInstance(
            states=states,
            aux=aux,
            strategy=strategy(beam_splitter(np.pi / 4, 0.0, "m1", "m2", reg)),
        )
        verdicts[(order, "identity")] = cascade_discrimination(plain).verdict
        verdicts[(order, "splitter")] = cascade_discrimination(split).verdict
    ok = (
        verdicts[("fwd", "identity")] is False
        and verdicts[("rev", "identity")] is False
        and verdicts[("fwd", "splitter")] is True
        and verdicts[("rev", "splitter")] is True
    )
    _criterion(
        7,
        "superposed pair fails identity boxes, passes balanced splitter",
        ok,
        f"(verdicts {verdicts})",
    )


def test_criterion_8_no_aux_degeneration():
    rng = np.random.default_rng(104)
    worst_matrix = 0.0
    worst_vector = 0.0
    ok = True
    for _ in range(20):
        inst = random_nogo_instance(rng)
        aux = CreationPolynomial.constant(inst.registry, 1.0)
        report = verify_no_go(aux, inst.states, inst.network, inst.measured)
        m = np.array(report.transfer)
        matrix_dev = float(np.abs(m - np.eye(report.system_order + 1)).max())
        worst_matrix = max(worst_matrix, matrix_dev)
        if matrix_dev > NO_AUX_TOL:
            ok = False
        for pair in report.pairs:
            v = np.array(pair.with_aux)
            u = np.array(pair.coefficient)
            dev = float(np.abs(v - u).max())
            worst_vector = max(worst_vector, dev)
            if dev > NO_AUX_TOL * max(1.0, float(np.abs(v).max())):
                ok = False
    _criterion(
        8,
        "constant auxiliary gives identity transfer and equal vectors",
        ok,
        f"(max matrix dev {worst_matrix:.2e}, max vector dev {worst_vector:.2e})",
    )
