"""Seeded batch suites: the no-go verification run and the dense cross-check."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fockdense import FockBasis, apply_network_dense, embed, project_outcome_dense
from .measurement import expand_by_mode
from .network import random_network, substitute
from .nogo import NoGoReport, verify_no_go
from .modes import ModeRegistry
from .poly import vacuum_norm_sq
from .sampling import random_aux_state, random_nogo_instance

SIZE_CAPS = {
    "count": 10000,
    "max_system_modes": 4,
    "max_aux_modes": 3,
    "max_photons": 4,
    "max_aux_photons": 3,
}


class SuiteCapError(ValueError):
    """A batch configuration exceeds the supported size caps."""


def _check_caps(**kwargs) -> None:
    for name, value in kwargs.items():
        cap = SIZE_CAPS[name]
        floor = 0 if name == "max_aux_photons" else 1  # 0 = no-aux configuration
        if value < floor:
            raise SuiteCapError(f"{name} must be at least {floor}, got {value}")
        if value > cap:
            raise SuiteCapError(f"{name}={value} exceeds the supported cap {cap}")


@dataclass(frozen=True)
class NoGoSuiteResult:
    seed: int
    count: int
    reports: tuple[NoGoReport, ...]
    max_residual: float
    max_det_deviation: float
    all_passed: bool
    elapsed_seconds: float = field(metadata={"json": None})

    def summary(self) -> str:
        """One line: the verdict, the worst residual with the instance that
        has it, the worst determinant deviation, and the indices of the
        failing instances (the first ten)."""
        status = "PASS" if self.all_passed else "FAIL"
        worst = max(self.reports, key=lambda r: r.max_residual)
        failing = [k for k, r in enumerate(self.reports) if not r.passed]
        text = (
            f"{status}: {self.count} instances ({self.elapsed_seconds:.1f}s); max "
            f"residual {self.max_residual:.3e} in {worst.description}; max "
            f"determinant deviation {self.max_det_deviation:.3e}"
        )
        if failing:
            more = f" and {len(failing) - 10} more" if len(failing) > 10 else ""
            text += f"; failing instances {failing[:10]}{more}"
        return text


def run_nogo_suite(
    count: int = 200,
    seed: int = 7,
    max_system_modes: int = 3,
    max_aux_modes: int = 2,
    max_photons: int = 3,
    max_aux_photons: int = 2,
) -> NoGoSuiteResult:
    """Randomized end-to-end verification of the transfer identity.

    Draws ``count`` seeded instances within the size caps, runs
    :func:`verify_no_go` on each, and aggregates the worst residual and
    determinant deviation.
    """
    _check_caps(
        count=count,
        max_system_modes=max_system_modes,
        max_aux_modes=max_aux_modes,
        max_photons=max_photons,
        max_aux_photons=max_aux_photons,
    )
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    reports = []
    for idx in range(count):
        n_states = 3 if rng.random() < 0.25 else 2
        instance = random_nogo_instance(
            rng,
            max_system_modes=max_system_modes,
            max_aux_modes=max_aux_modes,
            max_photons=max_photons,
            max_aux_photons=max_aux_photons,
            n_states=n_states,
        )
        reports.append(
            verify_no_go(
                instance.aux,
                instance.states,
                instance.network,
                instance.measured,
                description=f"instance {idx}: {instance.description}",
            )
        )
    elapsed = time.perf_counter() - start
    max_residual = max(r.max_residual for r in reports)
    max_det_dev = max(
        abs(r.determinant - r.determinant_expected) / r.determinant_expected
        for r in reports
    )
    return NoGoSuiteResult(
        seed=seed,
        count=count,
        reports=tuple(reports),
        max_residual=max_residual,
        max_det_deviation=max_det_dev,
        all_passed=all(r.passed for r in reports),
        elapsed_seconds=elapsed,
    )


@dataclass(frozen=True)
class OracleSuiteResult:
    seed: int
    count: int
    max_amplitude_deviation: float
    max_weight_deviation: float
    max_overlap_deviation: float
    all_passed: bool
    elapsed_seconds: float = field(metadata={"json": None})
    worst_instance: int = field(metadata={"json": None})  # index of the largest deviation
    worst_deviation: float = field(metadata={"json": None})

    def summary(self) -> str:
        """One line: the verdict, the largest deviations and the worst instance."""
        status = "PASS" if self.all_passed else "FAIL"
        return (
            f"{status}: {self.count} instances, max amplitude dev "
            f"{self.max_amplitude_deviation:.3e}, max weight dev "
            f"{self.max_weight_deviation:.3e}, max overlap dev "
            f"{self.max_overlap_deviation:.3e} ({self.elapsed_seconds:.1f}s); worst "
            f"instance {self.worst_instance} with deviation {self.worst_deviation:.3e}"
        )


def run_oracle_suite(
    count: int = 100,
    seed: int = 11,
    max_modes: int = 4,
    max_photons: int = 4,
    tol: float = 1e-9,
) -> OracleSuiteResult:
    """Cross-check the polynomial pipeline against the dense Fock reference.

    Each instance draws a random state and Haar-random network, then compares
    (a) substitution followed by embedding against dense evolution of the
    embedded vector, and (b) conditional states and outcome weights against
    dense projection, up to a global phase.
    """
    if count < 1 or count > SIZE_CAPS["count"]:
        raise SuiteCapError(f"count={count} outside [1, {SIZE_CAPS['count']}]")
    if max_modes < 2 or max_modes > 6 or max_photons < 1 or max_photons > 6:
        raise SuiteCapError("oracle suite supports 2..6 modes and 1..6 photons")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    deviations = []  # per instance: its amplitude, weight and overlap deviations
    for _ in range(count):
        n_modes = int(rng.integers(2, max_modes + 1))
        degree = int(rng.integers(1, max_photons + 1))
        registry = ModeRegistry(tuple(f"m{k}" for k in range(n_modes)))
        state = random_aux_state(rng, registry, registry.labels, degree)
        state = state.scale(1.0 / np.sqrt(vacuum_norm_sq(state)))
        net = random_network(registry, rng)
        basis = FockBasis(n_modes, degree)

        out_poly = substitute(state, net)
        via_poly = embed(out_poly, basis)
        via_dense = apply_network_dense(embed(state, basis), net.matrix, basis)
        amp = float(np.abs(via_poly - via_dense).max())
        weight_dev = overlap_dev = 0.0

        measured = registry.labels[int(rng.integers(0, n_modes))]
        pos = registry.index(measured)
        expansion = expand_by_mode(out_poly, measured)
        weights = dict(enumerate(expansion.weights()))
        reduced_basis = FockBasis(n_modes - 1, degree)
        for outcome in range(degree + 1):
            dense_vec, dense_weight = project_outcome_dense(
                via_dense, pos, outcome, basis, reduced_basis
            )
            poly_weight = weights.get(outcome, 0.0)
            weight_dev = max(weight_dev, abs(poly_weight - dense_weight))
            u = embed(expansion.coefficient(outcome), reduced_basis)
            nu, nv = np.linalg.norm(u), np.linalg.norm(dense_vec)
            if nu > 1e-9 and nv > 1e-9:
                overlap = abs(np.vdot(u, dense_vec)) / (nu * nv)
                overlap_dev = max(overlap_dev, float(abs(1.0 - overlap)))
        deviations.append((amp, weight_dev, overlap_dev))
    max_amp, max_weight, max_overlap = map(max, zip(*deviations))
    worst = max(range(count), key=lambda k: max(deviations[k]))
    elapsed = time.perf_counter() - start
    passed = bool(max_amp <= tol and max_weight <= tol and max_overlap <= tol)
    return OracleSuiteResult(
        seed=seed,
        count=count,
        max_amplitude_deviation=max_amp,
        max_weight_deviation=max_weight,
        max_overlap_deviation=max_overlap,
        all_passed=passed,
        elapsed_seconds=elapsed,
        worst_instance=worst,
        worst_deviation=max(deviations[worst]),
    )
