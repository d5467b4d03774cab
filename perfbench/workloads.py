"""The benchmark's workloads: inputs made from a seed, one timed call per item,
and the check of each item's output.

Every workload runs its items in whole *cycles*.  A cycle visits every slot
of a fixed panel of problem shapes, some slots more than once; the seed only
draws the content (coefficients, networks, measured mode) of each item.  Cost
in this package is set almost entirely by shape, so every run times the same
mix of work and its figures do not depend on which shapes a seed happened to
draw.

The package is reached through ``fockcascade.<name>`` at call time, never
through names imported into this module, so the tracer's rebinding of the
package's functions also covers the calls made from here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import fockcascade as fc
from fockcascade import cli, sampling

ORACLE_MAX_MODES = 6
ORACLE_MAX_PHOTONS = 6
ORACLE_TOL = 1e-9
CASCADE_SUM_TOL = 1e-9

# nogo-max panel: (states, system modes, photons, aux modes, aux photons,
# aux homogeneous), all inside the suite's maximum caps of 4 system modes,
# 3 aux modes, 4 photons and 3 aux photons.  The slots follow the 5%, 15%,
# ..., 95% quantiles of item time in a 150-item sample of
# run_nogo_suite(count=1) at those caps, so one cycle mirrors that draw's cost
# up to its top 5%.  The last slot takes about three quarters of a cycle.
#
# Every slot keeps clear of a known false failure.  With 3 or more system
# photons and an aux of 2 or more photons, verify_no_go's determinant check
# fails on up to 0.8% of instances although the identity holds.  The
# transfer matrix there has a tiny diagonal under large entries, and
# np.linalg.det loses about 1e-7 relative.  A failed item cannot be timed, so
# the quantile shapes in that region are replaced by shapes of like cost
# with 2 system photons (none failed in 20000 draws of the last slot's aux
# and network).  Slots without aux photons are safe, because the transfer
# matrix is then diagonal.
NOGO_PANEL = (
    (3, 2, 1, 1, 0, True),
    (2, 2, 2, 2, 0, True),
    (2, 1, 2, 2, 3, True),
    (2, 1, 2, 2, 3, False),
    (2, 4, 2, 1, 1, True),
    (2, 2, 4, 3, 0, True),
    (3, 3, 3, 2, 0, True),
    (2, 3, 2, 2, 2, True),
    (3, 3, 4, 3, 0, True),
    (2, 4, 2, 3, 3, False),
)

# oracle-dense panel: every (modes, photons, homogeneous) class that
# run_oracle_suite draws at 6 modes x 6 photons, cheapest basis first.  Its
# state is homogeneous or superposed with equal odds; each (modes, photons)
# pair keeps one kind, alternating like a checkerboard, so both kinds are
# timed and no slot mixes them.
ORACLE_PANEL = tuple(
    sorted(
        (
            (m, p, (m + p) % 2 == 0)
            for m in range(2, ORACLE_MAX_MODES + 1)
            for p in range(1, ORACLE_MAX_PHOTONS + 1)
        ),
        key=lambda c: (math.comb(c[0] + c[1], c[1]), c),
    )
)

# Slots with a basis of at most 84 states take milliseconds, and they set
# the p50.  Each cycle times them four times, spread between the larger
# slots, so that their medians rest on more moments of the run.  Every slot
# still weighs the same in the metrics.
_ORACLE_CHEAP = [k for k, (m, p, _) in enumerate(ORACLE_PANEL) if math.comb(m + p, p) <= 84]
_ORACLE_DEAR = [k for k in range(len(ORACLE_PANEL)) if k not in _ORACLE_CHEAP]
ORACLE_SCHEDULE = tuple(k for part in range(4) for k in _ORACLE_CHEAP + _ORACLE_DEAR[part::4])

CASCADE_SYSTEM = ("s0", "s1", "s2")
CASCADE_AUX = ("b0", "b1")
CASCADE_PHOTONS = 3
CASCADE_MAX_AUX_PHOTONS = 3
CASCADE_STATES = 3
CASCADE_FILES = 36  # a multiple of the cycle, so item i and its file i % 36 share a slot


def cascade_leaves(aux_photons: int) -> int:
    """Leaves of a full-depth tree: every history of photon counts over the
    five modes that adds up to at most the total photon number."""
    modes = len(CASCADE_SYSTEM) + len(CASCADE_AUX)
    return math.comb(CASCADE_PHOTONS + aux_photons + modes, modes)


def item_seed(seed: int, index: int) -> int:
    """Seed of one item, fixed by the workload seed and the item index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """Checked result of one item."""

    ok: bool
    error_ratio: float  # worst numerical error over the library's tolerance
    detail: str = ""


class Workload:
    """Items run in cycles.  ``schedule`` gives the panel slot of each item of
    a cycle; ``run`` is the timed call and ``check`` judges its output outside
    the timed region."""

    name: str
    schedule: tuple[int, ...]
    trace_cycles = 1  # cycles in the traced run's fixed item set

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    @property
    def cycle(self) -> int:
        return len(self.schedule)

    def slot_of(self, index: int) -> int:
        return self.schedule[index % self.cycle]

    def prepare(self, items: int) -> None:
        """Work that must not be timed, done before items 0 .. items - 1 run."""

    def seed_of(self, index: int) -> int:
        return item_seed(self.seed, index)

    def trace_problems(self, tracer, indices) -> list[str]:
        """What a traced pass shows to be wrong with the items themselves."""
        return []


# -- nogo-max -------------------------------------------------------------------


def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(count))


def _superposed(rng, registry, labels, photons):
    """Every photon number up to ``photons`` with random coefficients, as the
    superposed branch of ``sampling.random_aux_state`` draws it."""
    total = fc.CreationPolynomial.zero(registry)
    for degree in range(photons + 1):
        total = total + sampling.random_homogeneous_state(rng, registry, labels, degree)
    return total


class NogoMax(Workload):
    """``verify_no_go`` on one seeded instance of a fixed panel shape."""

    name = "nogo-max"
    schedule = tuple(range(len(NOGO_PANEL)))
    trace_cycles = 2

    def describe(self, index: int) -> str:
        n_states, n_sys, photons, n_aux, aux_photons, homogeneous = NOGO_PANEL[self.slot_of(index)]
        kind = "homogeneous" if homogeneous or aux_photons == 0 else "superposed"
        return (
            f"system {n_sys} modes x {photons} photons ({n_states} states), "
            f"aux {n_aux} modes x <= {aux_photons} photons ({kind})"
        )

    def run(self, index: int):
        n_states, n_sys, photons, n_aux, aux_photons, homogeneous = NOGO_PANEL[self.slot_of(index)]
        rng = np.random.default_rng(self.seed_of(index))
        system = _labels("s", n_sys)
        aux_labels = _labels("b", n_aux)
        registry = fc.ModeRegistry(system + aux_labels)
        states = [
            sampling.random_homogeneous_state(rng, registry, system, photons)
            for _ in range(n_states)
        ]
        if aux_photons == 0:
            aux = fc.CreationPolynomial.constant(registry, 1.0)
        elif homogeneous:
            aux = sampling.random_homogeneous_state(rng, registry, aux_labels, aux_photons)
        else:
            aux = _superposed(rng, registry, aux_labels, aux_photons)
        net = fc.random_network(registry, rng)
        measured = registry.labels[int(rng.integers(0, registry.size))]
        return fc.verify_no_go(
            aux, states, net, measured,
            description=f"{self.describe(index)}, measure {measured}",
        )

    def check(self, index: int, report) -> Outcome:
        worst = max(p.residual / p.residual_bound for p in report.pairs)
        return Outcome(report.passed, worst, report.description)


# -- oracle-dense ---------------------------------------------------------------


def oracle_class(seed: int) -> tuple[int, int, bool]:
    """(modes, photons, homogeneous) that ``run_oracle_suite(count=1,
    seed=seed)`` draws at 6 x 6: its first three draws.  The traced run checks
    the class against what the suite actually builds, so a change to the
    suite's draw order fails loudly instead of silently changing the panel."""
    rng = np.random.default_rng(seed)
    modes = int(rng.integers(2, ORACLE_MAX_MODES + 1))
    photons = int(rng.integers(1, ORACLE_MAX_PHOTONS + 1))
    return modes, photons, bool(rng.random() < 0.5)


def oracle_terms(modes: int, photons: int, homogeneous: bool) -> int:
    """Terms of the suite's random state: one degree, or every degree up to it."""
    return math.comb(modes + photons - 1, photons) if homogeneous else math.comb(modes + photons, photons)


class OracleDense(Workload):
    """``run_oracle_suite(count=1)`` at 6 modes x 6 photons, one item per
    panel class in every cycle."""

    name = "oracle-dense"
    schedule = ORACLE_SCHEDULE

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._seeds: list[int] = []
        self._stream: dict[tuple[int, int, bool], list[int]] = {}
        self._next = 0

    def seed_of(self, index: int) -> int:
        """Item seeds are screened from the stream item_seed(seed, 0), (seed, 1),
        ...: each item takes the next unused seed of its slot's class."""
        while len(self._seeds) <= index:
            want = ORACLE_PANEL[self.slot_of(len(self._seeds))]
            pool = self._stream.setdefault(want, [])
            while not pool:
                candidate = item_seed(self.seed, self._next)
                self._next += 1
                self._stream.setdefault(oracle_class(candidate), []).append(candidate)
            self._seeds.append(pool.pop(0))
        return self._seeds[index]

    def prepare(self, items: int) -> None:
        self.seed_of(items - 1)

    def trace_problems(self, tracer, indices) -> list[str]:
        problems = []
        for index in indices:
            want = ORACLE_PANEL[self.slot_of(index)]
            built = (tracer.first_basis.get(index), tracer.first_substituted.get(index))
            if built != (want[:2], oracle_terms(*want)):
                problems.append(
                    f"item {index}: run_oracle_suite built basis and state size {built}, "
                    f"not those of its slot {want}; the suite's draw changed"
                )
        return problems

    def describe(self, index: int) -> str:
        modes, photons, homogeneous = ORACLE_PANEL[self.slot_of(index)]
        kind = "homogeneous" if homogeneous else "superposed"
        return f"{modes} modes x {photons} photons, {kind} (basis {math.comb(modes + photons, photons)})"

    def run(self, index: int):
        return fc.run_oracle_suite(
            count=1,
            seed=self.seed_of(index),
            max_modes=ORACLE_MAX_MODES,
            max_photons=ORACLE_MAX_PHOTONS,
            tol=ORACLE_TOL,
        )

    def check(self, index: int, result) -> Outcome:
        worst = max(
            result.max_amplitude_deviation,
            result.max_weight_deviation,
            result.max_overlap_deviation,
        )
        return Outcome(result.all_passed, worst / ORACLE_TOL)


# -- cascade-check --------------------------------------------------------------


def _orthogonal_states(rng, registry, count):
    states = []
    while len(states) < count:
        cand = sampling.random_homogeneous_state(rng, registry, CASCADE_SYSTEM, CASCADE_PHOTONS)
        for prev in states:
            cand = cand - fc.vacuum_inner_product(prev, cand) * prev
        norm = fc.vacuum_norm_sq(cand)
        if norm > 1e-6:
            states.append(cand.scale(1.0 / math.sqrt(norm)))
    return states


def _matrix(rng, size):
    u = fc.haar_random_unitary(size, rng)
    return {"matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in u]}


def _strategy(rng, order, surviving, remaining, history=()):
    """Full-depth tree: a Haar-random network on the surviving modes at every
    stage, one branch per possible photon count, a label at every leaf."""
    measure = order[len(history)]
    rest = tuple(m for m in surviving if m != measure)
    branches = {}
    for n in range(remaining + 1):
        path = history + (n,)
        if rest:
            branches[str(n)] = _strategy(rng, order, rest, remaining - n, path)
        else:
            branches[str(n)] = "h" + "-".join(map(str, path))
    return {"network": _matrix(rng, len(surviving)), "measure": measure, "branches": branches}


def write_cascade_file(path: str, seed: int, aux_photons: int) -> None:
    rng = np.random.default_rng(seed)
    modes = CASCADE_SYSTEM + CASCADE_AUX
    registry = fc.ModeRegistry(modes)
    states = _orthogonal_states(rng, registry, CASCADE_STATES)
    aux = _superposed(rng, registry, CASCADE_AUX, aux_photons)
    order = tuple(modes[k] for k in rng.permutation(len(modes)))
    doc = {
        "modes": list(modes),
        "system_modes": list(CASCADE_SYSTEM),
        "aux_modes": list(CASCADE_AUX),
        "states": [s.to_dict() for s in states],
        "aux": aux.to_dict(),
        "strategy": _strategy(rng, order, modes, CASCADE_PHOTONS + aux_photons),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


class CascadeCheck(Workload):
    """``fockcascade check FILE --out PATH`` in-process, on instance files
    written at set-up.  The slots are files whose aux holds up to 0, 1, 2 and
    3 photons.  The 1- and 2-photon slots set the p50, so each cycle checks
    them twice.  After CASCADE_FILES items the files are checked again in the
    same order."""

    name = "cascade-check"
    schedule = (0, 1, 2, 3, 1, 2)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.files = []
        for k in range(CASCADE_FILES):
            path = os.path.join(workdir, f"cascade-{k:02d}.json")
            write_cascade_file(path, item_seed(seed, k), self.aux_photons(k))
            self.files.append(path)
        self.out = os.path.join(workdir, "check-out.json")

    def aux_photons(self, index: int) -> int:
        return self.slot_of(index)

    def seed_of(self, index: int) -> int:
        return item_seed(self.seed, index % CASCADE_FILES)

    def describe(self, index: int) -> str:
        aux = self.aux_photons(index)
        return (
            f"{os.path.basename(self.files[index % CASCADE_FILES])}: {CASCADE_STATES} "
            f"states x {CASCADE_PHOTONS} photons, aux <= {aux} photons, "
            f"{cascade_leaves(aux)} leaves"
        )

    def run(self, index: int):
        return cli.main(["check", self.files[index % CASCADE_FILES], "--out", self.out])

    def check(self, index: int, code) -> Outcome:
        if code != 0:
            return Outcome(False, math.inf, f"exit code {code}")
        with open(self.out, "r", encoding="utf-8") as handle:
            leaves = json.load(handle)["cascade"]["leaves"]
        sums = [math.fsum(leaf["probabilities"][i] for leaf in leaves) for i in range(CASCADE_STATES)]
        worst = max(abs(s - 1.0) for s in sums)
        ok = len(leaves) == cascade_leaves(self.aux_photons(index)) and worst <= CASCADE_SUM_TOL
        return Outcome(ok, worst / CASCADE_SUM_TOL, f"{len(leaves)} leaves")


WORKLOADS = {w.name: w for w in (NogoMax, OracleDense, CascadeCheck)}


# -- known answers ---------------------------------------------------------------


def known_answer_gate() -> list[tuple[str, bool, str]]:
    """Two answers known in closed form, checked before anything is timed."""
    reg = fc.ModeRegistry(("m1", "m2"))
    m1 = fc.CreationPolynomial.mode(reg, "m1")
    m2 = fc.CreationPolynomial.mode(reg, "m2")
    splitter = fc.beam_splitter(math.pi / 4, 0.0, "m1", "m2", reg)

    # Two photons, one per input of a 50:50 splitter, leave together.
    dist = fc.outcome_distribution(fc.substitute(m1 * m2, splitter), "m1")
    expected = [(0, 0.5), (1, 0.0), (2, 0.5)]
    bunching = [n for n, _ in dist] == [n for n, _ in expected] and all(
        abs(w - e) <= 1e-12 for (_, w), (_, e) in zip(dist, expected)
    )

    # |+> and |-> look alike to photon counting in the input modes and are
    # told apart once the splitter turns them back into |1,0> and |0,1>.
    r = 1.0 / math.sqrt(2.0)
    plus, minus = r * (m1 + m2), r * (m1 - m2)
    aux = fc.CreationPolynomial.constant(reg, 1.0)

    def verdict(states, network):
        strategy = fc.CascadeStage(
            measure="m1",
            network=network,
            branches={
                n1: fc.CascadeStage(measure="m2", branches={n2: f"leaf-{n1}{n2}" for n2 in range(2 - n1)})
                for n1 in range(2)
            },
        )
        instance = fc.DiscriminationInstance(states=states, aux=aux, strategy=strategy)
        return fc.cascade_discrimination(instance).verdict

    verdicts = {
        (order, net_name): verdict(states, net)
        for order, states in (("fwd", (plus, minus)), ("rev", (minus, plus)))
        for net_name, net in (("identity", None), ("splitter", splitter))
    }
    pair = all(v is (name == "splitter") for (_, name), v in verdicts.items())
    return [
        ("bunching", bunching, f"outcome_distribution {dist}"),
        ("plus-minus", pair, f"verdicts {sorted(verdicts.items())}"),
    ]
