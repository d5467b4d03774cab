"""Command-line interface: schemas, exit codes, golden outputs, determinism."""

import argparse
import contextlib
import copy
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockcascade import ModeRegistry, cli, discriminate, haar_random_unitary, measurement, nogo, suites
from fockcascade.cli import main
from fockcascade.sampling import random_aux_state
from helpers import bell_instance, cap_below_the_product, orthogonal_states

R = 0.7071067811865476  # 1/sqrt(2) at double precision
HADAMARD_JSON = {
    "matrix": [
        [{"re": R, "im": 0.0}, {"re": R, "im": 0.0}],
        [{"re": R, "im": 0.0}, {"re": -R, "im": 0.0}],
    ]
}
IDENTITY_JSON = {
    "matrix": [
        [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ]
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def pair_instance(network):
    return {
        "modes": ["m1", "m2"],
        "states": [{"terms": [{"exp": [1, 1], "re": 1.0, "im": 0.0}]}],
        "network": network,
        "measure": "m1",
    }


class TestSimulate:
    def test_identity_echoes_input(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", pair_instance(IDENTITY_JSON))
        assert main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == "1"
        assert report["output_states"] == [
            {"modes": ["m1", "m2"], "terms": [{"exp": [1, 1], "re": 1.0, "im": 0.0}]}
        ]

    def test_without_any_network_echoes_the_state(self, tmp_path, capsys):
        payload = pair_instance(IDENTITY_JSON)
        del payload["network"]
        path = write(tmp_path, "inst.json", payload)
        assert main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["output_states"] == [
            {"modes": ["m1", "m2"], "terms": [{"exp": [1, 1], "re": 1.0, "im": 0.0}]}
        ]
        assert main(["simulate", path, "--network", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown network 'nosuch' (available: [])\n", err

    def test_interference_golden(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        terms = report["output_states"][0]["terms"]
        by_exp = {tuple(t["exp"]): complex(t["re"], t["im"]) for t in terms}
        assert set(by_exp) == {(2, 0), (0, 2)}
        assert abs(by_exp[(2, 0)] - 0.5) < 1e-12
        assert abs(by_exp[(0, 2)] + 0.5) < 1e-12

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1, err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        payload = pair_instance(IDENTITY_JSON)
        payload["surprise"] = True
        path = write(tmp_path, "inst.json", payload)
        assert main(["simulate", path]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_non_unitary_exits_3_with_magnitude(self, tmp_path, capsys):
        bad = {
            "matrix": [
                [{"re": R, "im": 0.0}, {"re": R, "im": 0.0}],
                [{"re": R, "im": 0.0}, {"re": R, "im": 0.0}],
            ]
        }
        path = write(tmp_path, "inst.json", pair_instance(bad))
        assert main(["simulate", path]) == 3
        err = capsys.readouterr().err
        assert "not unitary" in err
        assert "e-" in err or "e+" in err or "1.0" in err  # deviation magnitude

    def test_out_file(self, tmp_path):
        path = write(tmp_path, "inst.json", pair_instance(IDENTITY_JSON))
        out = tmp_path / "report.json"
        assert main(["simulate", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "simulate"

    def test_named_network_selection(self, tmp_path, capsys):
        payload = {
            "modes": ["m1", "m2"],
            "states": [{"terms": [{"exp": [1, 1], "re": 1.0, "im": 0.0}]}],
            "networks": {"idle": IDENTITY_JSON, "mix": HADAMARD_JSON},
        }
        path = write(tmp_path, "inst.json", payload)
        assert main(["simulate", path, "--network", "idle"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["output_states"][0]["terms"] == [
            {"exp": [1, 1], "re": 1.0, "im": 0.0}
        ]
        assert main(["simulate", path, "--network", "missing"]) == 2
        assert main(["simulate", path]) == 2  # ambiguous without a name

    def test_the_only_network_is_used_without_a_name(self, tmp_path, capsys):
        payload = pair_instance(HADAMARD_JSON)
        del payload["network"]
        payload["networks"] = {"a": HADAMARD_JSON}
        assert main(["simulate", write(tmp_path, "named.json", payload)]) == 0
        named = capsys.readouterr().out
        assert main(["simulate", write(tmp_path, "main.json", pair_instance(HADAMARD_JSON))]) == 0
        assert named == capsys.readouterr().out


class TestCondition:
    def test_bunched_outcome_golden(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert main(["condition", path, "--outcome", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        cond = report["conditionals"][0]
        assert abs(cond["weight"] - 0.5) < 1e-12
        (term,) = cond["state"]["terms"]
        assert term["exp"] == [0]
        assert abs(term["re"] - 0.5) < 1e-12 and term["im"] == 0.0

    def test_suppressed_outcome(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert main(["condition", path, "--outcome", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        cond = report["conditionals"][0]
        assert cond["weight"] == 0.0
        assert cond["state"]["terms"] == []

    def test_missing_measure_exits_2(self, tmp_path, capsys):
        payload = pair_instance(IDENTITY_JSON)
        del payload["measure"]
        path = write(tmp_path, "inst.json", payload)
        assert main(["condition", path, "--outcome", "0"]) == 2


class TestPhotonCapAfterPruning:
    def test_roundoff_above_the_cap_is_pruned_before_the_check(self, tmp_path):
        # aux * psi has degree 3 and every kept output term at most 2 photons
        # on a mode; roundoff leaves residues of about 1e-17 on occupation 3,
        # which pruning drops, so a cap of 2 gives the reports of a cap of 3.
        aux, states, net, measured = cap_below_the_product()
        matrix = [[{"re": z.real, "im": z.imag} for z in row] for row in net.matrix.tolist()]
        payload = {
            "modes": list(net.registry.labels),
            "states": [psi.to_dict() for psi in states],
            "aux": aux.to_dict(),
            "network": {"matrix": matrix},
            "measure": measured,
        }
        path = write(tmp_path, "inst.json", payload)
        out = tmp_path / "out.json"
        for command in (["simulate"], ["condition", "--outcome", "1"]):
            reports = []
            for cap in ("2", "3"):
                assert _run(["--photon-cap", cap] + command + [path, "--out", str(out)]) == (0, "")
                reports.append(out.read_text())
            assert reports[0] == reports[1]
            if command == ["simulate"]:
                outputs = json.loads(reports[0])["output_states"]
                assert max(max(term["exp"]) for p in outputs for term in p["terms"]) == 2


def check_instance(with_splitter: bool):
    stage_two = {"measure": "m2", "branches": {"0": "none", "1": "one-low"}}
    strategy = {
        "measure": "m1",
        "branches": {
            "0": stage_two,
            "1": {"measure": "m2", "branches": {"0": "one-high"}},
        },
    }
    if with_splitter:
        strategy["network"] = {
            "elements": [
                {"bs": {"theta": math.pi / 4, "phi": 0.0, "i": "m1", "j": "m2"}}
            ]
        }
    return {
        "modes": ["m1", "m2"],
        "states": [
            {"terms": [
                {"exp": [1, 0], "re": R, "im": 0.0},
                {"exp": [0, 1], "re": R, "im": 0.0},
            ]},
            {"terms": [
                {"exp": [1, 0], "re": R, "im": 0.0},
                {"exp": [0, 1], "re": -R, "im": 0.0},
            ]},
        ],
        "strategy": strategy,
    }


class TestCheck:
    def test_identity_boxes_fail(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", check_instance(with_splitter=False))
        assert main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False
        assert any(leaf["ambiguous"] for leaf in report["cascade"]["leaves"])
        assert report["root_stage"]["verdict"] is False

    def test_splitter_passes(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", check_instance(with_splitter=True))
        assert main(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True
        assert report["root_stage"]["verdict"] is True

    def test_no_strategy_exits_2(self, tmp_path):
        payload = check_instance(with_splitter=False)
        del payload["strategy"]
        path = write(tmp_path, "inst.json", payload)
        assert main(["check", path]) == 2

    @pytest.mark.parametrize(
        "payload", [check_instance(with_splitter=True), bell_instance()], ids=["plus-minus", "bell"]
    )
    def test_leaves_are_outcome_histories_of_the_strategy(self, tmp_path, capsys, payload):
        # Some candidates have zero weight on branches that others take; no
        # history where they stop is left as a leaf above the others' leaves.
        assert main(["check", write(tmp_path, "inst.json", payload)]) == 0
        leaves = json.loads(capsys.readouterr().out)["cascade"]["leaves"]
        histories = [tuple(leaf["history"]) for leaf in leaves]
        assert histories == sorted(histories)
        assert not any(a != b and b[: len(a)] == a for a in histories for b in histories)


    @pytest.mark.parametrize("n_states", [2, 3])
    def test_one_substitution_per_state_and_the_aux(self, tmp_path, monkeypatch, n_states):
        # The cascade splits the root stage once, in the level pass, with one
        # input per state; the root-stage report reads its outcomes and
        # substitutes nothing itself.
        modes = [f"s{k}" for k in range(n_states)] + ["b0"]
        photon = [_photon_terms(tuple(int(k == m) for m in range(len(modes)))) for k in range(len(modes))]
        payload = {
            "modes": modes,
            "states": photon[:-1],
            "aux": photon[-1],
            "strategy": {
                "network": {"elements": [
                    {"bs": {"theta": 0.6, "phi": 0.2, "i": label, "j": "b0"}} for label in modes[:-1]
                ]},
                "measure": "s0",
                "branches": {str(n): f"saw-{n}" for n in range(3)},
            },
        }
        original = sys.modules["fockcascade.network"].substitute
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fockcascade" and getattr(module, "substitute", None) is original:
                monkeypatch.setattr(module, "substitute", counted)
        splits = []
        split_level = measurement._split_level

        def recording(registry, measure, group):
            splits.append([(node.history, len(node.states)) for node, _ in group])
            return split_level(registry, measure, group)

        monkeypatch.setattr(measurement, "_split_level", recording)
        assert main(["check", write(tmp_path, "inst.json", payload), "--out", str(tmp_path / "r")]) == 0
        assert splits == [[((), n_states)]]
        assert calls == []

    def test_product_over_the_photon_cap_exits_4(self, tmp_path, capsys):
        # Each state and the aux hold two photons, under the cap of 3; the
        # root stage's product would put four on the measured mode.
        payload = {
            "modes": ["s0", "s1", "b0"],
            "states": [_photon_terms((2, 0, 0)), _photon_terms((0, 2, 0))],
            "aux": _photon_terms((0, 0, 2)),
            "strategy": {
                "network": {"elements": [
                    {"bs": {"theta": 0.7, "phi": 0.1, "i": "s0", "j": "b0"}},
                    {"bs": {"theta": 0.4, "phi": 0.3, "i": "s1", "j": "b0"}},
                    {"bs": {"theta": 0.9, "phi": 0.0, "i": "s0", "j": "s1"}},
                ]},
                "measure": "s0",
                "branches": {},
            },
        }
        path = write(tmp_path, "inst.json", payload)
        assert main(["--photon-cap", "3", "check", path]) == 4
        err = capsys.readouterr().err
        assert err == "error: occupation 4 exceeds photon cap 3\n", err


INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


class TestInstanceFiles:
    """The committed Bell-state instances: two 50:50 splitters identify half
    of the four states; without them the root stage mixes nothing and none
    is identified.  Neither root stage keeps every pair orthogonal."""

    @pytest.mark.parametrize(
        "name, identified", [("bell.json", 0.5), ("bell_no_network.json", 0.0)]
    )
    def test_check(self, capsys, name, identified):
        assert main(["check", str(INSTANCES / name)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False
        assert report["root_stage"]["verdict"] is False
        leaves = report["cascade"]["leaves"]
        mass = sum(sum(leaf["probabilities"]) for leaf in leaves if not leaf["ambiguous"])
        assert abs(mass / len(leaves[0]["probabilities"]) - identified) <= 1e-12

    def test_files_are_the_helper_instance(self):
        bell = bell_instance()
        assert json.loads((INSTANCES / "bell.json").read_text()) == bell
        del bell["strategy"]["network"]
        assert json.loads((INSTANCES / "bell_no_network.json").read_text()) == bell


def cascade_document(seed: int, photons: int, aux_photons: int) -> dict:
    """An instance of two orthogonal states on three system modes and an aux
    on two more, with a full-depth strategy that mixes the surviving modes
    in a Haar-random matrix at every stage."""
    rng = np.random.default_rng(seed)
    system, aux_modes = ("s0", "s1", "s2"), ("b0", "b1")
    reg = ModeRegistry(system + aux_modes)

    def stage(surviving, remaining, history=()):
        branches = {}
        for n in range(remaining + 1):
            path = history + (n,)
            rest = surviving[1:]
            branches[str(n)] = stage(rest, remaining - n, path) if rest else f"h{path}"
        u = haar_random_unitary(len(surviving), rng)
        matrix = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in u]
        return {"network": {"matrix": matrix}, "measure": surviving[0], "branches": branches}

    return {
        "modes": list(reg.labels),
        "states": [s.to_dict() for s in orthogonal_states(rng, reg, system, photons, 2)],
        "aux": random_aux_state(rng, reg, aux_modes, aux_photons).to_dict(),
        "strategy": stage(reg.labels, photons + aux_photons),
    }


class TestDeterministicCheck:
    def test_report_bytes_do_not_depend_on_the_cached_tables(self, tmp_path):
        # Cold tables, tables filled by a larger cascade, and a fresh process.
        small = write(tmp_path, "small.json", cascade_document(1, 2, 1))
        paths = [str(INSTANCES / "bell.json"), small]
        outs = [str(tmp_path / f"out{k}.json") for k in range(len(paths))]

        def reports():
            for path, out in zip(paths, outs):
                assert main(["check", path, "--out", out]) == 0
            return [pathlib.Path(out).read_bytes() for out in outs]

        measurement._Monomials.cache_clear()
        measurement._reduction.cache_clear()
        cold = reports()
        filled = measurement._Monomials.cache_info().currsize
        large = write(tmp_path, "large.json", cascade_document(2, 3, 3))
        assert main(["check", large, "--out", str(tmp_path / "large-out.json")]) == 0
        assert measurement._Monomials.cache_info().currsize > filled
        warm = reports()
        script = (
            "import sys; from fockcascade.cli import main; "
            "pairs = zip(sys.argv[1::2], sys.argv[2::2]); "
            "sys.exit(max(main(['check', p, '--out', o]) for p, o in pairs))"
        )
        args = [arg for pair in zip(paths, outs) for arg in pair]
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script, *args], env=env, check=True)
        fresh = [pathlib.Path(out).read_bytes() for out in outs]
        assert cold == warm == fresh

    def test_reading_every_state_first_leaves_the_report_bytes(self, tmp_path, monkeypatch):
        # States are built when read; reading every node's states before the
        # report is written changes no byte of it.
        paths = [str(INSTANCES / "bell.json"), write(tmp_path, "doc.json", cascade_document(3, 2, 2))]

        def reports(tag):
            outs = [tmp_path / f"{tag}{k}.json" for k in range(len(paths))]
            for path, out in zip(paths, outs):
                assert main(["check", path, "--out", str(out)]) == 0
            return [out.read_bytes() for out in outs]

        plain = reports("plain")
        trees, run_cascade, emit = [], discriminate.run_cascade, cli._emit

        def recording(*args):
            trees.append(run_cascade(*args))
            return trees[-1]

        def reading_first(report, out_path):
            nodes = [node for tree in trees for node in nodes_of(tree)]
            assert any(node.states.rows is not None for node in nodes)
            for node in nodes:
                list(node.states)
            trees.clear()
            emit(report, out_path)

        monkeypatch.setattr(discriminate, "run_cascade", recording)
        monkeypatch.setattr(cli, "_emit", reading_first)
        assert reports("read") == plain


def nodes_of(node):
    yield node
    for child in node.children:
        yield from nodes_of(child)


class TestGlobalFlags:
    """``--photon-cap`` and ``--tolerance`` reach only the commands that read
    an instance file, and ``--tolerance`` only its "matrix" networks."""

    @pytest.mark.parametrize("suite", [["verify-nogo", "--count", "3"], ["oracle-check", "--count", "3"]])
    def test_the_suites_ignore_both(self, tmp_path, suite):
        # The default verify-nogo draws hold up to 3 photons, past a cap of 2.
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main([*suite, "--out", str(plain)]) == 0
        assert main(["--photon-cap", "2", "--tolerance", "0", *suite, "--out", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()

    def test_tolerance_checks_only_matrix_networks(self, tmp_path, capsys):
        assert main(["--tolerance", "0", "check", str(INSTANCES / "bell.json")]) == 0
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert main(["--tolerance", "0", "simulate", path]) == 3
        assert main(["simulate", path]) == 0


class TestVerifyNogo:
    def test_small_batch_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify-nogo", "--count", "5", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == "2"
        assert "no_aux" not in report["reports"][0]["pairs"][0]
        assert report["all_passed"] is True
        assert len(report["reports"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("PASS") and "failing" not in err
        worst = max(report["reports"], key=lambda r: max(p["residual"] for p in r["pairs"]))
        assert f"in {worst['description']};" in err

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["verify-nogo", "--count", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --seed must be a non-negative integer, got -1\n")

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["verify-nogo", "--count", "4", "--seed", "12", "--out", str(out1)])
        main(["verify-nogo", "--count", "4", "--seed", "12", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_corruption_fails(self, tmp_path, capsys, monkeypatch):
        transfer_matrix = nogo.transfer_matrix

        def corrupted(tables):
            m = transfer_matrix(tables)
            m[-1, -1] += 0.5
            return m

        monkeypatch.setattr(nogo, "transfer_matrix", corrupted)
        code = main(
            ["verify-nogo", "--count", "12", "--seed", "3",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        tail = f"; failing instances {list(range(10))} and 2 more\n"
        assert err.startswith("FAIL") and err.endswith(tail), err

    def test_no_aux_configuration(self, tmp_path, capsys):
        # With the auxiliary photon budget forced to zero the transfer matrix
        # is the identity and residuals sit at machine scale.
        out = tmp_path / "noaux.json"
        code = main(
            ["verify-nogo", "--count", "4", "--seed", "9",
             "--max-aux-photons", "0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_residual"] <= 1e-12
        for entry in report["reports"]:
            assert entry["aux_order"] == 0
            assert entry["diagonal_value"] == 1.0

    def test_cap_violation_exits_4(self, tmp_path, capsys):
        code = main(["verify-nogo", "--count", "999999"])
        assert code == 4
        assert "cap" in capsys.readouterr().err

    def test_size_cap_exits_4(self):
        assert main(["verify-nogo", "--count", "2", "--max-photons", "9"]) == 4

    def test_aux_photons_below_zero_exits_4(self):
        assert main(["verify-nogo", "--count", "2", "--max-aux-photons", "-1"]) == 4

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["verify-nogo", "--count", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1, err


class TestOracleCheck:
    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["oracle-check", "--count", "1", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --seed must be a non-negative integer, got -5\n")

    def test_small_batch_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--count", "5", "--seed", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        err = capsys.readouterr().err
        assert "PASS" in err
        result = suites.run_oracle_suite(count=5, seed=2)
        assert err.rstrip().endswith(
            f"worst instance {result.worst_instance} with deviation {result.worst_deviation:.3e}"
        )
        assert "worst" not in out.read_text()

    @pytest.mark.parametrize(
        "flags", [["--count", "0"], ["--max-modes", "7"]], ids=["count-0", "modes-7"]
    )
    def test_outside_the_caps_exits_4(self, capsys, flags):
        assert main(["oracle-check"] + flags) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_names_the_instance_where_the_largest_deviation_first_appears(self):
        # The suite draws its instances in order from one stream, so a prefix
        # of the run replays its first instances.
        result = suites.run_oracle_suite(count=12, seed=4)
        k = result.worst_instance

        def largest(count):
            r = suites.run_oracle_suite(count=count, seed=4)
            return max(r.max_amplitude_deviation, r.max_weight_deviation, r.max_overlap_deviation)

        assert result.worst_deviation == largest(12) == largest(k + 1)
        assert k == 0 or largest(k) < result.worst_deviation


def _with(payload, **fields):
    return {**payload, **fields}


def _photon_terms(*exps):
    return {"terms": [{"exp": list(e), "re": 1.0, "im": 0.0} for e in exps]}


NAN_MATRIX = {
    "matrix": [
        [{"re": float("nan"), "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ]
}
DIAG_2_1_MATRIX = {
    "matrix": [
        [{"re": 2.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
    ]
}


def single_photon_pair(branches):
    return {
        "modes": ["m1", "m2"],
        "states": [_photon_terms((1, 0)), _photon_terms((0, 1))],
        "strategy": {"measure": "m1", "branches": branches},
    }


@pytest.mark.filterwarnings("error")
class TestMalformedInputs:
    """Each input defect ends on exit 2 with a one-line message, never on a
    traceback, a warning, exit 1 or a silently wrong report."""

    CASES = {
        "huge-int-matrix-entry": (
            ["simulate"],
            pair_instance(
                {"matrix": [[{"re": 10**400, "im": 0}, {"re": 0.0, "im": 0.0}],
                            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]}
            ),
        ),
        "huge-int-theta": (
            ["simulate"],
            pair_instance({"elements": [{"bs": {"theta": 10**400, "i": "m1", "j": "m2"}}]}),
        ),
        "infinity-phi": (
            ["simulate"],
            pair_instance({"elements": [{"ps": {"phi": float("inf"), "i": "m1"}}]}),
        ),
        "unknown-element-field": (
            ["simulate"],
            pair_instance(
                {"elements": [{"bs": {"theta": 0.5, "phi": 0.0, "i": "m1", "j": "m2", "oops": 1}}]}
            ),
        ),
        "extra-matrix-cell-key": (
            ["simulate"],
            pair_instance(
                {"matrix": [[{"re": 1.0, "im": 0.0, "x": 1}, {"re": 0.0, "im": 0.0}],
                            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]}
            ),
        ),
        "string-poly-modes": (
            # As a tuple, "ab" would equal the modes ("a", "b").
            ["simulate"],
            {"modes": ["a", "b"], "states": [{"modes": "ab", **_photon_terms((1, 1))}]},
        ),
        "unknown-measured-mode": (
            ["check"],
            {
                "modes": ["a", "b"],
                "states": [_photon_terms((1, 0)), _photon_terms((0, 1))],
                "strategy": {"measure": "zz", "branches": {"0": "x"}},
            },
        ),
        "unknown-element-mode": (
            ["simulate"],
            pair_instance(
                {"elements": [{"bs": {"theta": 0.5, "phi": 0.0, "i": "m1", "j": "zz"}}]}
            ),
        ),
        "non-numeric-theta": (
            ["simulate"],
            pair_instance({"elements": [{"bs": {"theta": "x", "i": "m1", "j": "m2"}}]}),
        ),
        "nan-coefficient": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                states=[{"terms": [{"exp": [1, 1], "re": float("nan"), "im": 0.0}]}],
            ),
        ),
        "inf-coefficient": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                states=[{"terms": [{"exp": [1, 1], "re": float("inf"), "im": 0.0}]}],
            ),
        ),
        "boolean-exponent": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                states=[{"terms": [{"exp": [True, 0], "re": 1.0, "im": 0.0}]}],
            ),
        ),
        "nan-matrix-entry": (["simulate"], pair_instance(NAN_MATRIX)),
        "photon-cap-above-170": (
            ["--photon-cap", "200", "simulate"],
            _with(pair_instance(IDENTITY_JSON), states=[_photon_terms((171, 0))]),
        ),
        "system-role-misses-a-mode": (
            ["simulate"],
            _with(pair_instance(IDENTITY_JSON), system_modes=["m2"]),
        ),
        "aux-role-misses-a-mode": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                modes=["m1", "m2", "b"],
                states=[_photon_terms((1, 1, 0))],
                network={"elements": []},
                aux=_photon_terms((0, 0, 1)),
                aux_modes=[],
            ),
        ),
        "element-fields-not-an-object": (
            ["simulate"],
            pair_instance({"elements": [{"bs": [1]}]}),
        ),
        "element-not-an-object": (["simulate"], pair_instance({"elements": ["bs"]})),
        "matrix-cell-string": (
            ["simulate"],
            pair_instance(
                {"matrix": [[{"re": "x", "im": 0}, {"re": 0.0, "im": 0.0}],
                            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]}
            ),
        ),
        "matrix-cell-without-im": (
            ["simulate"],
            pair_instance(
                {"matrix": [[{"re": 1.0}, {"re": 0.0, "im": 0.0}],
                            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]}
            ),
        ),
        "branches-a-list": (
            ["check"],
            {
                "modes": ["a", "b"],
                "states": [_photon_terms((1, 0)), _photon_terms((0, 1))],
                "strategy": {"measure": "a", "branches": [1]},
            },
        ),
        "coefficient-past-a-double": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                states=[{"terms": [{"exp": [1, 1], "re": 10**400, "im": 0.0}]}],
            ),
        ),
        "unknown-network-name-without-networks": (
            ["condition", "--outcome", "1", "--network", "nosuch"],
            {"modes": ["m1", "m2"], "states": [_photon_terms((1, 1))], "measure": "m1"},
        ),
        "zero-aux": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                modes=["m1", "m2", "b"],
                states=[_photon_terms((1, 1, 0))],
                network={"elements": []},
                aux={"terms": []},
            ),
        ),
        "cancelling-state": (
            ["simulate"],
            _with(
                pair_instance(IDENTITY_JSON),
                states=[{"terms": [{"exp": [1, 1], "re": 1.0, "im": 0.0},
                                   {"exp": [1, 1], "re": -1.0, "im": 0.0}]}],
            ),
        ),
        "measured-mode-not-in-the-instance": (
            ["condition", "--outcome", "1", "--measure", "zz"],
            pair_instance(IDENTITY_JSON),
        ),
        "negative-outcome": (["condition", "--outcome", "-1"], pair_instance(IDENTITY_JSON)),
        "matrix-not-a-list-of-rows": (["simulate"], pair_instance({"matrix": [1, 2]})),
        "duplicate-mode-labels": (
            ["simulate"],
            _with(pair_instance(IDENTITY_JSON), modes=["m1", "m1"]),
        ),
        "network-and-networks-main": (
            ["simulate"],
            _with(pair_instance(HADAMARD_JSON), networks={"main": {"elements": []}}),
        ),
        "stage-network-with-both-shapes-and-an-unknown-field": (
            ["check"],
            {
                "modes": ["m1", "m2"],
                "states": [_photon_terms((1, 0)), _photon_terms((0, 1))],
                "strategy": {
                    "network": {**IDENTITY_JSON, "elements": [], "surprise": True},
                    "measure": "m1",
                    "branches": {"0": "x", "1": "y"},
                },
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_line(self, tmp_path, capsys, case):
        command, payload = self.CASES[case]
        path = write(tmp_path, "inst.json", payload)
        assert main(command + [path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["condition", "--outcome", "1"], ["check"]],
        ids=["simulate", "condition", "check"],
    )
    @pytest.mark.parametrize("where", ["aux", "states[1]"])
    def test_zero_polynomial_is_named(self, tmp_path, capsys, command, where):
        # Rejected when the file is read, the same way for every command.
        cancelling = [{"exp": [1, 0, 0], "re": s, "im": 0.0} for s in (1.0, -1.0)]
        payload = copy.deepcopy(FUZZ_BASE)
        if where == "aux":
            payload["aux"] = {"terms": []}
        else:
            payload["states"][1] = {"terms": cancelling}
        assert main(command + [write(tmp_path, "inst.json", payload)]) == 2
        assert capsys.readouterr().err == f"error: {where} is the zero polynomial\n"

    @pytest.mark.parametrize(
        "value, network",
        [("nan", DIAG_2_1_MATRIX), ("inf", DIAG_2_1_MATRIX), ("-1", IDENTITY_JSON)],
        ids=["nan", "inf", "negative"],
    )
    def test_tolerance_outside_its_range_exits_2(self, tmp_path, capsys, value, network):
        # At nan or inf any matrix, such as the non-unitary diag(2, 1), would pass.
        path = write(tmp_path, "inst.json", pair_instance(network))
        assert main(["--tolerance", value, "simulate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--tolerance" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "where, payload",
        [
            ("states[0]", _with(pair_instance(IDENTITY_JSON), states=[_photon_terms((25, 0))])),
            (
                "aux",
                _with(
                    pair_instance(IDENTITY_JSON),
                    modes=["m1", "m2", "b"],
                    states=[_photon_terms((1, 1, 0))],
                    network={"elements": []},
                    aux=_photon_terms((0, 0, 25)),
                ),
            ),
        ],
        ids=["state", "aux"],
    )
    def test_occupation_over_the_cap_exits_4(self, tmp_path, capsys, where, payload):
        # Exit 4 as for any other photon-cap violation, with the location.
        assert main(["simulate", write(tmp_path, "inst.json", payload)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: {where}: occupation 25 exceeds photon cap 20\n", err

    def test_huge_occupation_is_named_but_not_echoed(self, tmp_path, capsys):
        payload = _with(pair_instance(IDENTITY_JSON), states=[_photon_terms((1, 0), (10**140, 0))])
        assert main(["simulate", write(tmp_path, "inst.json", payload)]) == 4
        err = capsys.readouterr().err
        assert err == "error: states[0].terms[1]: occupation above 170 exceeds photon cap 20\n", err
        assert len(err) <= 120

    @pytest.mark.parametrize(
        "branches, key",
        [
            ({"0": "x", "1": "y", "01": "z"}, "01"),
            ({"0": "x", " 1": "y"}, " 1"),
            ({"0": "x", "1_0": "y"}, "1_0"),
        ],
        ids=["1-and-01", "leading-space", "underscore"],
    )
    def test_branch_key_outside_canonical_form_exits_2(self, tmp_path, capsys, branches, key):
        # "1" and "01" would both name outcome 1, leaving the label to key order.
        path = write(tmp_path, "inst.json", single_photon_pair(branches))
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: strategy: branch key {key!r} is not a photon count\n", err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command, payload, name",
        [
            (
                ["simulate", "--network", "a"],
                _with(
                    pair_instance(IDENTITY_JSON),
                    networks={"a": IDENTITY_JSON, "b": {"elements": [], "surprise": 1}},
                ),
                "networks[b]",
            ),
            (
                ["check"],
                {
                    "modes": ["m1", "m2", "m3"],
                    "states": [_photon_terms((1, 0, 0)), _photon_terms((0, 1, 0))],
                    "strategy": {
                        "measure": "m3",
                        "branches": {
                            "0": {
                                "network": {"elements": [], "surprise": 1},
                                "measure": "m1",
                                "branches": {"0": "x", "1": "y"},
                            },
                        },
                    },
                },
                "strategy.branches[0]",
            ),
        ],
        ids=["named-network", "stage-network"],
    )
    def test_network_schema_error_names_the_network(
        self, tmp_path, capsys, command, payload, name
    ):
        path = write(tmp_path, "inst.json", payload)
        assert main(command + [path]) == 2
        err = capsys.readouterr().err
        assert name in err and "unknown fields" in err, err

    def test_strategy_error_names_the_stage(self, tmp_path, capsys):
        payload = {
            "modes": ["m1", "m2"],
            "states": [_photon_terms((1, 0)), _photon_terms((0, 1))],
            "strategy": {
                "measure": "m1",
                "branches": {"0": {"measure": "m2", "oops": 1}, "1": "first"},
            },
        }
        assert main(["check", write(tmp_path, "inst.json", payload)]) == 2
        err = capsys.readouterr().err
        assert err == "error: strategy.branches[0]: unknown strategy fields ['oops']\n", err

    def test_unreachable_branch_names_the_stage(self, tmp_path, capsys):
        payload = {
            "modes": ["m1", "m2", "m3"],
            "states": [_photon_terms((1, 0, 0)), _photon_terms((0, 1, 0))],
            "strategy": {
                "measure": "m3",
                "branches": {"0": {"measure": "m1", "branches": {"5": "x"}}},
            },
        }
        assert main(["check", write(tmp_path, "inst.json", payload)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: strategy.branches[0]: branch for outcome 5 is unreachable "
            "(at most 1 photons can arrive here)\n"
        ), err

    def test_non_unitary_named_network_names_itself(self, tmp_path, capsys):
        payload = _with(
            pair_instance(IDENTITY_JSON),
            networks={
                "a": {"elements": []},
                "b": {"matrix": [[{"re": 2.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                                 [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]},
            },
        )
        path = write(tmp_path, "inst.json", payload)
        assert main(["simulate", "--network", "a", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: networks[b]: matrix is not unitary") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command, payload, line",
        [
            (
                ["simulate", "--network", "x"],
                {
                    "modes": ["m1", "m2", "m3"],
                    "states": [_photon_terms((1, 1, 0))],
                    "networks": {"x": {"elements": []}, "y": IDENTITY_JSON},
                },
                "networks[y]: matrix shape (2, 2) does not match 3 modes",
            ),
            (
                ["check"],
                single_photon_pair(
                    {"0": {"network": {"matrix": [[{"re": 1.0, "im": 0.0}], []]}, "measure": "m2"}}
                ),
                "strategy.branches[0].network.matrix must be a square list of rows",
            ),
            (
                ["simulate", "--network", "y"],
                {
                    "modes": ["m1", "m2"],
                    "states": [_photon_terms((1, 1))],
                    "networks": {
                        "x": {"elements": [{"bs": {"theta": 0.5, "i": "m1", "j": "m1"}}]},
                        "y": IDENTITY_JSON,
                    },
                },
                "networks[x].elements[0].bs: beam splitter needs two distinct modes",
            ),
            (
                ["check"],
                single_photon_pair({"1": {"network": {"elements": [
                    {"ps": {"phi": 0.0, "i": "m2"}}, {"bs": {"theta": 0.1, "i": "m2", "j": "m1"}},
                ]}, "measure": "m2"}}),
                "strategy.branches[1].network.elements[1].bs.j names 'm1', not one of the modes ('m2',)",
            ),
            (
                ["simulate"],
                _with(pair_instance(IDENTITY_JSON), states=[
                    _photon_terms((1, 1)), {"terms": [{"exp": [1, 1], "re": 1.0, "im": None}]},
                ]),
                "states[1].terms[0].im must be a finite number",
            ),
        ],
        ids=["networks-y-shape", "ragged-stage-matrix", "same-mode-splitter", "stage-element",
             "term-coefficient"],
    )
    def test_error_names_its_location(self, tmp_path, capsys, command, payload, line):
        assert main(command + [write(tmp_path, "inst.json", payload)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_declared_roles_that_cover_the_states_are_accepted(self, tmp_path):
        payload = _with(
            pair_instance(IDENTITY_JSON),
            modes=["m1", "m2", "b"],
            states=[_photon_terms((1, 1, 0))],
            network={"elements": []},
            aux=_photon_terms((0, 0, 1)),
            system_modes=["m1", "m2"],
            aux_modes=["b"],
        )
        assert main(["simulate", write(tmp_path, "inst.json", payload)]) == 0


class TestLastResort:
    def test_unexpected_exception_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "_cmd_simulate", broken)
        path = write(tmp_path, "inst.json", pair_instance(IDENTITY_JSON))
        assert main(["simulate", path]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err.startswith("error: internal error (RuntimeError at test_cli.py:")
        assert err.endswith("): boom second line\n") and err.count("\n") == 1, err


def key_sets(node, path=""):
    """Map each nesting level of a report (list indices written ``[]``) to
    the set of key sets its objects carry."""
    out: dict[str, set] = {}
    if isinstance(node, dict):
        out.setdefault(path, set()).add(frozenset(node))
        for key, value in node.items():
            for sub, keys in key_sets(value, f"{path}.{key}" if path else key).items():
                out.setdefault(sub, set()).update(keys)
    elif isinstance(node, list):
        for value in node:
            for sub, keys in key_sets(value, path + "[]").items():
                out.setdefault(sub, set()).update(keys)
    return out


COMPLEX = {"re", "im"}
POLY = {"": {"modes", "terms"}, ".terms[]": {"exp", "re", "im"}}


class TestReportKeys:
    """The exact keys at every level of every report, so that a renamed,
    added or dropped field (such as a timing) shows."""

    def keys_of(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        return key_sets(json.loads(out.read_text()))

    @staticmethod
    def expect(levels):
        return {k: {frozenset(v)} for k, v in levels.items()}

    def test_verify_nogo(self, tmp_path):
        pair = "reports[].pairs[]"
        assert self.keys_of(tmp_path, ["verify-nogo", "--count", "3", "--seed", "3"]) == self.expect({
            "": {"schema_version", "suite", "seed", "count", "max_residual",
                 "max_det_deviation", "all_passed", "reports"},
            "reports[]": {"description", "aux_order", "system_order", "diagonal_value",
                          "transfer_matrix", "determinant", "determinant_expected",
                          "determinant_ok", "diagonal_ok", "triangular_ok", "passed", "pairs"},
            pair: {"i", "j", "with_aux", "coefficient", "predicted", "residual",
                   "residual_bound", "with_aux_zero", "coefficient_zero",
                   "zero_equivalent", "passed"},
            f"{pair}.with_aux[]": COMPLEX,
            f"{pair}.coefficient[]": COMPLEX,
            f"{pair}.predicted[]": COMPLEX,
        })

    def test_oracle_check(self, tmp_path):
        assert self.keys_of(tmp_path, ["oracle-check", "--count", "2"]) == self.expect({
            "": {"schema_version", "suite", "seed", "count", "max_amplitude_deviation",
                 "max_weight_deviation", "max_overlap_deviation", "all_passed"},
        })

    def test_check(self, tmp_path):
        path = write(tmp_path, "inst.json", check_instance(with_splitter=True))
        assert self.keys_of(tmp_path, ["check", path]) == self.expect({
            "": {"schema_version", "command", "verdict", "cascade", "root_stage"},
            "cascade": {"verdict", "leaves"},
            "cascade.leaves[]": {"history", "label", "probabilities",
                                 "reachable_states", "ambiguous"},
            "root_stage": {"measured", "max_outcome", "verdict", "records"},
            "root_stage.records[]": {"i", "j", "outcome", "inner_product", "weight_i",
                                     "weight_j", "orthogonal", "vacuous", "distinguished"},
            "root_stage.records[].inner_product": COMPLEX,
        })

    def test_condition(self, tmp_path):
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert self.keys_of(tmp_path, ["condition", path, "--outcome", "2"]) == self.expect({
            "": {"schema_version", "command", "measured", "conditionals"},
            "conditionals[]": {"outcome", "weight", "state"},
            **{f"conditionals[].state{k}": v for k, v in POLY.items()},
        })

    def test_simulate(self, tmp_path):
        path = write(tmp_path, "inst.json", pair_instance(HADAMARD_JSON))
        assert self.keys_of(tmp_path, ["simulate", path]) == self.expect({
            "": {"schema_version", "command", "output_states"},
            **{f"output_states[]{k}": v for k, v in POLY.items()},
        })


# A small valid instance on which check, simulate and condition all exit 0.
FUZZ_BASE = {
    "modes": ["a", "b", "c"],
    "system_modes": ["a", "b"],
    "aux_modes": ["c"],
    "states": [
        {"terms": [{"exp": [1, 0, 0], "re": R, "im": 0.0}, {"exp": [0, 1, 0], "re": R, "im": 0.0}]},
        {"terms": [{"exp": [1, 0, 0], "re": R, "im": 0.0}, {"exp": [0, 1, 0], "re": -R, "im": 0.0}]},
    ],
    "aux": {"terms": [{"exp": [0, 0, 1], "re": 1.0, "im": 0.0}]},
    "network": {"elements": [{"bs": {"theta": 0.5, "phi": 0.1, "i": "a", "j": "c"}}]},
    "measure": "a",
    "strategy": {
        "network": {"elements": [{"bs": {"theta": math.pi / 4, "phi": 0.0, "i": "a", "j": "b"}}]},
        "measure": "a",
        "branches": {"0": {"measure": "b", "branches": {"0": "x", "1": "y"}}, "1": "z"},
    },
}
FUZZ_VALUES = [
    None, True, False, -3, 10**30, 10**400, float("nan"), float("inf"), "x", [], {}, [[1, [2.5]]],
]
FUZZ_BRANCH_KEYS = ["01", " 1", "1_0"]  # spellings of a photon count that are not canonical
FUZZ_COMMANDS = (["check"], ["simulate"], ["condition", "--outcome", "1"])


def _node_paths(node, prefix=()):
    """Paths to every node below the root, as key and index sequences."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


def _mutated(doc, node_path, value, new_key=None):
    """``doc`` with the node at ``node_path`` deleted (``"delete"``), its
    branch key renamed to ``new_key`` (``"rename"``) or replaced by ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in node_path[:-1]:
        parent = parent[key]
    if value == "delete":
        del parent[node_path[-1]]
    elif value == "rename":
        parent[new_key] = parent.pop(node_path[-1])
    else:
        parent[node_path[-1]] = copy.deepcopy(value)
    return doc


def _renamable(node_path):
    return node_path[-2:-1] == ("branches",) and isinstance(node_path[-1], str)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _documented_ending(code, err):
    """Exit 0 with a silent stderr, or exit 2-4 with one ``error:`` line."""
    if code == 0:
        return err == ""
    return code in (2, 3, 4) and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
class TestMutatedInstances:
    """Every mutation of a valid instance ends on a documented exit code with
    at most one stderr line, never on a traceback or a warning."""

    def test_base_instance_runs(self, tmp_path):
        path = write(tmp_path, "inst.json", FUZZ_BASE)
        for command in FUZZ_COMMANDS:
            assert _run(command + [path, "--out", str(tmp_path / "out.json")]) == (0, "")

    def test_every_single_mutation_through_check(self, tmp_path):
        out = str(tmp_path / "out.json")
        failures = []
        for node_path in _node_paths(FUZZ_BASE):
            mutations = [(value, None) for value in ["delete"] + FUZZ_VALUES]
            if _renamable(node_path):
                mutations += [("rename", key) for key in FUZZ_BRANCH_KEYS]
            for value, new_key in mutations:
                path = write(tmp_path, "inst.json", _mutated(FUZZ_BASE, node_path, value, new_key))
                code, err = _run(["check", path, "--out", out])
                if not _documented_ending(code, err):
                    failures.append((node_path, value, new_key, code, err))
        assert failures == []

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_or_two_mutations(self, tmp_path, data):
        doc = FUZZ_BASE
        for _ in range(data.draw(st.integers(1, 2), label="mutations")):
            value = data.draw(st.sampled_from(["delete", "rename"] + FUZZ_VALUES), label="value")
            paths = [p for p in _node_paths(doc) if value != "rename" or _renamable(p)]
            if not paths:
                continue
            node_path = data.draw(st.sampled_from(paths), label="path")
            new_key = None
            if value == "rename":
                new_key = data.draw(st.sampled_from(FUZZ_BRANCH_KEYS), label="key")
            doc = _mutated(doc, node_path, value, new_key)
        path = write(tmp_path, "inst.json", doc)
        for command in FUZZ_COMMANDS:
            code, err = _run(command + [path, "--out", str(tmp_path / "out.json")])
            assert _documented_ending(code, err), (command, code, err)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _long_options(parser):
    return {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {"--help"}


class TestSuiteDefaults:
    @pytest.mark.parametrize(
        "command, runner",
        [("verify-nogo", suites.run_nogo_suite), ("oracle-check", suites.run_oracle_suite)],
    )
    def test_parser_defaults_match_the_runner(self, command, runner):
        # Each default is declared in build_parser and in the runner's
        # signature; every flag must name a parameter with the same default.
        # The runner's tol has no flag.
        args = vars(cli.build_parser().parse_args([command]))
        unrelated = {"photon_cap", "tolerance", "command", "func", "out"}
        flags = {k: v for k, v in args.items() if k not in unrelated}
        params = inspect.signature(runner).parameters
        assert flags == {name: p.default for name, p in params.items() if name != "tol"}


class TestReadmeSynopsis:
    def test_names_exactly_the_parser_options(self):
        # The global-flags sentence and each subcommand's synopsis lines in
        # README name the same long options that build_parser defines.
        text = README.read_text(encoding="utf-8")
        documented: dict[str, set] = {}
        for line in text.split("## CLI", 1)[1].split("```")[1].splitlines():
            words = line.split()
            if words[:1] == ["fockcascade"]:
                command = words[1]
            if words:
                documented.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
        flags = re.search(r"Global flags:(.*?)\.\s", text, re.S).group(1)
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(re.findall(r"--[a-z-]+", flags)) == _long_options(parser)
        assert documented == {name: _long_options(p) for name, p in commands.choices.items()}


class TestReadmeLayout:
    def test_names_exactly_the_package_modules(self):
        # The README "Layout" block lists every module of the package but
        # __init__.py, and no module that is gone.
        block = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
        documented = set(re.findall(r"^\s+(\w+\.py)\s", block, re.M))
        modules = {p.name for p in (README.parent / "src" / "fockcascade").glob("*.py")}
        assert documented == modules - {"__init__.py"}
