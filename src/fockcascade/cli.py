"""Command-line front end.

Subcommands:

    simulate     send the instance states through a network, emit output states
    condition    conditional state and weight after a photon-number outcome
    check        run the instance strategy, emit the discrimination verdict
    verify-nogo  seeded randomized verification of the transfer identity
    oracle-check seeded cross-check against the dense Fock reference

Reports are JSON (stdout or --out); summaries go to stderr.  Exit codes:
0 success, 1 failed verification suite, 2 schema error, 3 numeric validation
error (non-unitary network), 4 size or photon-cap violation, 5 internal error
(any other exception: a defect, reported with its type and where it was
raised).  Every error ends on one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .discriminate import DiscriminationInstance, cascade_discrimination
from .errors import (
    FockCascadeError,
    PhotonCapError,
    SchemaError,
    UnitarityViolation,
)
from .instancefile import load_instance
from .measurement import condition
from .modes import DEFAULT_PHOTON_CAP
from .network import CONSTRUCTION_TOL, substitute
from .poly import report_value
from .suites import SuiteCapError, run_nogo_suite, run_oracle_suite

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_CAPS = 4
EXIT_INTERNAL = 5


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _load(args):
    return load_instance(args.instance, photon_cap=args.photon_cap, unitarity_tol=args.tolerance)


def _emit_suite(result, suite: str, schema_version: str, out_path: str | None) -> int:
    """Write a suite report, print its summary, and return its exit code."""
    _emit({"schema_version": schema_version, "suite": suite, **report_value(result)}, out_path)
    print(result.summary(), file=sys.stderr)
    return EXIT_OK if result.all_passed else EXIT_SUITE_FAILED


def _cmd_simulate(args) -> int:
    instance = _load(args)
    net = instance.network(args.network)
    outputs = [substitute(instance.aux * psi, net) for psi in instance.states]
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "output_states": [p.to_dict() for p in outputs],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_condition(args) -> int:
    instance = _load(args)
    measured = args.measure or instance.measure
    if measured is None:
        raise SchemaError("no measured mode: pass --measure or set 'measure'")
    if measured not in instance.registry:
        raise SchemaError(f"measured mode {measured!r} not in instance modes")
    net = instance.network(args.network)
    conditionals = []
    for psi in instance.states:
        total = substitute(instance.aux * psi, net)
        cond = condition(total, measured, args.outcome)
        conditionals.append(
            {
                "outcome": cond.outcome,
                "weight": report_value(cond.weight),
                "state": cond.state.to_dict(),
            }
        )
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "condition",
            "measured": measured,
            "conditionals": conditionals,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    instance = _load(args)
    if instance.strategy is None:
        raise SchemaError("instance has no 'strategy' to check")
    disc = DiscriminationInstance(
        states=instance.states, aux=instance.aux, strategy=instance.strategy
    )
    cascade = cascade_discrimination(disc)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "verdict": cascade.verdict,
            "cascade": report_value(cascade),
            "root_stage": report_value(cascade.root_stage),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify_nogo(args) -> int:
    result = run_nogo_suite(
        count=args.count,
        seed=args.seed,
        max_system_modes=args.max_system_modes,
        max_aux_modes=args.max_aux_modes,
        max_photons=args.max_photons,
        max_aux_photons=args.max_aux_photons,
    )
    return _emit_suite(result, "verify-nogo", "2", args.out)


def _cmd_oracle_check(args) -> int:
    result = run_oracle_suite(
        count=args.count,
        seed=args.seed,
        max_modes=args.max_modes,
        max_photons=args.max_photons,
    )
    return _emit_suite(result, "oracle-check", "1", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockcascade",
        description="Linear-optical simulation, conditional measurement, and "
        "auxiliary-photon no-go verification.",
    )
    parser.add_argument(
        "--photon-cap", type=int, default=DEFAULT_PHOTON_CAP,
        help="per-mode occupation cap (default %(default)s)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=CONSTRUCTION_TOL,
        help="unitarity tolerance for loaded networks (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="send instance states through a network")
    p.add_argument("instance")
    p.add_argument("--network", default=None, help="named network to use")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("condition", help="conditional state after an outcome")
    p.add_argument("instance")
    p.add_argument("--outcome", type=int, required=True, help="photon count N")
    p.add_argument("--measure", default=None, help="measured mode label")
    p.add_argument("--network", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("check", help="full-cascade discrimination verdict")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify-nogo", help="randomized transfer-identity suite")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-system-modes", type=int, default=3)
    p.add_argument("--max-aux-modes", type=int, default=2)
    p.add_argument("--max-photons", type=int, default=3)
    p.add_argument("--max-aux-photons", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_nogo)

    p = sub.add_parser("oracle-check", help="dense Fock-space cross-check suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--max-modes", type=int, default=4)
    p.add_argument("--max-photons", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (SuiteCapError, PhotonCapError) as exc:
        code, error = EXIT_CAPS, exc
    except UnitarityViolation as exc:
        code, error = EXIT_NUMERIC, exc
    except (FockCascadeError, ValueError) as exc:
        code, error = EXIT_SCHEMA, exc
    except Exception as exc:  # last resort: one line, never a traceback or exit 1
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        code, error = EXIT_INTERNAL, f"internal error ({type(exc).__name__} at {where}): {exc}"
    print("error: " + " ".join(str(error).split()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
