"""Compare the reports of two checkouts of fockcascade, file by file.

    python3 tools/census.py OLD NEW

OLD and NEW are checkout roots (each with ``src/fockcascade``).  The census
writes the 108 cascade-check instance files of benchmark seeds 1-3 (file k of
a seed holds an aux of up to ``k % 4`` photons), then runs every command of
:func:`commands` once per checkout, each in a fresh process with
``PYTHONPATH=<checkout>/src``:

- ``check`` on the 108 files and on ``instances/*.json``;
- ``simulate``, and ``condition --outcome 0/1/2`` on the first mode, on
  ``instances/*.json``;
- ``verify-nogo`` at its defaults and at ``--count 50`` with caps 4/3/4/3;
- ``oracle-check`` at its defaults and at ``--count 40 --max-modes 6
  --max-photons 6 --seed 3``.

It prints every report that differs between the two (for a ``check`` report,
with how many numbers differ), then how many match, and exits 0 only when
every report and exit code is the same.  It uses the standard library and,
to write the instance files, the package and ``perfbench/workloads.py`` of
the checkout it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = tuple(sorted((ROOT / "instances").glob("*.json")))
SEEDS = (1, 2, 3)
FILES_PER_SEED = 36
SUITES = (
    ("verify-nogo", ["verify-nogo"]),
    ("verify-nogo-50", ["verify-nogo", "--count", "50", "--max-system-modes", "4",
                        "--max-aux-modes", "3", "--max-photons", "4", "--max-aux-photons", "3"]),
    ("oracle-check", ["oracle-check"]),
    ("oracle-check-40", ["oracle-check", "--count", "40", "--max-modes", "6",
                         "--max-photons", "6", "--seed", "3"]),
)
RUN_CLI = "import sys; from fockcascade.cli import main; sys.exit(main(sys.argv[1:]))"


def write_cascade_files(workdir: Path) -> list[Path]:
    """The cascade-check instance files of seeds 1-3, as the benchmark writes them."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import item_seed, write_cascade_file

    paths = []
    for seed in SEEDS:
        for k in range(FILES_PER_SEED):
            path = workdir / f"cascade-s{seed}-{k:02d}.json"
            write_cascade_file(str(path), item_seed(seed, k), k % 4)
            paths.append(path)
    return paths


def commands(cascade_files=(), instances=INSTANCES, suites=SUITES) -> list[tuple[str, list[str]]]:
    """(report name, CLI arguments) of every report the census compares."""
    out = [(f"check-{p.stem}", ["check", str(p)]) for p in [*cascade_files, *instances]]
    for p in instances:
        first = json.loads(p.read_text(encoding="utf-8"))["modes"][0]
        out.append((f"simulate-{p.stem}", ["simulate", str(p)]))
        out += [
            (f"condition-{n}-{p.stem}", ["condition", str(p), "--measure", first, "--outcome", str(n)])
            for n in range(3)
        ]
    return out + [(name, list(argv)) for name, argv in suites]


def run_tree(tree: Path, cmds, outdir: Path) -> dict[str, tuple[int, bytes | None]]:
    """Run every command on the package of ``tree``: its exit code and report."""
    outdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    results = {}
    for name, argv in cmds:
        report = outdir / f"{name}.json"
        code = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv, "--out", str(report)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        results[name] = (code, report.read_bytes() if report.exists() else None)
    return results


def differences(a, b) -> tuple[int, int] | None:
    """(numbers, other values) that differ between two JSON values of the
    same shape; None when their shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        return None
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return (int(a != b), 0)
    else:
        return (0, int(a != b))
    counts = [differences(x, y) for x, y in pairs]
    return None if None in counts else (sum(n for n, _ in counts), sum(o for _, o in counts))


def census(old: Path, new: Path, cmds, workdir: Path) -> list[str]:
    """Run ``cmds`` on both checkouts; one line per report that differs."""
    before = run_tree(old, cmds, Path(workdir) / "old")
    after = run_tree(new, cmds, Path(workdir) / "new")
    lines = []
    for name, _ in cmds:
        (code_a, a), (code_b, b) = before[name], after[name]
        if (code_a, a) == (code_b, b):
            continue
        line = f"{name}: exit {code_a} -> {code_b}" if code_a != code_b else f"{name}: report differs"
        if name.startswith("check-") and a is not None and b is not None:
            count = differences(json.loads(a), json.loads(b))
            line += ", shapes differ" if count is None else ", {} numbers and {} other values differ".format(*count)
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the first checkout")
    parser.add_argument("new", type=Path, help="root of the second checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        cmds = commands(write_cascade_files(Path(tmp)))
        lines = census(args.old.resolve(), args.new.resolve(), cmds, Path(tmp))
    print("\n".join(lines + [f"{len(cmds) - len(lines)} of {len(cmds)} reports identical"]))
    return 0 if not lines else 1


if __name__ == "__main__":
    sys.exit(main())
