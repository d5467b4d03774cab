"""tools/census.py: the reports of two checkouts, compared file by file."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SMALL_SUITES = (
    ("verify-nogo", ["verify-nogo", "--count", "3"]),
    ("oracle-check", ["oracle-check", "--count", "3"]),
)


def test_a_checkout_matches_itself(tmp_path):
    cmds = census.commands(suites=SMALL_SUITES)
    assert len(cmds) == 5 * len(census.INSTANCES) + len(SMALL_SUITES)
    assert census.census(ROOT, ROOT, cmds, tmp_path) == []
    assert len(list((tmp_path / "new").glob("*.json"))) == len(cmds)


def test_a_failing_checkout_is_reported(tmp_path):
    # A tree without the package exits 1 on every command and writes nothing.
    cmds = census.commands(instances=census.INSTANCES[:1], suites=())[:1]
    (tmp_path / "empty").mkdir()
    lines = census.census(ROOT, tmp_path / "empty", cmds, tmp_path)
    assert lines == [f"{cmds[0][0]}: exit 0 -> 1"]


def test_capped_files_are_checked_at_each_cap(tmp_path):
    cmds = census.commands(instances=census.INSTANCES[:1], suites=(), capped=census.INSTANCES[:1])
    capped = [argv[:3] for name, argv in cmds if name.startswith("check-cap")]
    assert capped == [["--photon-cap", str(cap), "check"] for cap in census.CAPS]
    assert census.census(ROOT, ROOT, cmds, tmp_path) == []


def stub_tree(root, main_body):
    """A checkout whose ``fockcascade.cli.main(argv)`` runs ``main_body``."""
    stub = root / "src" / "fockcascade"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("import sys\n\ndef main(argv):\n    " + main_body + "\n")
    return root


def test_a_different_error_line_is_reported(tmp_path):
    # Both trees exit 2 on a missing file; the stub's error line differs.
    stub = stub_tree(tmp_path / "stub", "print('error: stub', file=sys.stderr)\n    return 2")
    cmds = [("check-missing", ["check", str(tmp_path / "missing.json")])]
    assert census.census(ROOT, stub, cmds, tmp_path) == ["check-missing: error line differs"]


def test_differing_suite_reports_are_counted(tmp_path):
    # Every differing report is counted, not only the `check` ones.
    write = "open(argv[argv.index('--out') + 1], 'w').write('{}')\n    return 0"
    old = stub_tree(tmp_path / "tree-old", write.format('{"max_deviation": 1e-15, "all_passed": true}'))
    new = stub_tree(tmp_path / "tree-new", write.format('{"max_deviation": 2e-15, "all_passed": false}'))
    cmds = [("oracle-check", ["oracle-check"])]
    assert census.census(old, new, cmds, tmp_path) == [
        "oracle-check: report differs, 1 numbers and 1 other values differ"
    ]


@pytest.mark.parametrize(
    "new, expected",
    [
        ({"p": [0.5, 0.25], "v": True, "h": [1, 2]}, (0, 0)),
        ({"p": [0.5, 0.2500000000001], "v": True, "h": [1, 3]}, (2, 0)),
        ({"p": [0.5, 0.25], "v": False, "h": [1, 2]}, (0, 1)),
        ({"p": [0.5], "v": True, "h": [1, 2]}, None),
        ({"p": [0.5, 0.25], "v": True}, None),
        ({"p": [0.5, {"x": 1}], "v": True, "h": [1, 2]}, None),
    ],
)
def test_differences_counts_numbers_and_other_values(new, expected):
    old = {"p": [0.5, 0.25], "v": True, "h": [1, 2]}
    assert census.differences(old, new) == expected
