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
