"""tools/same_outputs.py: the comparison of two output trees."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


@pytest.mark.parametrize("change, expected", [
    ({"a.log": b"exit 0\n", "fig.csv": b"1,2\n"}, None),
    ({"a.log": b"exit 0\n", "fig.csv": b"1,3\n"}, "fig.csv"),
    ({"a.log": b"exit 1\n", "fig.csv": b"1,3\n"}, "a.log"),
    ({"a.log": b"exit 0\n"}, "fig.csv"),
    ({"a.log": b"exit 0\n", "fig.csv": b"1,2\n", "sub/extra.csv": b""}, "sub/extra.csv"),
])
def test_first_difference(same_outputs, tmp_path, change, expected):
    parent = _tree(tmp_path / "parent", {"a.log": b"exit 0\n", "fig.csv": b"1,2\n"})
    assert same_outputs.first_difference(parent, _tree(tmp_path / "change", change)) == expected


def test_rejects_a_tree_without_the_package(same_outputs, tmp_path, capsys):
    assert same_outputs.main([str(tmp_path), str(tmp_path)]) == 2
    assert "no mmwcluster package" in capsys.readouterr().err
    assert same_outputs.main([str(tmp_path)]) == 2
