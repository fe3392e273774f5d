"""``tools/cli_bytes.py`` sees every part of a call that can differ."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def cli_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import cli_bytes

    return cli_bytes


def test_same_call_is_identical_and_a_changed_file_is_seen(cli_bytes, tmp_path):
    name, args, env = next(call for call in cli_bytes.CALLS if call[0] == "derive-csv")
    first = cli_bytes.run_call(ROOT / "src", tmp_path / "a", args, env)
    second = cli_bytes.run_call(ROOT / "src", tmp_path / "b", args, env)
    assert first["exit"] == 0 and list(first["files"]) == ["result.out"]
    assert cli_bytes.differences(first, second) == []
    changed = dict(second, files={"result.out": b"other"}, stderr=b"warning\n")
    assert cli_bytes.differences(first, changed) == ["stderr", "files"]


def test_call_names_are_unique(cli_bytes):
    names = [name for name, _, _ in cli_bytes.CALLS]
    assert len(names) == len(set(names)) == 30
