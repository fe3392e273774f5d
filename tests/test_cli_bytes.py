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
    assert len(names) == len(set(names)) == 55


def test_expect_names_calls_and_rejects_unknown_ones(cli_bytes):
    assert cli_bytes.expected_calls("") == set()
    assert cli_bytes.expected_calls(" pe-shadowed, ,compare-threads-2,pe-shadowed") == {
        "pe-shadowed", "compare-threads-2"}
    with pytest.raises(ValueError, match="^no such call: nope$"):
        cli_bytes.expected_calls("pe,nope")


def test_unknown_expect_name_exits_2_before_any_call_runs(cli_bytes, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_bytes.main(["--parent", "HEAD", "--change", "HEAD", "--expect", "nope"])
    assert exit_info.value.code == 2
    assert "--expect: no such call: nope" in capsys.readouterr().err


@pytest.mark.parametrize("differing, expected, code, lines", [
    (set(), set(), 0, []),
    ({"pe-shadowed"}, {"pe-shadowed"}, 0, []),
    ({"pe-shadowed", "pe"}, {"pe-shadowed"}, 1, ["differ, not expected: pe"]),
    (set(), {"pe-shadowed"}, 1, ["expected to differ, same: pe-shadowed"]),
    ({"pe"}, {"pe-shadowed"}, 1,
     ["differ, not expected: pe", "expected to differ, same: pe-shadowed"]),
], ids=["none", "exactly", "one-more", "one-fewer", "other"])
def test_only_exactly_the_expected_calls_may_differ(cli_bytes, differing, expected, code,
                                                   lines):
    assert cli_bytes.verdict(differing, expected) == (code, lines)


@pytest.mark.parametrize("before, after, names", [
    (b"# config: a=1\nvariant,p_e,seed\nWTFC,0.1,3\n",
     b"# config: a=1\nvariant,p_e,seed\nWTFC,0.2,3\n", ["p_e"]),
    (b"# config: a=1\nx,y\n1,2\n3,4\n", b"# config: a=2\nx,y\n1,2\n3,5\n",
     ["# config", "y"]),
    (b'{"config": {"seed": "3"}, "rows": [{"p_e": 0.1, "seed": 3}]}',
     b'{"config": {"seed": "3"}, "rows": [{"p_e": 0.1, "seed": 4}]}', ["seed"]),
    (b'{"variant": "WTFC", "p_e": 0.1}', b'{"variant": "WTFC", "p_e": 0.3}', ["p_e"]),
    (b"variant = WTFC\np_e = 0.1\ncapacity_bps = 5\n",
     b"variant = WTFC\np_e = 0.2\ncapacity_bps = 4\n", ["p_e", "capacity_bps"]),
], ids=["csv", "csv-config", "json-rows", "json-report", "key-value"])
def test_differing_columns_are_named(cli_bytes, before, after, names):
    assert cli_bytes.differing_columns(before, after) == names
    assert cli_bytes.differing_columns(before, before) == []


def test_changed_files_name_each_differing_file(cli_bytes):
    table = b"# config: a=1\nvariant,p_e\nWTFC,0.1\n"
    parent = {"files": {"a.csv": table, "b.csv": table, "c.csv": table}}
    change = {"files": {"a.csv": table, "b.csv": table.replace(b"0.1", b"0.2"),
                        "d.csv": table}}
    assert cli_bytes.changed_files(parent, change) == [
        "  b.csv columns: p_e",
        "  c.csv columns: (only on one side)",
        "  d.csv columns: (only on one side)",
    ]
    assert cli_bytes.changed_files(parent, parent) == []
