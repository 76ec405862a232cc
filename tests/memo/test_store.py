"""Unit tests for the disk-backed memo store and its CLI."""

import json

import pytest

from repro.memo.cli import main as memo_main
from repro.memo.store import MemoOutput, MemoStore
from repro.util.hashing import hash_bytes


def one_output(name="memo-md5-abc", size=11, md5=None):
    return MemoOutput(sandbox="out.txt", cache_name=name, size=size, md5=md5)


def test_record_and_reload(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.record("m1", "command", "echo hi > out.txt", "alice", [one_output()], now=1.0)
    store.touch("m1", now=2.0)

    again = MemoStore(tmp_path / "memo")
    assert len(again) == 1
    e = again.get("m1")
    assert e is not None
    assert e.kind == "command"
    assert e.tenant == "alice"
    assert e.hits == 1 and e.last_used == 2.0
    assert e.output_names() == ["memo-md5-abc"]


def test_record_overwrites_previous_binding(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.record("m1", "command", "c", "t", [one_output(size=1)], now=1.0)
    store.record("m1", "command", "c", "t", [one_output(size=99)], now=2.0)
    assert len(store) == 1
    assert store.get("m1").outputs[0].size == 99


def test_payload_roundtrip_and_verify(tmp_path):
    store = MemoStore(tmp_path / "memo")
    md5 = store.store_payload("memo-md5-abc", b"result bytes")
    assert md5 == hash_bytes(b"result bytes")
    assert store.has_payload("memo-md5-abc")
    assert store.verify_payload("memo-md5-abc", md5)
    # never trusted without a digest; never verified against the wrong one
    assert not store.verify_payload("memo-md5-abc", None)
    assert not store.verify_payload("memo-md5-abc", "0" * 32)
    # corruption is detected
    with open(store.payload_path("memo-md5-abc"), "wb") as f:
        f.write(b"tampered")
    assert not store.verify_payload("memo-md5-abc", md5)
    store.drop_payload("memo-md5-abc")
    assert not store.has_payload("memo-md5-abc")


def test_payload_path_rejects_traversal(tmp_path):
    store = MemoStore(tmp_path / "memo")
    for bad in ("../escape", "a/b", ".", ".."):
        with pytest.raises(ValueError):
            store.payload_path(bad)


def test_set_output_md5(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.record("m1", "command", "c", "t", [one_output()], now=1.0)
    store.set_output_md5("m1", "memo-md5-abc", "d" * 32)
    assert MemoStore(tmp_path / "memo").get("m1").outputs[0].md5 == "d" * 32


def test_remove_drops_unreferenced_payloads_only(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.store_payload("shared", b"s")
    store.store_payload("only-m1", b"x")
    store.record("m1", "command", "c", "t",
                 [one_output("shared"), one_output("only-m1")], now=1.0)
    store.record("m2", "command", "c2", "t", [one_output("shared")], now=1.0)
    assert store.remove("m1")
    assert not store.has_payload("only-m1")
    assert store.has_payload("shared")  # m2 still references it
    assert not store.remove("m1")  # already gone


def test_gc_by_age_and_count_and_orphans(tmp_path):
    store = MemoStore(tmp_path / "memo")
    for i, when in enumerate((10.0, 20.0, 30.0)):
        store.record(f"m{i}", "command", "c", "t",
                     [one_output(f"memo-md5-{i}")], now=when)
    store.store_payload("orphan", b"nobody references me")
    removed = store.gc(max_age=50.0, now=70.0)  # m0 (age 60) expires
    assert removed == ["m0"]
    assert not store.has_payload("orphan")  # orphans always collected
    removed = store.gc(max_entries=1, now=70.0)  # keep newest only
    assert removed == ["m1"]
    assert len(store) == 1 and "m2" in store


def test_torn_index_starts_fresh(tmp_path):
    root = tmp_path / "memo"
    store = MemoStore(root)
    store.record("m1", "command", "c", "t", [one_output()], now=1.0)
    with open(root / "index.json", "w") as f:
        f.write('{"v": 1, "entries": {truncated')
    assert len(MemoStore(root)) == 0


def test_unknown_schema_not_misread(tmp_path):
    root = tmp_path / "memo"
    MemoStore(root).record("m1", "command", "c", "t", [one_output()], now=1.0)
    with open(root / "index.json") as f:
        data = json.load(f)
    data["v"] = 999
    with open(root / "index.json", "w") as f:
        json.dump(data, f)
    assert len(MemoStore(root)) == 0


def test_stats(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.record("m1", "python", "@pytask", "alice",
                 [one_output(size=100)], now=1.0)
    store.store_payload("memo-md5-abc", b"x" * 7)
    store.touch("m1", now=2.0)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["result_bytes"] == 100
    assert stats["hits"] == 1
    assert stats["payloads"] == 1 and stats["payload_bytes"] == 7
    assert stats["tenants"] == ["alice"]


# -- CLI --------------------------------------------------------------------


def seeded_store(tmp_path):
    store = MemoStore(tmp_path / "memo")
    store.record("m1", "command", "echo one", "alice", [one_output()], now=1.0)
    store.record("m2", "command", "echo two", "bob",
                 [one_output("memo-md5-def", size=5)], now=2.0)
    return str(tmp_path / "memo")


def test_cli_ls_and_stats_json(tmp_path, capsys):
    root = seeded_store(tmp_path)
    assert memo_main(["--dir", root, "--json", "ls"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {e["merkle"] for e in entries} == {"m1", "m2"}
    assert memo_main(["--dir", root, "--json", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 2


def test_cli_invalidate(tmp_path, capsys):
    root = seeded_store(tmp_path)
    assert memo_main(["--dir", root, "--json", "invalidate", "m1"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == ["m1"]
    assert memo_main(["--dir", root, "--json", "invalidate", "m1"]) == 1
    assert memo_main(["--dir", root, "--json", "invalidate", "--all"]) == 0
    assert len(MemoStore(root)) == 0
    assert memo_main(["--dir", root, "invalidate"]) == 2  # merkle required


def test_cli_gc(tmp_path, capsys):
    root = seeded_store(tmp_path)
    assert memo_main(["--dir", root, "--json", "gc", "--max-entries", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == ["m1"]
    assert len(MemoStore(root)) == 1
