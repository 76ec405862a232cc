"""Tests for the peer transfer server and fetch clients."""

import os

import pytest

from repro.util.hashing import hash_bytes
from repro.worker.transfers import (
    PeerTransferServer,
    TransferFailed,
    fetch_from_peer,
    fetch_from_url,
    pack_directory,
    unpack_directory,
    verify_content_name,
)


@pytest.fixture()
def served_objects(tmp_path):
    """A peer server over a small dictionary of on-disk objects."""
    objects = {}

    def add_file(name, data):
        path = tmp_path / f"obj-{len(objects)}"
        path.write_bytes(data)
        objects[name] = str(path)
        return str(path)

    server = PeerTransferServer(lambda name: objects.get(name))
    yield server, objects, add_file, tmp_path
    server.stop()


def test_fetch_file_from_peer(served_objects, tmp_path):
    server, objects, add_file, _ = served_objects
    add_file("obj-a", b"peer data" * 100)
    dest = tmp_path / "downloaded"
    size = fetch_from_peer(server.host, server.port, "obj-a", str(dest))
    assert size == 900
    assert dest.read_bytes() == b"peer data" * 100


def test_fetch_directory_from_peer(served_objects, tmp_path):
    server, objects, _, root = served_objects
    src = root / "tree"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "f.txt").write_text("nested")
    (src / "top.txt").write_text("top")
    objects["dir-obj"] = str(src)
    dest = tmp_path / "received"
    fetch_from_peer(server.host, server.port, "dir-obj", str(dest))
    assert (dest / "sub" / "f.txt").read_text() == "nested"
    assert (dest / "top.txt").read_text() == "top"


def test_fetch_missing_object_fails(served_objects, tmp_path):
    server, *_ = served_objects
    with pytest.raises(TransferFailed, match="does not hold"):
        fetch_from_peer(server.host, server.port, "ghost", str(tmp_path / "x"))


def test_fetch_unreachable_peer_fails(tmp_path):
    with pytest.raises(TransferFailed, match="cannot reach"):
        fetch_from_peer("127.0.0.1", 1, "x", str(tmp_path / "x"), timeout=0.5)


def test_content_verification_rejects_corruption(served_objects, tmp_path):
    server, objects, add_file, _ = served_objects
    # claim a content name that does not match the served bytes
    bogus_name = f"file-md5-{hash_bytes(b'expected content')}"
    add_file(bogus_name, b"actually different")
    dest = tmp_path / "x"
    with pytest.raises(TransferFailed, match="verification"):
        fetch_from_peer(server.host, server.port, bogus_name, str(dest))
    assert not dest.exists()


def test_content_verification_accepts_match(served_objects, tmp_path):
    server, objects, add_file, _ = served_objects
    data = b"genuine bytes"
    name = f"file-md5-{hash_bytes(data)}"
    add_file(name, data)
    dest = tmp_path / "ok"
    fetch_from_peer(server.host, server.port, name, str(dest))
    assert dest.read_bytes() == data


@pytest.mark.parametrize(
    "named, tamper, outcome",
    [
        (True, None, "passed"),      # name digest and transit digest agree
        (False, None, "passed"),     # opaque name: the transit digest alone
        (True, "corrupt", "failed"),
        (False, "corrupt", "failed"),
    ],
)
def test_a_received_file_is_hashed_once(
    served_objects, tmp_path, monkeypatch, named, tamper, outcome
):
    """The digest the name embeds and the one the sender measured are
    both checked against a single pass over the received bytes."""
    from repro.worker import transfers

    server, objects, add_file, _ = served_objects
    data = b"bytes worth hashing" * 50
    name = f"file-md5-{hash_bytes(data)}" if named else "temp-rnd-1"
    add_file(name, data)
    server.tamper = lambda _name: tamper
    dest = str(tmp_path / "got")
    hashed = []
    real = transfers.hash_file
    monkeypatch.setattr(
        transfers, "hash_file", lambda path: hashed.append(path) or real(path)
    )
    seen = []
    if outcome == "failed":
        with pytest.raises(TransferFailed, match="verification"):
            fetch_from_peer(server.host, server.port, name, dest, on_verify=seen.append)
        assert not os.path.exists(dest)
    else:
        fetch_from_peer(server.host, server.port, name, dest, on_verify=seen.append)
    assert seen == [outcome]
    assert hashed.count(dest) == 1


def test_verify_content_name_semantics(tmp_path):
    p = tmp_path / "f"
    p.write_bytes(b"abc")
    good = f"file-md5-{hash_bytes(b'abc')}"
    bad = f"file-md5-{hash_bytes(b'xyz')}"
    assert verify_content_name(good, str(p))
    assert not verify_content_name(bad, str(p))
    # non-content names verify vacuously
    assert verify_content_name("temp-rnd-123", str(p))
    assert verify_content_name("url-meta-abc", str(p))


def test_fetch_from_file_url(tmp_path):
    src = tmp_path / "archive.bin"
    src.write_bytes(b"archived" * 50)
    dest = tmp_path / "out.bin"
    size = fetch_from_url(f"file://{src}", str(dest))
    assert size == 400
    assert dest.read_bytes() == src.read_bytes()


def test_fetch_from_file_url_directory(tmp_path):
    src = tmp_path / "srcdir"
    src.mkdir()
    (src / "a").write_text("A")
    dest = tmp_path / "destdir"
    size = fetch_from_url(f"file://{src}", str(dest))
    assert size == 1
    assert (dest / "a").read_text() == "A"


def test_fetch_missing_url(tmp_path):
    with pytest.raises(TransferFailed, match="missing"):
        fetch_from_url(f"file://{tmp_path}/never", str(tmp_path / "o"))


def test_pack_unpack_round_trip(tmp_path):
    src = tmp_path / "tree"
    (src / "deep" / "deeper").mkdir(parents=True)
    (src / "deep" / "deeper" / "leaf").write_bytes(b"leafdata")
    (src / "root.txt").write_bytes(b"rootdata")
    tar = tmp_path / "packed.tar"
    pack_directory(str(src), str(tar))
    out = tmp_path / "unpacked"
    unpack_directory(str(tar), str(out))
    assert (out / "deep" / "deeper" / "leaf").read_bytes() == b"leafdata"
    assert (out / "root.txt").read_bytes() == b"rootdata"


def test_concurrent_fetches_from_one_server(served_objects, tmp_path):
    import threading

    server, objects, add_file, _ = served_objects
    add_file("shared", os.urandom(100_000))
    results = []

    def grab(i):
        dest = tmp_path / f"copy{i}"
        fetch_from_peer(server.host, server.port, "shared", str(dest))
        results.append(dest.stat().st_size)

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert results == [100_000] * 8


def test_server_stop_idempotent(served_objects):
    server, *_ = served_objects
    server.stop()
    server.stop()
