"""Tests for content-addressable cache naming (paper §3.2, Fig. 7)."""


import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.files import (
    BufferFile,
    CacheLevel,
    LocalFile,
    MiniTaskFile,
    TempFile,
    URLFile,
)
from repro.core.naming import (
    Namer,
    buffer_cache_name,
    directory_merkle,
    local_cache_name,
    task_merkle,
    task_spec_hash,
    url_cache_name,
)
from repro.core.task import MiniTask, Task
from repro.util.hashing import hash_bytes, hash_file


# -- low-level hashing ---------------------------------------------------


def test_hash_bytes_stable():
    assert hash_bytes(b"hello") == hash_bytes(b"hello")
    assert hash_bytes(b"hello") != hash_bytes(b"hello!")


def test_hash_file_matches_hash_bytes(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"some content" * 1000)
    assert hash_file(p) == hash_bytes(b"some content" * 1000)


# -- directory Merkle tree ----------------------------------------------


def make_tree(root, spec):
    """Create a directory tree from {name: bytes|dict} spec."""
    for name, value in spec.items():
        path = root / name
        if isinstance(value, dict):
            path.mkdir()
            make_tree(path, value)
        else:
            path.write_bytes(value)


def test_merkle_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    spec = {"x.txt": b"one", "sub": {"y.txt": b"two"}}
    a.mkdir()
    b.mkdir()
    make_tree(a, spec)
    make_tree(b, spec)
    assert directory_merkle(a) == directory_merkle(b)


def test_merkle_content_change_changes_root(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    make_tree(a, {"sub": {"deep": {"f": b"AAAA"}}})
    make_tree(b, {"sub": {"deep": {"f": b"AAAB"}}})
    assert directory_merkle(a) != directory_merkle(b)


def test_merkle_rename_changes_root(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    make_tree(a, {"f1": b"data"})
    make_tree(b, {"f2": b"data"})
    assert directory_merkle(a) != directory_merkle(b)


def test_merkle_symlink_hashes_target_path(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "ln").symlink_to("target1")
    (b / "ln").symlink_to("target2")
    assert directory_merkle(a) != directory_merkle(b)


def test_merkle_symlink_not_followed(tmp_path):
    # a dangling symlink must hash (by target path), not raise; and a
    # symlink to a directory must hash as a link, not recurse into it
    a = tmp_path / "a"
    a.mkdir()
    (a / "dangling").symlink_to("no/such/target")
    first = directory_merkle(a)
    real = tmp_path / "real"
    real.mkdir()
    (real / "f.txt").write_bytes(b"content")
    b = tmp_path / "b"
    b.mkdir()
    (b / "ln").symlink_to(real)
    linked = directory_merkle(b)
    (real / "f.txt").write_bytes(b"changed")
    assert directory_merkle(b) == linked  # link rows ignore target content
    assert first != linked


def test_merkle_empty_directory_still_counts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert directory_merkle(a) == directory_merkle(b)  # both empty
    (a / "empty_sub").mkdir()
    assert directory_merkle(a) != directory_merkle(b)
    (b / "empty_sub").mkdir()
    assert directory_merkle(a) == directory_merkle(b)


def test_merkle_non_utf8_entry_names(tmp_path):
    raw = b"bad\xff\xfename"
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for root in (a, b):
        with open(os.path.join(os.fsencode(root), raw), "wb") as f:
            f.write(b"payload")
    assert directory_merkle(a) == directory_merkle(b)
    with open(os.path.join(os.fsencode(a), raw), "wb") as f:
        f.write(b"different")
    assert directory_merkle(a) != directory_merkle(b)


def test_merkle_non_utf8_symlink_target(tmp_path):
    raw = b"target\xff\xfe"
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    os.symlink(raw, os.path.join(os.fsencode(a), b"ln"))
    os.symlink(raw, os.path.join(os.fsencode(b), b"ln"))
    assert directory_merkle(a) == directory_merkle(b)
    c = tmp_path / "c"
    c.mkdir()
    os.symlink(raw + b"x", os.path.join(os.fsencode(c), b"ln"))
    assert directory_merkle(a) != directory_merkle(c)


def test_merkle_special_files_do_not_crash(tmp_path):
    a = tmp_path / "a"
    a.mkdir()
    (a / "normal.txt").write_bytes(b"data")
    try:
        os.mkfifo(a / "pipe")
    except (AttributeError, OSError):
        pytest.skip("platform cannot create FIFOs")
    with_fifo = directory_merkle(a)
    b = tmp_path / "b"
    b.mkdir()
    (b / "normal.txt").write_bytes(b"data")
    assert with_fifo != directory_merkle(b)  # the fifo row is recorded


def test_local_cache_name_prefixes(tmp_path):
    f = tmp_path / "plain"
    f.write_bytes(b"x")
    d = tmp_path / "dir"
    d.mkdir()
    assert local_cache_name(f).startswith("file-md5-")
    assert local_cache_name(d).startswith("dir-md5-")


@given(st.dictionaries(
    st.text(alphabet="abcdefg", min_size=1, max_size=6),
    st.binary(max_size=64),
    max_size=5,
))
def test_property_merkle_independent_of_creation_order(tmp_path_factory, spec):
    a = tmp_path_factory.mktemp("order_a")
    b = tmp_path_factory.mktemp("order_b")
    for name in sorted(spec):
        (a / name).write_bytes(spec[name])
    for name in sorted(spec, reverse=True):
        (b / name).write_bytes(spec[name])
    assert directory_merkle(a) == directory_merkle(b)


# -- URL naming ----------------------------------------------------------


def test_url_name_prefers_checksum_header():
    n1 = url_cache_name("http://a/x", {"Content-MD5": "abc"})
    n2 = url_cache_name("http://b/y", {"content-md5": "abc"})
    assert n1 == n2  # checksum dominates URL
    assert n1.startswith("url-sum-")


def test_url_name_uses_etag_and_modified():
    base = {"ETag": "v1", "Last-Modified": "Mon"}
    n1 = url_cache_name("http://a/x", base)
    assert n1.startswith("url-meta-")
    assert url_cache_name("http://a/x", base) == n1
    assert url_cache_name("http://a/x", {"ETag": "v2", "Last-Modified": "Mon"}) != n1
    assert url_cache_name("http://other/x", base) != n1


def test_url_name_falls_back_to_download():
    calls = []

    def fake_download(url):
        calls.append(url)
        return b"the content"

    n = url_cache_name("http://a/x", {}, fake_download)
    assert n == f"url-md5-{hash_bytes(b'the content')}"
    assert calls == ["http://a/x"]


def test_url_name_without_headers_or_download_raises():
    with pytest.raises(ValueError):
        url_cache_name("http://a/x", {})


# -- task spec hashes -------------------------------------------------------


def test_task_spec_hash_sensitive_to_command_and_inputs():
    base = task_spec_hash("untar x", [("x", "file-md5-aaa")])
    assert task_spec_hash("untar x", [("x", "file-md5-aaa")]) == base
    assert task_spec_hash("untar y", [("x", "file-md5-aaa")]) != base
    assert task_spec_hash("untar x", [("x", "file-md5-bbb")]) != base
    assert task_spec_hash("untar x", [("y", "file-md5-aaa")]) != base


def test_task_spec_hash_input_order_irrelevant():
    a = task_spec_hash("cmd", [("a", "n1"), ("b", "n2")])
    b = task_spec_hash("cmd", [("b", "n2"), ("a", "n1")])
    assert a == b


def test_task_spec_hash_env_and_resources_matter():
    base = task_spec_hash("cmd", [], {"cores": 1}, {})
    assert task_spec_hash("cmd", [], {"cores": 2}, {}) != base
    assert task_spec_hash("cmd", [], {"cores": 1}, {"X": "1"}) != base


# -- the Namer policy --------------------------------------------------------


def test_buffer_always_content_named():
    n = Namer(seed=1)
    f1 = BufferFile(b"payload", cache=CacheLevel.TASK)
    f2 = BufferFile(b"payload", cache=CacheLevel.WORKER)
    assert n.assign(f1) == n.assign(f2) == buffer_cache_name(b"payload")


def test_local_worker_level_content_named(tmp_path):
    p = tmp_path / "data"
    p.write_bytes(b"zzz")
    n = Namer(seed=1)
    f = LocalFile(str(p), cache=CacheLevel.WORKER)
    assert n.assign(f) == local_cache_name(p)
    assert f.size == 3


def test_local_workflow_level_random_named(tmp_path):
    p = tmp_path / "data"
    p.write_bytes(b"zzz")
    f1 = LocalFile(str(p), cache=CacheLevel.WORKFLOW)
    f2 = LocalFile(str(p), cache=CacheLevel.WORKFLOW)
    n = Namer(seed=1)
    assert n.assign(f1) != n.assign(f2)
    assert n.assign(f1).startswith("local-rnd-")


def test_random_names_include_run_nonce():
    n1 = Namer(seed=7, run_nonce="runA")
    n2 = Namer(seed=7, run_nonce="runB")
    f1, f2 = TempFile(), TempFile()
    assert n1.assign(f1) != n2.assign(f2)


def test_same_seed_same_nonce_reproducible():
    n1 = Namer(seed=7, run_nonce="run")
    n2 = Namer(seed=7, run_nonce="run")
    assert n1.assign(TempFile()) == n2.assign(TempFile())


def test_assign_idempotent():
    n = Namer(seed=1)
    f = BufferFile(b"x")
    name = n.assign(f)
    assert n.assign(f) == name


def test_url_worker_level_uses_header_fetcher():
    n = Namer(seed=1)

    def fetch(url):
        return {"ETag": "tag-1"}

    n.header_fetcher = fetch
    f = URLFile("http://host/file", cache=CacheLevel.WORKER)
    assert n.assign(f).startswith("url-meta-")


def test_minitask_file_spec_named_and_dedups():
    n = Namer(seed=1)
    src = BufferFile(b"tarball-bytes", cache=CacheLevel.WORKER)
    mt1 = MiniTask("tar xf input").add_input(src, "input")
    mt2 = MiniTask("tar xf input").add_input(src, "input")
    f1 = MiniTaskFile(mt1, cache=CacheLevel.WORKER)
    f2 = MiniTaskFile(mt2, cache=CacheLevel.WORKER)
    assert n.assign(f1) == n.assign(f2)
    assert f1.cache_name.startswith("task-md5-")
    assert f1.dependencies == (src.cache_name,)


def test_minitask_workflow_level_salted_with_nonce():
    src = BufferFile(b"tarball", cache=CacheLevel.WORKER)

    def named(nonce):
        mt = MiniTask("tar xf input").add_input(src, "input")
        f = MiniTaskFile(mt, cache=CacheLevel.WORKFLOW)
        return Namer(seed=1, run_nonce=nonce).assign(f)

    assert named("A") != named("B")


def test_temp_output_named_from_producer():
    n = Namer(seed=1)
    inp = BufferFile(b"in", cache=CacheLevel.WORKER)
    temp = TempFile(cache=CacheLevel.WORKER)
    t = Task("process input > out").add_input(inp, "input").add_output(temp, "out")
    n.assign(temp)  # placeholder random name first
    final = n.name_temp_output(temp, t)
    assert final.startswith("temp-md5-")
    assert temp.producer_task_id == t.task_id
    # identical producing spec -> identical name
    temp2 = TempFile(cache=CacheLevel.WORKER)
    t2 = Task("process input > out").add_input(inp, "input").add_output(temp2, "out")
    assert Namer(seed=2).name_temp_output(temp2, t2) == final


def test_two_temp_outputs_of_one_task_distinct():
    n = Namer(seed=1)
    t = Task("cmd")
    o1, o2 = TempFile(cache=CacheLevel.WORKER), TempFile(cache=CacheLevel.WORKER)
    t.add_output(o1, "outA").add_output(o2, "outB")
    assert n.name_temp_output(o1, t) != n.name_temp_output(o2, t)


def test_a_content_derived_output_name_needs_the_file_to_be_an_output():
    """A ``temp-md5-`` or ``memo-md5-`` name hashes the output's sandbox
    name; a file the task does not produce has none, and is refused
    rather than named after anything the process happens to hold."""
    n = Namer(seed=1)
    t = Task("cmd").add_output(TempFile(), "out")
    stray = TempFile()
    with pytest.raises(ValueError, match="not an output"):
        n.name_temp_output(stray, t)
    with pytest.raises(ValueError, match="not an output"):
        n.name_task_output(stray, t, task_merkle(t))
    assert stray.cache_name is None and stray.producer_task_id is None
    # how many files the process made before does not move a name
    first = n.name_task_output(t.outputs[0][1], t, task_merkle(t))
    for _ in range(100):
        TempFile()
    again = Task("cmd").add_output(TempFile(), "out")
    out = again.outputs[0][1]
    assert Namer(seed=9).name_task_output(out, again, task_merkle(again)) == first
