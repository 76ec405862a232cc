"""Tests for the worker cache, sandboxes, and the task executor."""

import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.files import CacheLevel
from repro.core.resources import Resources
from repro.worker.cache import WorkerCache
from repro.worker.executor import run_command
from repro.worker.sandbox import Sandbox, SandboxError


# -- cache ---------------------------------------------------------------


def test_insert_bytes_and_query(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    entry = cache.insert_bytes(b"hello", "file-1", CacheLevel.WORKFLOW, now=5.0)
    assert cache.has("file-1")
    assert entry.size == 5
    assert not entry.is_dir
    assert cache.total_bytes() == 5
    with open(cache.path_of("file-1"), "rb") as f:
        assert f.read() == b"hello"


def test_insert_from_moves_staged_file(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    staged = cache.staging_path("dl")
    with open(staged, "wb") as f:
        f.write(b"x" * 100)
    cache.insert_from(staged, "obj", CacheLevel.WORKER)
    assert not os.path.exists(staged)
    assert cache.entry("obj").size == 100


def test_insert_directory_object(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    staged = cache.staging_path("dir")
    os.makedirs(os.path.join(staged, "sub"))
    with open(os.path.join(staged, "sub", "f"), "w") as f:
        f.write("abc")
    entry = cache.insert_from(staged, "mydir", CacheLevel.WORKER)
    assert entry.is_dir
    assert entry.size == 3


def test_insert_idempotent(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    cache.insert_bytes(b"one", "n", CacheLevel.WORKFLOW)
    cache.insert_bytes(b"one", "n", CacheLevel.WORKFLOW)
    assert cache.total_bytes() == 3


def test_remove(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    cache.insert_bytes(b"x", "n", CacheLevel.WORKFLOW)
    assert cache.remove("n")
    assert not cache.has("n")
    assert not os.path.exists(cache.path_of("n"))
    assert not cache.remove("n")


def test_worker_level_survives_restart(tmp_path):
    root = str(tmp_path / "c")
    cache = WorkerCache(root)
    cache.insert_bytes(b"keep", "keep-me", CacheLevel.WORKER)
    cache.insert_bytes(b"drop", "drop-me", CacheLevel.WORKFLOW)
    reopened = WorkerCache(root)
    assert reopened.has("keep-me")
    assert not reopened.has("drop-me")
    assert not os.path.exists(reopened.path_of("drop-me"))


def test_restart_clears_staging(tmp_path):
    root = str(tmp_path / "c")
    cache = WorkerCache(root)
    staged = cache.staging_path("partial")
    with open(staged, "wb") as f:
        f.write(b"partial download")
    reopened = WorkerCache(root)
    assert os.listdir(reopened.staging_dir) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "reopen"]),
            st.integers(0, 5),  # a small name space: re-inserts and misses happen
            st.integers(0, 64),
            st.sampled_from(list(CacheLevel)),
        ),
        max_size=40,
    )
)
def test_total_bytes_is_the_sum_over_entries(ops):
    """The running byte total survives any interleaving of inserts,
    idempotent re-inserts, removes (hits and misses) and restarts."""
    with tempfile.TemporaryDirectory() as root:
        cache = WorkerCache(root)
        for op, n, size, level in ops:
            if op == "insert":
                cache.insert_bytes(b"x" * size, f"obj-{n}", level)
            elif op == "remove":
                cache.remove(f"obj-{n}")
            else:
                cache = WorkerCache(root)
            assert cache.total_bytes() == sum(e.size for e in cache.entries())


def test_illegal_cache_names_rejected(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    with pytest.raises(ValueError):
        cache.path_of("../escape")
    with pytest.raises(ValueError):
        cache.path_of("a/b")


def test_staging_paths_unique(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    p1 = cache.staging_path("same")
    with open(p1, "w") as f:
        f.write("x")
    p2 = cache.staging_path("same")
    assert p1 != p2


def test_eviction_view_shapes(tmp_path):
    cache = WorkerCache(str(tmp_path / "c"))
    cache.insert_bytes(b"abc", "n", CacheLevel.WORKER, now=9.0)
    info = cache.eviction_view()[0]
    assert (info.cache_name, info.size, info.level, info.last_used) == (
        "n", 3, CacheLevel.WORKER, 9.0,
    )


# -- sandbox ------------------------------------------------------------


@pytest.fixture()
def cache(tmp_path):
    return WorkerCache(str(tmp_path / "cache"))


def test_link_inputs_and_read(tmp_path, cache):
    cache.insert_bytes(b"data!", "obj-a", CacheLevel.WORKFLOW)
    sb = Sandbox(str(tmp_path / "sb"), "t1")
    sb.link_inputs(cache, [("input.txt", "obj-a"), ("nested/d.txt", "obj-a")])
    assert open(os.path.join(sb.path, "input.txt")).read() == "data!"
    assert open(os.path.join(sb.path, "nested/d.txt")).read() == "data!"
    sb.destroy()
    assert not os.path.exists(sb.path)
    assert cache.has("obj-a")  # destroying the sandbox never hurts the cache


def test_link_directory_input(tmp_path, cache):
    staged = cache.staging_path("d")
    os.makedirs(staged)
    with open(os.path.join(staged, "member"), "w") as f:
        f.write("m")
    cache.insert_from(staged, "dir-obj", CacheLevel.WORKFLOW)
    sb = Sandbox(str(tmp_path / "sb"), "t2")
    sb.link_inputs(cache, [("software", "dir-obj")])
    assert open(os.path.join(sb.path, "software", "member")).read() == "m"


def test_missing_input_raises(tmp_path, cache):
    sb = Sandbox(str(tmp_path / "sb"), "t3")
    with pytest.raises(SandboxError):
        sb.link_inputs(cache, [("x", "not-there")])


def test_input_removed_under_its_entry_raises(tmp_path, cache):
    """An object removed between the entry check and the link (an
    ``unlink`` command racing the task) fails the setup; it is never
    linked in as a dangling symlink the command would trip over."""
    cache.insert_bytes(b"gone", "o", CacheLevel.WORKFLOW)
    os.unlink(cache.path_of("o"))
    sb = Sandbox(str(tmp_path / "sb"), "t8")
    with pytest.raises(SandboxError, match="left the cache"):
        sb.link_inputs(cache, [("x", "o")])
    assert not os.path.lexists(os.path.join(sb.path, "x"))


def test_escape_rejected(tmp_path, cache):
    cache.insert_bytes(b"x", "o", CacheLevel.WORKFLOW)
    sb = Sandbox(str(tmp_path / "sb"), "t4")
    with pytest.raises(SandboxError):
        sb.link_inputs(cache, [("../../evil", "o")])


def test_harvest_outputs(tmp_path, cache):
    sb = Sandbox(str(tmp_path / "sb"), "t5")
    with open(os.path.join(sb.path, "out.txt"), "w") as f:
        f.write("result")
    names = sb.harvest_outputs(cache, [("out.txt", "temp-xyz", CacheLevel.WORKFLOW)])
    assert names == ["temp-xyz"]
    assert cache.has("temp-xyz")
    assert open(cache.path_of("temp-xyz")).read() == "result"


def test_harvest_missing_output_raises(tmp_path, cache):
    sb = Sandbox(str(tmp_path / "sb"), "t6")
    with pytest.raises(SandboxError, match="did not produce"):
        sb.harvest_outputs(cache, [("never.txt", "n", CacheLevel.WORKFLOW)])


def test_disk_usage_counts_only_task_data(tmp_path, cache):
    cache.insert_bytes(b"i" * 1000, "in", CacheLevel.WORKFLOW)
    sb = Sandbox(str(tmp_path / "sb"), "t7")
    sb.link_inputs(cache, [("input", "in")])
    with open(os.path.join(sb.path, "produced"), "wb") as f:
        f.write(b"o" * 500)
    assert sb.disk_usage() == 500


# -- executor ----------------------------------------------------------


def test_run_command_success(tmp_path):
    out = run_command(
        "echo hello", str(tmp_path), {}, Resources(cores=1)
    )
    assert out.exit_code == 0
    assert out.output.strip() == "hello"
    assert out.execution_time >= 0


def test_run_command_env_extends(tmp_path):
    out = run_command(
        "echo $MY_VAR", str(tmp_path), {"MY_VAR": "42"}, Resources(cores=1)
    )
    assert out.output.strip() == "42"


def test_run_command_failure_code(tmp_path):
    out = run_command("exit 3", str(tmp_path), {}, Resources(cores=1))
    assert out.exit_code == 3


def test_run_command_cwd_is_sandbox(tmp_path):
    out = run_command("pwd", str(tmp_path), {}, Resources(cores=1))
    assert out.output.strip() == os.path.realpath(str(tmp_path))


def test_run_command_timeout_kills(tmp_path):
    """The timeout kills the task's whole process group: a descendant of
    the shell must not keep the output pipe (and the caller) waiting."""
    started = time.monotonic()
    out = run_command(
        "sleep 30; true", str(tmp_path), {}, Resources(cores=1), timeout=0.3
    )
    assert out.exit_code == -9
    assert "wall_time" in out.exceeded
    assert time.monotonic() - started < 5


def test_run_command_disk_exceeded(tmp_path):
    out = run_command(
        "dd if=/dev/zero of=big bs=1M count=3 2>/dev/null",
        str(tmp_path),
        {},
        Resources(cores=1, disk=1),
        sandbox_usage=lambda: 3_000_000,
    )
    assert "disk" in out.exceeded


def test_run_command_memory_limit(tmp_path):
    # allocating ~200 MB under a 50 MB RLIMIT_AS must fail
    code = "import ctypes; b = bytearray(200_000_000); print(len(b))"
    out = run_command(
        f'python3 -c "{code}"',
        str(tmp_path),
        {},
        Resources(cores=1, memory=50),
    )
    assert out.exit_code != 0


def test_run_command_never_runs_python_between_fork_and_exec(tmp_path, monkeypatch):
    """The worker is multi-threaded: ``preexec_fn`` may deadlock the
    child before ``exec`` (and forces the slow fork path), so limits and
    the new session must come without it."""
    import subprocess

    seen = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        seen.append(kwargs)
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    out = run_command(
        "echo ok", str(tmp_path), {}, Resources(cores=1, memory=100), timeout=5
    )
    assert out.output.strip() == "ok"
    assert [kw.get("preexec_fn") for kw in seen] == [None]
    assert seen[0]["start_new_session"] is True


def test_run_command_limits_are_what_the_task_sees(tmp_path):
    """Clock-free: the task's own shell reports the limits it runs under."""
    out = run_command(
        "ulimit -v; ulimit -t", str(tmp_path), {},
        Resources(cores=1, memory=300), timeout=600,
    )
    assert out.output.split() == [str(300 * 1_000_000 // 1024), "601"]


def test_run_command_cpu_limit_scales_with_cores(tmp_path):
    """CPU seconds add up over threads: a 4-core task may burn four
    times its wall-clock budget before that budget is spent (it used to
    be SIGXCPU-killed, exit -24, a quarter of the way in)."""
    for cores, expected in ((4, 4 * 601), (2.5, 3 * 601), (0.5, 601)):
        out = run_command(
            "ulimit -t", str(tmp_path), {}, Resources(cores=cores), timeout=600
        )
        assert out.output.strip() == str(expected)


def test_run_command_without_limits_leaves_them_alone(tmp_path):
    mine = run_command("ulimit -v; ulimit -t", str(tmp_path), {}, Resources(cores=1))
    import subprocess

    inherited = subprocess.run(
        "ulimit -v; ulimit -t", shell=True, capture_output=True, text=True
    )
    assert mine.output == inherited.stdout


def test_run_command_refused_limit_is_ignored(tmp_path):
    """Raising a limit above the inherited hard limit fails in the
    kernel; the task still runs, and sees no noise from the attempt."""
    out = run_command(
        "ulimit -t 5; "
        "python3 -c \"from repro.worker.executor import run_command;"
        "from repro.core.resources import Resources;"
        "o = run_command('echo ran', '.', {}, Resources(cores=1), timeout=600);"
        "print(o.exit_code, o.output.strip())\"",
        str(tmp_path), {}, Resources(cores=1),
    )
    assert out.output.strip() == "0 ran"


def test_run_command_bad_spawn(tmp_path):
    out = run_command("echo x", str(tmp_path / "missing-dir"), {}, Resources())
    assert out.exit_code == 127
