"""Cross-run stability of content-addressed cache names (paper §3.2).

Service mode shares one cache across many client workflows, and the
whole scheme rests on one contract: names at *shareable* cache levels
are derived purely from content/spec — never from the per-run nonce —
so two independent managers (or two tenants of one service) computing
a name for identical content land on identical bytes.  Nothing pinned
this before; these tests are the regression net.
"""

import pytest

from repro.core.files import (
    BufferFile,
    CacheLevel,
    LocalFile,
    MiniTaskFile,
    TempFile,
    shareable,
)
from repro.core.library import FunctionCall
from repro.core.manager import Manager
from repro.core.naming import Namer, task_merkle
from repro.core.task import MiniTask, PythonTask, Task
from repro.memo.store import MemoStore
from repro.sim.cluster import SimCluster
from repro.sim.simmanager import SimManager


def two_namers():
    # different seeds AND different nonces: anything that leaks either
    # into a shareable name will differ between the two
    return Namer(seed=1, run_nonce="aaaaaaaaaaaa"), Namer(seed=2, run_nonce="bbbbbbbbbbbb")


def test_buffer_names_identical_across_runs():
    a, b = two_namers()
    for level in (CacheLevel.TASK, CacheLevel.WORKFLOW, CacheLevel.WORKER):
        fa = BufferFile(b"shared payload", level)
        fb = BufferFile(b"shared payload", level)
        assert a.assign(fa) == b.assign(fb)
        assert "aaaaaaaaaaaa" not in fa.cache_name
        assert shareable(fa.cache_name)


def test_worker_level_local_names_identical_across_runs(tmp_path):
    path = tmp_path / "input.dat"
    path.write_bytes(b"file content")
    a, b = two_namers()
    fa = LocalFile(str(path), CacheLevel.WORKER)
    fb = LocalFile(str(path), CacheLevel.WORKER)
    assert a.assign(fa) == b.assign(fb)
    assert a.run_nonce not in fa.cache_name
    assert shareable(fa.cache_name)


def test_worker_level_minitask_names_identical_across_runs():
    a, b = two_namers()

    def build(namer):
        src = BufferFile(b"tarball bytes", CacheLevel.WORKER)
        namer.assign(src)
        mini = MiniTask("tar -xf input.tar")
        mini.add_input(src, "input.tar")
        f = MiniTaskFile(mini, CacheLevel.WORKER)
        namer.assign(f)
        return f

    fa, fb = build(a), build(b)
    assert fa.cache_name == fb.cache_name
    assert a.run_nonce not in fa.cache_name


def test_non_worker_levels_are_salted_with_the_nonce(tmp_path):
    # the converse contract: names that must NOT outlive the run carry
    # the nonce (directly, or via the rnd random-name scheme)
    path = tmp_path / "input.dat"
    path.write_bytes(b"file content")
    a, b = two_namers()
    fa = LocalFile(str(path), CacheLevel.WORKFLOW)
    fb = LocalFile(str(path), CacheLevel.WORKFLOW)
    assert a.assign(fa) != b.assign(fb)
    assert a.run_nonce in fa.cache_name
    assert not shareable(fa.cache_name)


def test_worker_level_temp_output_names_identical_across_runs():
    a, b = two_namers()

    def build(namer):
        src = BufferFile(b"task input", CacheLevel.WORKER)
        namer.assign(src)
        task = Task("produce out").add_input(src, "in.dat")
        out = TempFile(CacheLevel.WORKER)
        task.add_output(out, "out.dat")
        return namer.name_temp_output(out, task)

    assert build(a) == build(b)


def test_shareable_predicate_keys_on_the_rnd_segment():
    a, _ = two_namers()
    f = TempFile()
    a.assign(f)  # temp files get per-run random names
    assert not shareable(f.cache_name)
    assert f.cache_name.split("-", 2)[1].startswith("rnd")


# ---------------------------------------------------------------------------
# task_merkle golden hashes: one literal per task kind
#
# Memoization keys persist across runs, managers, and repo versions —
# if any of these literals moves, every existing memo store silently
# stops hitting.  Changing them is an intentional store-format break.
# ---------------------------------------------------------------------------


def _named_buffer(data: bytes) -> BufferFile:
    f = BufferFile(data, CacheLevel.WORKER)
    Namer(seed=1, run_nonce="aaaaaaaaaaaa").assign(f)
    return f


def _command_task() -> Task:
    t = Task("sort in.txt > out.txt").add_input(_named_buffer(b"golden input"), "in.txt")
    t.add_output(TempFile(), "out.txt")
    return t


def test_task_merkle_golden_command():
    assert task_merkle(_command_task()) == "96a673a5e9942a05b2d87611f01f3808"


def test_task_merkle_golden_minitask():
    m = MiniTask("tar -xf in.tar")
    m.add_input(_named_buffer(b"golden input"), "in.tar")
    m.add_output(TempFile(), "out")
    assert task_merkle(m) == "9b43fafb1ee514aa1e150f3eb1ec4220"


def test_task_merkle_golden_python_task():
    # the function itself rides the content-hashed payload *input*; the
    # merkle document sees only a fixed "@pytask" token, so any function
    # shipped with an identical payload buffer lands on the same merkle
    def behaviors_differ():  # pragma: no cover - never executed
        return 1

    pt = PythonTask(behaviors_differ)
    pt.inputs.append((pt.PAYLOAD_NAME, _named_buffer(b"serialized payload")))
    pt.outputs.append((pt.RESULT_NAME, TempFile()))
    assert task_merkle(pt) == "b45f45c2fa7b5fb1aba75d35d31b70f0"


def test_task_merkle_golden_function_call():
    # also pins the argument-serialization format: FunctionCall identity
    # embeds a hash of the pickled (args, kwargs)
    fc = FunctionCall("mylib", "add", 2, 3)
    fc.add_output(TempFile(), "result.bin")
    assert task_merkle(fc) == "55fc9bfc124a9a0b82e1e4ca810f3d67"


def test_task_merkle_sensitivity():
    base = task_merkle(_command_task())
    changed = _command_task()
    changed.command = "sort -r in.txt > out.txt"
    assert task_merkle(changed) != base
    renamed_out = Task("sort in.txt > out.txt").add_input(
        _named_buffer(b"golden input"), "in.txt"
    )
    renamed_out.add_output(TempFile(), "other.txt")
    assert task_merkle(renamed_out) != base
    new_content = Task("sort in.txt > out.txt").add_input(
        _named_buffer(b"different input"), "in.txt"
    )
    new_content.add_output(TempFile(), "out.txt")
    assert task_merkle(new_content) != base
    enved = _command_task()
    enved.set_env("LC_ALL", "C")
    assert task_merkle(enved) != base


def test_task_merkle_ignores_input_declaration_order():
    def build(reverse: bool) -> Task:
        pairs = [
            ("a.txt", _named_buffer(b"content a")),
            ("b.txt", _named_buffer(b"content b")),
        ]
        t = Task("cat a.txt b.txt > out.txt")
        for rn, f in reversed(pairs) if reverse else pairs:
            t.add_input(f, rn)
        t.add_output(TempFile(), "out.txt")
        return t

    assert task_merkle(build(False)) == task_merkle(build(True))


def test_task_merkle_requires_named_inputs():
    t = Task("cat in > out").add_input(BufferFile(b"x", CacheLevel.WORKER), "in")
    with pytest.raises(RuntimeError):
        task_merkle(t)


def test_memo_output_names_identical_across_runs():
    a, b = two_namers()

    def build(namer: Namer) -> str:
        t = _command_task()
        out = t.outputs[0][1]
        return namer.name_task_output(out, t, task_merkle(t))

    name_a, name_b = build(a), build(b)
    assert name_a == name_b
    assert name_a.startswith("memo-md5-")
    assert "aaaaaaaaaaaa" not in name_a  # never run-salted


def test_memo_output_names_identical_across_runtimes(tmp_path):
    """Eligibility and memo naming are one control-plane call both
    runtimes make with their own Namer, so the same recipe lands on the
    same names under the real manager and the simulator."""

    def submit_both(deterministic: bool) -> tuple[list[str], list[str]]:
        def build(declare_temp) -> Task:
            t = Task("simulate --steps 10").set_deterministic(deterministic)
            t.add_output(TempFile(), "fresh.out")  # unnamed until submit
            t.add_output(declare_temp(), "declared.out")  # placeholder name
            return t

        with Manager(seed=7, memo_dir=str(tmp_path / "real")) as real:
            real_task = build(real.declare_temp)
            real.submit(real_task)
        sim = SimManager(
            SimCluster(), seed=7, memo_store=MemoStore(str(tmp_path / "sim"))
        )
        sim_task = build(sim.declare_temp)
        sim.submit(sim_task, duration=1.0)
        return tuple(
            [f.cache_name for _, f in t.outputs] for t in (real_task, sim_task)
        )

    real_names, sim_names = submit_both(deterministic=True)
    assert real_names == sim_names and len(set(real_names)) == 2
    assert all(n.startswith("memo-md5-") for n in real_names)
    # the impure twin keeps its run-salted names in both
    real_names, sim_names = submit_both(deterministic=False)
    assert all("-rnd-" in n for n in real_names + sim_names)
