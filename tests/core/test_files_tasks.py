"""Tests for file declarations, the registry, and task declarations."""

import pytest

from repro.core.files import (
    BufferFile,
    CacheLevel,
    FileRegistry,
    LearnedFile,
    LocalFile,
    TempFile,
    URLFile,
)
from repro.core.library import FunctionCall, Library, LibraryTask
from repro.core.resources import Resources
from repro.core.task import MiniTask, PythonTask, Task, TaskState


# -- files --------------------------------------------------------------


def test_cache_level_parse():
    assert CacheLevel.parse("worker") == CacheLevel.WORKER
    assert CacheLevel.parse("TASK") == CacheLevel.TASK
    assert CacheLevel.parse(CacheLevel.WORKFLOW) == CacheLevel.WORKFLOW
    assert CacheLevel.parse(2) == CacheLevel.WORKER
    with pytest.raises(KeyError):
        CacheLevel.parse("forever")


def test_cache_level_ordering():
    assert CacheLevel.TASK < CacheLevel.WORKFLOW < CacheLevel.WORKER


def test_a_file_is_its_own_identity_not_an_id():
    """Two handles of the same content are two records until a registry
    makes one canonical; neither carries an id or an instance dict."""
    files = [BufferFile(b"x") for _ in range(100)]
    assert len(set(files)) == 100  # hashed and compared by identity
    assert files[0] != files[1] and files[0] == files[0]
    for f in (files[0], TempFile(), LearnedFile("n", 1)):
        assert not hasattr(f, "file_id") and not hasattr(f, "__dict__")
    registry = FileRegistry()
    for f in files:
        f.cache_name = "buffer-md5-x"
    assert {registry.register(f) for f in files} == {files[0]}


def test_buffer_accepts_str():
    f = BufferFile("text")
    assert f.data == b"text"
    assert f.size == 4


def test_source_descriptions():
    assert "local:" in LocalFile("/tmp/x").source_description()
    assert "url:" in URLFile("http://x/y").source_description()
    assert "buffer[3B]" in BufferFile(b"abc").source_description()


def test_registry_requires_name():
    reg = FileRegistry()
    with pytest.raises(ValueError):
        reg.register(BufferFile(b"x"))


def test_registry_dedups_by_cache_name():
    reg = FileRegistry()
    f1, f2 = BufferFile(b"same"), BufferFile(b"same")
    f1.cache_name = f2.cache_name = "buffer-md5-abc"
    canonical = reg.register(f1)
    assert reg.register(f2) is canonical is f1
    assert len(reg) == 1


def test_registry_refuses_a_second_file_under_a_random_name():
    reg = FileRegistry()
    first, second = TempFile(), TempFile()
    first.cache_name = second.cache_name = "temp-rnd-run-00000000000000aa"
    assert reg.register(first) is first
    assert reg.register(first) is first  # the same file again is no repeat
    with pytest.raises(RuntimeError, match="collision"):
        reg.register(second)
    assert reg.get(first.cache_name) is first


def test_a_declaration_takes_the_place_of_a_learned_record():
    reg = FileRegistry()
    kept = BufferFile(b"a", CacheLevel.WORKER)
    kept.cache_name = "n0"
    reg.register(kept)
    learned = reg.register(LearnedFile("buffer-md5-b", 1))
    assert learned.rank is None and learned.cache_level == CacheLevel.WORKER
    assert reg.in_declaration_order(["buffer-md5-b", "n0"]) == ["n0", "buffer-md5-b"]
    f = BufferFile(b"b")
    f.cache_name = "".join(["buffer-md5-", "b"])  # equal, not the registry's
    assert f.cache_name is not learned.cache_name
    assert reg.register(f) is f
    assert f.cache_name is learned.cache_name
    assert reg.get("buffer-md5-b") is f and f.rank is not None
    assert reg.collectable_names() == ["buffer-md5-b"]


def test_registry_collectable_names():
    reg = FileRegistry()
    for i, level in enumerate([CacheLevel.TASK, CacheLevel.WORKFLOW, CacheLevel.WORKER]):
        f = BufferFile(f"{i}".encode(), cache=level)
        f.cache_name = f"n{i}"
        reg.register(f)
    assert reg.collectable_names() == ["n0", "n1"]  # declaration order
    assert reg.names_at_level(CacheLevel.WORKER) == ["n2"]


# -- tasks ---------------------------------------------------------------


def test_task_accumulates_io():
    t = Task("prog in > out")
    a, b = BufferFile(b"1"), TempFile()
    t.add_input(a, "in").add_output(b, "out")
    assert t.input_files() == [a]
    assert t.output_files() == [b]
    assert b.producer_task_id == t.task_id


def test_task_duplicate_sandbox_names_rejected():
    t = Task("x")
    t.add_input(BufferFile(b"1"), "in")
    with pytest.raises(ValueError):
        t.add_input(BufferFile(b"2"), "in")
    t.add_output(TempFile(), "out")
    with pytest.raises(ValueError):
        t.add_output(TempFile(), "out")


def test_task_immutable_after_submission():
    t = Task("x")
    t.state = TaskState.READY
    with pytest.raises(RuntimeError):
        t.add_input(BufferFile(b"1"), "in")
    with pytest.raises(RuntimeError):
        t.set_env("A", "1")
    with pytest.raises(RuntimeError):
        t.set_resources(Resources(cores=2))


def test_task_setters_chain_and_convert():
    t = (
        Task("x")
        .set_env("KEY", 5)
        .set_cores(4)
        .set_category("blast")
        .set_priority(2.5)
    )
    assert t.env == {"KEY": "5"}
    assert t.resources.cores == 4
    assert t.category == "blast"
    assert t.priority == 2.5


def test_set_cores_preserves_other_dimensions():
    t = Task("x").set_resources(Resources(cores=1, memory=512, disk=100, gpus=1))
    t.set_cores(8)
    assert t.resources == Resources(cores=8, memory=512, disk=100, gpus=1)


def test_a_task_keeps_its_rare_fields_off_the_instance_until_set():
    import json

    plain, enved = Task("x"), Task("y").set_env("A", "1").set_tenant("alice")
    # per-task fields are slots; a task that sets no rare field has an
    # empty instance dict, and one that sets a field holds only that one
    assert vars(plain) == {}
    assert vars(enved) == {"env": {"A": "1"}, "tenant": "alice"}
    # the shared empty environment is one mapping that refuses writes,
    # and still reads, encodes and hashes as an empty dict
    assert plain.env == {} and Task("z").env is plain.env
    with pytest.raises(TypeError):
        plain.env["A"] = "1"
    with pytest.raises(TypeError):
        plain.env.update(A="1")
    assert json.dumps({"env": plain.env}) == '{"env": {}}'
    assert sorted(plain.env.items()) == [] and dict(plain.env) == {}
    assert plain.tenant == "default" and plain.resources == Resources(cores=1)


def test_input_cache_names_requires_naming():
    t = Task("x").add_input(BufferFile(b"1"), "in")
    with pytest.raises(RuntimeError):
        t.input_cache_names()


def test_python_task_command_mentions_runner():
    t = PythonTask(len, [1, 2, 3])
    assert "pytask_runner" in t.command
    assert t.category == "python"
    with pytest.raises(RuntimeError):
        t.output()
    t.set_output_value(3)
    assert t.output() == 3


def test_minitask_output_name():
    mt = MiniTask("untar x").set_output_name("unpacked")
    assert mt.output_name == "unpacked"
    assert mt.category == "mini"


# -- libraries -----------------------------------------------------------


def _f(x):
    return x + 1


def _g(x):
    return x * 2


def test_library_collects_functions():
    lib = Library("mylib", [_f, _g])
    assert lib.function_names() == ["_f", "_g"]


def test_library_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Library("dup", [_f, _f])
    with pytest.raises(ValueError):
        Library("empty", [])


def test_library_task_defaults():
    lt = LibraryTask(Library("mylib", [_f]), function_slots=4)
    assert lt.library_name == "mylib"
    assert lt.function_slots == 4
    assert lt.category == "library"


def test_function_call_output_lifecycle():
    fc = FunctionCall("mylib", "_f", 10)
    assert fc.library_name == "mylib"
    assert fc.function_name == "_f"
    assert fc.args == (10,)
    with pytest.raises(RuntimeError):
        fc.output()
    fc.set_output_value(11)
    assert fc.output() == 11


def test_add_env_alias_matches_paper_listing():
    # paper Fig. 3 uses t.add_env("BLASTDB", "landmark")
    t = Task("blast").add_env("BLASTDB", "landmark")
    assert t.env == {"BLASTDB": "landmark"}
