"""A slow library-mode call stalls its caller, never the reactor.

Naming a worker-level URL fetches its headers (a HEAD request with a
30 s timeout), and declaring a directory packs it into the one tar its
pushes stream.  Both run on the calling thread; only the plane's
``declare`` is posted to the reactor.  Here that slow step is held on
an event while a worker connects and a queued task must finish.
"""

import threading

import pytest

from repro.core.files import CacheLevel
from repro.core.manager import Manager
from repro.core.task import Task, TaskState
from repro.worker import transfers
from repro.worker.scripted import ScriptedWorker

#: seconds a queued noop gets to finish while the declare is held
FINISH_WITHIN = 3.0


def _held_url(m, _tmp_path, _monkeypatch, entered, release):
    def headers(_url):
        entered.set()
        release.wait(30.0)
        return {"ETag": "held"}

    m.namer.header_fetcher = headers  # the URL is never contacted
    return lambda: m.declare_url("http://stall.test/data", CacheLevel.WORKER)


def _held_directory(m, tmp_path, monkeypatch, entered, release):
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tree / "sub" / "member").write_bytes(b"packed once")
    pack = transfers.pack_directory

    def held_pack(src, dst):
        entered.set()
        release.wait(30.0)
        return pack(src, dst)

    monkeypatch.setattr(transfers, "pack_directory", held_pack)
    return lambda: m.declare_local(str(tree))


@pytest.mark.parametrize("held", [_held_url, _held_directory])
def test_a_held_declare_does_not_stall_the_reactor(held, tmp_path, monkeypatch):
    m = Manager()
    entered, release = threading.Event(), threading.Event()
    declare = held(m, tmp_path, monkeypatch, entered, release)
    worker = None
    declarer = threading.Thread(target=declare, daemon=True)
    try:
        task = Task("noop")
        m.submit(task)
        declarer.start()
        assert entered.wait(10.0), "the declare never reached its slow step"
        worker = ScriptedWorker(m.host, m.port)
        assert m.wait(timeout=FINISH_WITHIN) is task
        assert task.state == TaskState.DONE
        assert declarer.is_alive()  # still held: the reactor did not wait
    finally:
        release.set()
        declarer.join(timeout=10.0)
        if worker is not None:
            worker.close()
        m.close()
    assert not declarer.is_alive()
