"""Real-runtime memoization: cross-restart reuse with payload backing.

Each test builds two independent manager+worker clusters over one memo
directory — the second cluster has empty worker caches, so any hit must
be backed by md5-verified retained payloads.  The chaos cases seed
corrupt or missing payloads and require observable invalidation plus
regeneration: wrong bytes are never served.
"""

from repro.core.task import PythonTask, Task
from repro.memo.store import MemoStore

from .conftest import Cluster


def _double(x):
    return x * 2


def run_workflow(cluster):
    """One deterministic command task + one PythonTask; returns
    (command output bytes, python value, hits, invalidations)."""
    m = cluster.manager
    buf = m.declare_buffer(b"memo input\n")
    t = Task("cat in.txt > out.txt && echo extra >> out.txt").set_deterministic()
    t.add_input(buf, "in.txt")
    out = m.declare_temp()
    t.add_output(out, "out.txt")
    pt = PythonTask(_double, 21).set_deterministic()
    m.submit(t)
    m.submit(pt)
    m.run_until_done(timeout=60)
    assert t.result.exit_code == 0
    assert pt.result.exit_code == 0
    data = m.fetch_bytes(out)
    return (
        data,
        pt.output(),
        len(list(m.log.events("memo_hit"))),
        len(list(m.log.events("memo_invalidated"))),
    )


def run_cluster(tmp_path, memo_dir, round_id):
    c = Cluster(tmp_path / f"round-{round_id}", n_workers=1, memo_dir=str(memo_dir))
    try:
        return run_workflow(c)
    finally:
        c.stop()


def test_warm_restart_serves_identical_bytes(tmp_path):
    memo = tmp_path / "memo"
    d1, v1, hits1, _ = run_cluster(tmp_path, memo, 1)
    assert hits1 == 0
    d2, v2, hits2, inval2 = run_cluster(tmp_path, memo, 2)
    assert (d2, v2) == (d1, v1) == (b"memo input\nextra\n", 42)
    assert hits2 == 2  # both tasks served without dispatch
    assert inval2 == 0
    store = MemoStore(memo)
    assert sum(e.hits for e in store.entries()) == 2


def test_corrupt_payload_invalidated_and_regenerated(tmp_path):
    memo = tmp_path / "memo"
    d1, v1, _, _ = run_cluster(tmp_path, memo, 1)
    # tamper with every retained payload; the recorded md5s no longer
    # match, so nothing in the store is sound for a fresh cluster
    store = MemoStore(memo)
    names = {o.cache_name for e in store.entries() for o in e.outputs}
    assert names
    for name in names:
        assert store.has_payload(name)
        with open(store.payload_path(name), "r+b") as f:
            f.write(b"GARBAGE")
    d2, v2, hits2, inval2 = run_cluster(tmp_path, memo, 2)
    assert (d2, v2) == (d1, v1)  # regenerated, never served corrupt
    assert hits2 == 0
    assert inval2 == 2
    # regeneration re-records and re-harvests: a third cluster hits
    d3, v3, hits3, inval3 = run_cluster(tmp_path, memo, 3)
    assert (d3, v3) == (d1, v1)
    assert hits3 == 2 and inval3 == 0


def test_missing_payload_invalidated_and_regenerated(tmp_path):
    memo = tmp_path / "memo"
    d1, v1, _, _ = run_cluster(tmp_path, memo, 1)
    store = MemoStore(memo)
    for e in store.entries():
        for o in e.outputs:
            store.drop_payload(o.cache_name)
    d2, v2, hits2, inval2 = run_cluster(tmp_path, memo, 2)
    assert (d2, v2) == (d1, v1)
    assert hits2 == 0 and inval2 == 2


def test_live_replicas_back_hits_without_payloads(tmp_path):
    # within one cluster the replicas are live, so hits work even if
    # every retained payload is thrown away between submissions
    memo = tmp_path / "memo"
    c = Cluster(tmp_path / "one", n_workers=1, memo_dir=str(memo))
    try:
        m = c.manager
        buf = m.declare_buffer(b"replica backed\n")
        t1 = Task("cat in.txt > out.txt").set_deterministic()
        t1.add_input(buf, "in.txt")
        o1 = m.declare_temp()
        t1.add_output(o1, "out.txt")
        m.submit(t1)
        m.run_until_done(timeout=60)
        m.memo_store.drop_payload(o1.cache_name)
        t2 = Task("cat in.txt > out.txt").set_deterministic()
        t2.add_input(buf, "in.txt")
        o2 = m.declare_temp()
        t2.add_output(o2, "out.txt")
        m.submit(t2)
        m.run_until_done(timeout=60)
        assert len(list(m.log.events("memo_hit"))) == 1
        assert o2.cache_name == o1.cache_name
        assert m.fetch_bytes(o2) == b"replica backed\n"
    finally:
        c.stop()


def test_opt_out_tenant_runs_every_time(tmp_path):
    memo = tmp_path / "memo"
    for round_id in (1, 2):
        c = Cluster(
            tmp_path / f"r{round_id}", n_workers=1,
            memo_dir=str(memo), memo_opt_out=["default"],
        )
        try:
            m = c.manager
            buf = m.declare_buffer(b"opted out\n")
            t = Task("cat in.txt > out.txt").set_deterministic()
            t.add_input(buf, "in.txt")
            out = m.declare_temp()
            t.add_output(out, "out.txt")
            m.submit(t)
            m.run_until_done(timeout=60)
            assert not list(m.log.events("memo_hit"))
            assert not list(m.log.events("memo_miss"))
        finally:
            c.stop()
    assert len(MemoStore(memo)) == 0
