"""The chaos demo driver converges and leaves a replayable log behind."""

from repro.faults.demo import main
from repro.observe.cli import format_log_status, replay_status
from repro.observe.txnlog import read_transactions


def test_demo_writes_a_replayable_chaos_log(tmp_path, capsys):
    log = str(tmp_path / "chaos.jsonl")
    assert main(["--seed", "42", "--log", log]) == 0
    out = capsys.readouterr().out
    assert "24/24 tasks done" in out

    header, events = read_transactions(log, strict=True)
    assert header["runtime"] == "sim"
    st = replay_status(events, runtime=header["runtime"])
    assert st.workflow_done
    assert st.faults_injected > 0
    assert st.counts["task_requeued"] > 0
    text = format_log_status(st)
    assert "faults injected:" in text
    assert "recovery:" in text


def test_demo_is_deterministic_for_a_seed(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["--seed", "7", "--log", a]) == 0
    assert main(["--seed", "7", "--log", b]) == 0
    _, ea = read_transactions(a)
    _, eb = read_transactions(b)
    # identical event *shape*: identities (nonce names, task counters)
    # differ per process, but kinds, times, workers and sizes replay
    assert [(e.time, e.kind, e.worker, e.size) for e in ea] == [
        (e.time, e.kind, e.worker, e.size) for e in eb
    ]
