"""Tests for the discrete-event engine and the fair-share network model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulation
from repro.sim.network import Network


# -- engine ------------------------------------------------------------------


def test_events_fire_in_time_order():
    sim = Simulation()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_fifo():
    sim = Simulation()
    fired = []
    for i in range(5):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancel():
    sim = Simulation()
    fired = []
    h = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, h.cancel)
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulation().schedule(-1, print)


def test_run_until_bounds_time():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["a", "b"]


def test_stop_when():
    sim = Simulation()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_schedule_during_run():
    sim = Simulation()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_schedule_at_past_clamps_to_now():
    sim = Simulation()
    fired = []
    sim.schedule(5.0, lambda: sim.schedule_at(1.0, fired.append, "late"))
    sim.run()
    assert fired == ["late"]
    assert sim.now == 5.0


def test_pending_counts_uncancelled():
    sim = Simulation()
    h1 = sim.schedule(1, print)
    sim.schedule(2, print)
    h1.cancel()
    assert sim.pending() == 1


# -- network --------------------------------------------------------------


def make_net(**nodes):
    sim = Simulation()
    net = Network(sim)
    for name, bps in nodes.items():
        net.add_node(name, bps)
    return sim, net


def test_single_transfer_time():
    sim, net = make_net(a=100.0, b=100.0)
    done = []
    net.start("a", "b", 1000.0, lambda t: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_rate_limited_by_slower_endpoint():
    sim, net = make_net(fast=1000.0, slow=10.0)
    done = []
    net.start("fast", "slow", 100.0, lambda t: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_source_shared_among_fanout():
    # one source serving 4 receivers: each gets 1/4 of the uplink
    sim, net = make_net(src=100.0, a=100.0, b=100.0, c=100.0, d=100.0)
    done = {}
    for dst in "abcd":
        net.start("src", dst, 100.0, lambda t, d=dst: done.update({d: sim.now}))
    sim.run()
    for dst in "abcd":
        assert done[dst] == pytest.approx(4.0)


def test_departure_speeds_up_remaining():
    # two transfers share a source; when the short one ends, the long
    # one gets the full uplink
    sim, net = make_net(src=100.0, a=100.0, b=100.0)
    done = {}
    net.start("src", "a", 100.0, lambda t: done.update({"a": sim.now}))
    net.start("src", "b", 300.0, lambda t: done.update({"b": sim.now}))
    sim.run()
    # both run at 50 B/s; "a" ends at t=2 with b having 200 left,
    # then b runs at 100 B/s: 2 more seconds
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(4.0)


def test_arrival_slows_down_active():
    sim, net = make_net(src=100.0, a=100.0, b=100.0)
    done = {}
    net.start("src", "a", 100.0, lambda t: done.update({"a": sim.now}))
    sim.schedule(0.5, lambda: net.start("src", "b", 100.0, lambda t: done.update({"b": sim.now})))
    sim.run()
    # a: 50 bytes in first 0.5s, then 50 B/s → done at 0.5 + 1.0 = 1.5
    assert done["a"] == pytest.approx(1.5)


def test_zero_size_transfer_completes():
    sim, net = make_net(a=100.0, b=100.0)
    done = []
    net.start("a", "b", 0.0, lambda t: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.0)]


def test_bytes_and_counts_accounted():
    sim, net = make_net(a=100.0, b=100.0)
    net.start("a", "b", 500.0, lambda t: None)
    net.start("b", "a", 300.0, lambda t: None)
    sim.run()
    assert net.completed_transfers == 2
    assert net.bytes_moved == pytest.approx(800.0)
    assert net.active_count() == 0


def test_duplicate_node_rejected():
    sim, net = make_net(a=1.0)
    with pytest.raises(ValueError):
        net.add_node("a", 1.0)


def test_negative_size_rejected():
    sim, net = make_net(a=1.0, b=1.0)
    with pytest.raises(ValueError):
        net.start("a", "b", -5, lambda t: None)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1, max_value=1e6),  # size
            st.floats(min_value=0, max_value=50),  # start offset
        ),
        min_size=1,
        max_size=15,
    )
)
def test_property_conservation_and_capacity(transfers):
    """Total completion time >= sum(bytes)/uplink and all bytes arrive."""
    sim = Simulation()
    net = Network(sim)
    net.add_node("src", 100.0)
    for i in range(len(transfers)):
        net.add_node(f"w{i}", 100.0)
    done = []
    for i, (size, offset) in enumerate(transfers):
        sim.schedule(
            offset,
            lambda i=i, size=size: net.start(
                "src", f"w{i}", size, lambda t: done.append(t)
            ),
        )
    end = sim.run()
    assert len(done) == len(transfers)
    assert net.bytes_moved == pytest.approx(sum(s for s, _ in transfers))
    total_bytes = sum(s for s, _ in transfers)
    # uplink capacity bounds aggregate throughput
    assert end >= total_bytes / 100.0 - 1e-6
    for t in done:
        size = t.size
        assert t.finished_at - t.started_at >= size / 100.0 - 1e-6


def test_transfer_latency_delays_start():
    sim = Simulation()
    net = Network(sim, latency=2.0)
    net.add_node("a", 100.0)
    net.add_node("b", 100.0)
    done = []
    net.start("a", "b", 100.0, lambda t: done.append(sim.now))
    sim.run()
    # 2 s setup + 1 s of bytes
    assert done == [pytest.approx(3.0)]


def test_latency_setup_consumes_no_bandwidth():
    sim = Simulation()
    net = Network(sim, latency=5.0)
    for name in ("src", "x", "y"):
        net.add_node(name, 100.0)
    done = {}
    net.start("src", "x", 100.0, lambda t: done.update(x=sim.now))
    # second transfer starts its setup while the first still in setup;
    # both then stream concurrently sharing the source uplink
    net.start("src", "y", 100.0, lambda t: done.update(y=sim.now))
    sim.run()
    # setup 5 s, then both share 100 B/s: 2 s each
    assert done["x"] == pytest.approx(7.0)
    assert done["y"] == pytest.approx(7.0)


# -- one timer, same finish times ------------------------------------------


def test_simultaneous_finishers_complete_in_activation_order():
    sim, net = make_net(src=100.0, a=100.0, b=100.0, c=100.0)
    order = []
    for dst in "cab":  # activation order, not name order
        net.start("src", dst, 100.0, lambda t, d=dst: order.append((d, sim.now)))
    sim.run()
    assert [d for d, _ in order] == ["c", "a", "b"]
    assert len({when for _, when in order}) == 1


def test_zero_bandwidth_stalls_a_flow_until_it_is_restored():
    sim, net = make_net(a=100.0, b=100.0, c=100.0)
    done = {}
    net.start("a", "b", 1000.0, lambda t: done.update(ab=sim.now))
    net.start("c", "b", 100.0, lambda t: done.update(cb=sim.now))
    sim.schedule(1.0, net.set_bandwidth, "a", 0.0)
    sim.run()
    # a→b moved 50 bytes, then stalled: it holds no timer, keeps its
    # share of b's downlink, and the other flow finishes around it
    assert done == {"cb": 2.0}
    assert net.active_count() == 1 and sim.pending() == 0
    sim.schedule(0.0, net.set_bandwidth, "a", 100.0)
    sim.run()
    assert done["ab"] == pytest.approx(2.0 + 950.0 / 100.0)
    assert net.active_count() == 0


def _flows_with_a_sliver(network_cls):
    """Three flows off one source; the first's timer fires with bytes
    still to move.  Rounding alone leaves a sliver only on a half-ulp
    tie, so the test leaves one by hand: 40 bytes that the arithmetic
    "lost" after the timer was armed."""
    sim = Simulation()
    net = network_cls(sim)
    for name in ("src", "a", "b", "c"):
        net.add_node(name, 300.0)
    done = []
    flows = [
        net.start("src", dst, size, lambda t: done.append((t.dst.name, sim.now)))
        for dst, size in (("a", 100.0), ("b", 103.0), ("c", 500.0))
    ]
    flows[0].remaining += 40.0
    sim.run()
    return net, done


def test_sliver_rearm_goes_through_the_one_timer():
    from tests.sim.reference_network import PerFlowEventNetwork

    reference, expected = _flows_with_a_sliver(PerFlowEventNetwork)
    assert reference.sliver_rearms == 1, "the scenario must reach the sliver path"
    net, done = _flows_with_a_sliver(Network)
    # "a" is due at t=1.0 with 40 bytes left, which take 0.4 s more at
    # its third of the uplink; "b" (t=1.03) finishes in between
    assert [name for name, _ in done] == ["b", "a", "c"]
    assert done == expected
    assert net.active_count() == 0 and net.sim.pending() == 0


NODES = ["n0", "n1", "n2", "n3"]
_bps = st.sampled_from([0.0, 10.0, 100.0, 1.25e9])
_op = st.one_of(
    st.tuples(
        st.just("start"),
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.floats(min_value=0, max_value=1e10),
    ),
    st.tuples(st.just("bandwidth"), st.sampled_from(NODES), _bps, _bps),
)


def _replay(network_cls, latency, schedule):
    sim = Simulation()
    net = network_cls(sim, latency=latency)
    for name in NODES:
        net.add_node(name, 100.0)
    done = []
    for i, (at, op) in enumerate(schedule):
        if op[0] == "start":
            _, src, dst, size = op
            sim.schedule(
                at, net.start, src, dst, size, lambda t, i=i: done.append((i, sim.now))
            )
        else:
            _, node, up, down = op
            sim.schedule(at, net.set_bandwidth, node, up, down)
    # every link comes back at the end, so no flow stays stalled
    for name in NODES:
        sim.schedule(1e6, net.set_bandwidth, name, 100.0, 100.0)
    sim.run()
    return net, done


@given(
    st.sampled_from([0.0, 0.25]),
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=5e4), _op), min_size=1, max_size=25
    ),
)
def test_property_one_timer_finishes_when_per_flow_events_did(latency, schedule):
    """Same starts, same ``set_bandwidth`` calls: every transfer
    completes at the very instant — ``==``, not ``approx`` — and in the
    very order the per-flow-event model completed it."""
    from tests.sim.reference_network import PerFlowEventNetwork

    reference, expected = _replay(PerFlowEventNetwork, latency, schedule)
    net, done = _replay(Network, latency, schedule)
    assert done == expected
    assert net.bytes_moved == reference.bytes_moved
    assert net.active_count() == 0


def test_a_network_change_schedules_one_event_whatever_is_in_flight(monkeypatch):
    """Counted, not timed: 40 flows in flight, and a start, a
    ``set_bandwidth`` or a completion each arm one timer — not forty."""
    scheduled = []
    schedule = Simulation.schedule

    def counted(self, *args):
        scheduled.append(args[1])
        return schedule(self, *args)

    monkeypatch.setattr(Simulation, "schedule", counted)
    sim = Simulation()
    net = Network(sim)
    net.add_node("src", 1000.0)
    for i in range(40):
        net.add_node(f"w{i}", 1000.0)
        net.start("src", f"w{i}", 100.0 * (i + 1), lambda t: None)
    assert len(scheduled) == 40
    net.set_bandwidth("src", up_bps=500.0)
    assert len(scheduled) == 41
    sim.run()
    # each completion re-arms for the next finisher; the last has none
    assert len(scheduled) == 41 + 39
    assert net.completed_transfers == 40 and sim.pending() == 0
