"""Unit tests for resource specification and pool accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.resources import ResourceExhausted, ResourcePool, Resources


def test_defaults():
    r = Resources()
    assert r.cores == 1.0
    assert r.memory == 0 and r.disk == 0 and r.gpus == 0


def test_negative_rejected():
    with pytest.raises(ValueError):
        Resources(cores=-1)
    with pytest.raises(ValueError):
        Resources(memory=-5)


def test_add_sub():
    a = Resources(cores=2, memory=100, disk=10, gpus=1)
    b = Resources(cores=1, memory=50, disk=5, gpus=0)
    assert a + b == Resources(cores=3, memory=150, disk=15, gpus=1)
    assert a - b == Resources(cores=1, memory=50, disk=5, gpus=1)


def test_fits_within():
    small = Resources(cores=1, memory=10)
    big = Resources(cores=4, memory=100)
    assert small.fits_within(big)
    assert not big.fits_within(small)
    assert big.fits_within(big)


def test_exceeds_names_dimensions():
    used = Resources(cores=2, memory=200, disk=1, gpus=0)
    limit = Resources(cores=1, memory=100, disk=10, gpus=0)
    assert used.exceeds(limit) == ["cores", "memory"]
    assert limit.exceeds(used) == ["disk"]


def test_scaled_growth():
    r = Resources(cores=2, memory=100, disk=50, gpus=1)
    s = r.scaled(2)
    assert s == Resources(cores=4, memory=200, disk=100, gpus=1)
    with pytest.raises(ValueError):
        r.scaled(-1)


def test_round_trip_dict():
    r = Resources(cores=3, memory=7, disk=9, gpus=2)
    assert Resources.from_dict(r.to_dict()) == r


def test_from_dict_ignores_unknown():
    assert Resources.from_dict({"cores": 2, "bogus": 1}) == Resources(cores=2)


def test_pool_allocate_release():
    pool = ResourcePool(Resources(cores=4, memory=100, disk=100, gpus=1))
    pool.allocate("t1", Resources(cores=2, memory=50))
    assert pool.available() == Resources(cores=2, memory=50, disk=100, gpus=1)
    pool.allocate("t2", Resources(cores=2, memory=50))
    assert not pool.can_fit(Resources(cores=1))
    with pytest.raises(ResourceExhausted):
        pool.allocate("t3", Resources(cores=1))
    released = pool.release("t1")
    assert released == Resources(cores=2, memory=50)
    assert pool.can_fit(Resources(cores=2))


def test_pool_duplicate_holder_rejected():
    pool = ResourcePool(Resources(cores=4))
    pool.allocate("t1", Resources(cores=1))
    with pytest.raises(ValueError):
        pool.allocate("t1", Resources(cores=1))


def test_pool_release_unknown_holder():
    pool = ResourcePool(Resources(cores=4))
    with pytest.raises(KeyError):
        pool.release("nope")


def test_pool_len_and_holders():
    pool = ResourcePool(Resources(cores=4))
    pool.allocate("a", Resources(cores=1))
    pool.allocate("b", Resources(cores=1))
    assert len(pool) == 2
    assert set(pool.holders()) == {"a", "b"}


resources_st = st.builds(
    Resources,
    # integer-valued cores: float arithmetic identities hold exactly
    cores=st.integers(min_value=0, max_value=64).map(float),
    memory=st.integers(min_value=0, max_value=1 << 20),
    disk=st.integers(min_value=0, max_value=1 << 20),
    gpus=st.integers(min_value=0, max_value=8),
)


@given(resources_st, resources_st)
def test_property_add_then_sub_identity(a, b):
    assert (a + b) - b == a


@given(resources_st, resources_st)
def test_property_sum_fits_iff_parts_fit_alone(a, b):
    total = a + b
    assert a.fits_within(total) and b.fits_within(total)


@given(st.lists(resources_st, max_size=8))
def test_property_pool_never_overcommits(requests):
    capacity = Resources(cores=16, memory=1 << 14, disk=1 << 14, gpus=4)
    pool = ResourcePool(capacity)
    for i, req in enumerate(requests):
        if pool.can_fit(req):
            pool.allocate(str(i), req)
        assert pool.allocated.fits_within(capacity)


class _FoldPool:
    """The pool ledger as a fold of :class:`Resources` values: every
    allocation adds a request with ``+``, every release subtracts it
    with ``-`` — the oracle the running totals must match exactly."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.allocated = Resources(cores=0, memory=0, disk=0, gpus=0)
        self.holders = {}

    def allocate(self, holder, request):
        if holder in self.holders:
            raise ValueError(holder)
        if not (self.allocated + request).fits_within(self.capacity):
            raise ResourceExhausted(holder)
        self.holders[holder] = request
        self.allocated = self.allocated + request

    def release(self, holder):
        request = self.holders.pop(holder)
        self.allocated = self.allocated - request
        return request


# fractional cores too: the totals must round exactly as the fold does
ledger_request_st = st.builds(
    Resources,
    cores=st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1.5]) | st.floats(0, 6, width=32),
    memory=st.integers(min_value=0, max_value=400),
    disk=st.integers(min_value=0, max_value=400),
    gpus=st.integers(min_value=0, max_value=2),
)
ledger_op_st = st.tuples(
    st.sampled_from(["allocate", "release"]),
    st.integers(min_value=0, max_value=5),
    ledger_request_st,
)


def _outcome(call):
    try:
        return call(), None
    except (ResourceExhausted, ValueError, KeyError) as exc:
        return None, type(exc)


@given(st.lists(ledger_op_st, max_size=40), st.lists(ledger_request_st, max_size=4))
def test_property_pool_ledger_is_the_fold_of_its_requests(ops, probes):
    capacity = Resources(cores=8, memory=1000, disk=1000, gpus=4)
    pool, fold = ResourcePool(capacity), _FoldPool(capacity)
    for op, holder, request in ops:
        name = f"h{holder}"
        if op == "allocate":
            got = _outcome(lambda: pool.allocate(name, request))
            want = _outcome(lambda: fold.allocate(name, request))
        else:
            got = _outcome(lambda: pool.release(name))
            want = _outcome(lambda: fold.release(name))
        assert got == want
        # exactly the fold's values, ints and floats alike
        assert repr(pool.allocated) == repr(fold.allocated)
        assert pool.holders() == fold.holders
        for r in probes + [request]:
            assert pool.can_fit(r) == (fold.allocated + r).fits_within(capacity)
